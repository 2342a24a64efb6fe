"""Summed Hurwitz zeta kept as a test oracle.

:mod:`repro.stats.powerlaw` evaluates ζ(γ, x) = Σ_{k≥x} k^-γ with
``scipy.special.zeta``.  The functions below are the direct sums it
replaced: 100,000 powers plus an Euler–Maclaurin integral tail, and a KS
model CCDF that takes every value's head from one shared power table.
They keep production's names and signatures, so a test can monkeypatch
them into the module and rerun a whole fit on the summed form.
"""

import numpy as np

# Terms summed directly before the integral tail takes over.
_ZETA_TERMS = 100_000

# k-value arrays for the zeta head sum, keyed by (x_min, terms).  The MLE's
# golden-section search evaluates the zeta at one x_min for ~60 gammas per
# fit, and building the 100k-element arange dominated each call; float64
# holds these integers exactly, so reuse is bit-identical.
_ZETA_KS_CACHE: dict = {}


def _zeta_ks(x_min: int, terms: int) -> np.ndarray:
    key = (x_min, terms)
    ks = _ZETA_KS_CACHE.get(key)
    if ks is None:
        if len(_ZETA_KS_CACHE) >= 8:
            _ZETA_KS_CACHE.clear()
        ks = np.arange(x_min, x_min + terms, dtype=float)
        ks.setflags(write=False)
        _ZETA_KS_CACHE[key] = ks
    return ks


def _zeta_tail(gamma: float, upper: int) -> float:
    """Integral tail ∫_upper^∞ x^-gamma dx plus half the boundary term
    (Euler–Maclaurin leading correction)."""
    return upper ** (1.0 - gamma) / (gamma - 1.0) + 0.5 * upper ** -gamma


def _generalized_zeta(gamma: float, x_min: int, terms: int = _ZETA_TERMS) -> float:
    """Hurwitz zeta ``sum_{k=x_min}^inf k^-gamma`` by direct summation plus
    an integral tail correction."""
    if gamma <= 1.0:
        raise ValueError("zeta normalization diverges for gamma <= 1")
    head = float(np.sum(_zeta_ks(x_min, terms) ** -gamma))
    return head + _zeta_tail(gamma, x_min + terms)


def _model_ccdf(gamma: float, x_min: int, values: np.ndarray) -> np.ndarray:
    """Model tail probability P(X >= x) for each x in *values*.

    One shared power table covers every value's zeta head: the head for
    value ``x`` is the sum of a contiguous ``_ZETA_TERMS``-long slice, and
    numpy's pairwise summation over identical elementwise powers in the
    same order makes each slice sum bit-identical to a standalone
    ``_generalized_zeta(gamma, x)`` call — while computing the expensive
    ``k ** -gamma`` once instead of once per value.
    """
    norm = _generalized_zeta(gamma, x_min)
    out = np.empty(values.size, dtype=float)
    if not values.size:
        return out
    lo = int(values[0])
    powers = np.arange(lo, int(values[-1]) + _ZETA_TERMS, dtype=float) ** -gamma
    for i, x in enumerate(values):
        start = int(x) - lo
        head = float(np.sum(powers[start : start + _ZETA_TERMS]))
        out[i] = (head + _zeta_tail(gamma, int(x) + _ZETA_TERMS)) / norm
    return out
