"""Power-law fitting for heavy-tailed distributions.

Degree distributions of AS-level internet maps follow ``P(k) ~ k^-gamma``
with gamma near 2.1–2.3.  Fitting gamma well is central to the validation
battery, so this module implements the standard discrete maximum-likelihood
estimator of Clauset–Shalizi–Newman (2009), automatic ``x_min`` selection by
Kolmogorov–Smirnov minimization, the Hill estimator as a cross-check, and a
bootstrap for confidence intervals.  The discrete power law's normalization
and its tail probabilities are Hurwitz zeta values ζ(γ, x) = Σ_{k≥x} k^-γ,
computed in closed form by ``scipy.special.zeta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .rng import NumpySeedLike, make_numpy_rng

__all__ = [
    "PowerLawFit",
    "fit_discrete_powerlaw",
    "fit_powerlaw_auto_xmin",
    "hill_estimator",
    "bootstrap_gamma",
    "sample_discrete_powerlaw",
    "powerlaw_plausibility",
]


def _generalized_zeta(gamma: float, x_min: int) -> float:
    """Hurwitz zeta ``sum_{k=x_min}^inf k^-gamma`` (scipy's closed form)."""
    if gamma <= 1.0:
        raise ValueError("zeta normalization diverges for gamma <= 1")
    # Imported here: a module-level import would load scipy.special on
    # every ``import repro``, and most processes never fit a tail.
    from scipy.special import zeta

    return float(zeta(gamma, x_min))


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a discrete power-law fit.

    ``gamma`` is the fitted exponent, ``x_min`` the smallest value the fit
    covers, ``ks`` the KS distance between the fitted model and the empirical
    tail, ``n_tail`` the number of samples at or above ``x_min`` and
    ``sigma`` the asymptotic standard error of gamma.
    """

    gamma: float
    x_min: int
    ks: float
    n_tail: int
    sigma: float

    def __str__(self) -> str:
        return (
            f"gamma={self.gamma:.3f}±{self.sigma:.3f} "
            f"(x_min={self.x_min}, n_tail={self.n_tail}, KS={self.ks:.4f})"
        )


def _tail(samples: Sequence[int], x_min: int) -> np.ndarray:
    data = np.asarray(samples, dtype=float)
    return data[data >= x_min]


def _golden_section(f, lo: float, hi: float) -> Tuple[float, float]:
    """Final bracket ``(a, b)`` of a golden-section search on ``[lo, hi]``;
    an edge the minimum lies on or beyond is never moved."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a < 1e-6:
            break
    return a, b


def _convex_minimum(f, lo: float, hi: float, floor: float) -> float:
    """Minimizer of a convex *f* on ``[floor, inf)``, searched from ``[lo, hi]``.

    A search ending on an edge other than *floor* means the minimum lies
    beyond it, so the bracket slides past that edge with a doubling stride.
    """
    a, b = _golden_section(f, lo, hi)
    step = hi - lo
    if b == hi:
        while b == hi:
            step *= 2.0
            lo, hi = hi, hi + step
            a, b = _golden_section(f, lo, hi)
    else:
        while a == lo and lo > floor:
            step *= 2.0
            lo, hi = max(floor, lo - step), lo
            a, b = _golden_section(f, lo, hi)
    return (a + b) / 2.0


def _mle_gamma(tail: np.ndarray, x_min: int) -> float:
    """Discrete MLE via the CSN approximation, refined by golden-section
    search on the exact discrete log-likelihood."""
    if tail.size < 2:
        raise ValueError("need at least two tail samples to fit gamma")
    # CSN closed-form approximation as the starting point.
    approx = 1.0 + tail.size / float(np.sum(np.log(tail / (x_min - 0.5))))

    log_sum = float(np.sum(np.log(tail)))

    def neg_loglike(gamma: float) -> float:
        return tail.size * math.log(_generalized_zeta(gamma, x_min)) + gamma * log_sum

    # The negative log-likelihood is convex in gamma (a log-sum-exp plus a
    # linear term); a zeta that underflows on the way raises ValueError.
    return _convex_minimum(neg_loglike, max(1.05, approx - 0.8), approx + 0.8, floor=1.05)


def _model_ccdf(gamma: float, x_min: int, values: np.ndarray) -> np.ndarray:
    """Model tail probability P(X >= x) for each x in *values*."""
    from scipy.special import zeta

    return zeta(gamma, values) / _generalized_zeta(gamma, x_min)


def _ks_statistic(tail: np.ndarray, gamma: float, x_min: int) -> float:
    values = np.unique(tail)
    model = _model_ccdf(gamma, x_min, values)
    n = tail.size
    ordered = np.sort(tail)
    empirical = (n - np.searchsorted(ordered, values, side="left")) / n
    return float(np.max(np.abs(empirical - model)))


def fit_discrete_powerlaw(samples: Iterable[int], x_min: int = 1) -> PowerLawFit:
    """Fit ``P(x) ∝ x^-gamma`` to integer *samples* with a fixed *x_min*."""
    if x_min < 1:
        raise ValueError("x_min must be >= 1")
    tail = _tail(list(samples), x_min)
    if tail.size < 2:
        raise ValueError(f"fewer than two samples >= x_min={x_min}")
    if np.unique(tail).size < 3:
        raise ValueError(
            "degenerate tail: a power-law fit needs at least three distinct values"
        )
    gamma = _mle_gamma(tail, x_min)
    ks = _ks_statistic(tail, gamma, x_min)
    sigma = (gamma - 1.0) / math.sqrt(tail.size)
    return PowerLawFit(gamma=gamma, x_min=x_min, ks=ks, n_tail=int(tail.size), sigma=sigma)


def fit_powerlaw_auto_xmin(
    samples: Iterable[int],
    x_min_candidates: Optional[Sequence[int]] = None,
    min_tail: int = 50,
) -> PowerLawFit:
    """Fit with automatic ``x_min`` selection (CSN procedure).

    Tries each candidate ``x_min`` and keeps the fit whose model-vs-data KS
    distance over the tail is smallest, subject to the tail retaining at
    least *min_tail* samples so the estimate stays stable.
    """
    data = sorted(int(s) for s in samples if s >= 1)
    if len(data) < min_tail:
        raise ValueError(f"need at least {min_tail} positive samples")
    if x_min_candidates is None:
        distinct = sorted(set(data))
        # Cap candidates so the tail keeps >= min_tail points; *data* is
        # sorted, so tail sizes come from one binary-search sweep.
        ordered = np.asarray(data)
        tail_sizes = len(data) - np.searchsorted(ordered, np.asarray(distinct), side="left")
        x_min_candidates = [
            x for x, size in zip(distinct, tail_sizes.tolist()) if size >= min_tail
        ]
        if not x_min_candidates:
            x_min_candidates = [distinct[0]]
    best: Optional[PowerLawFit] = None
    for x_min in x_min_candidates:
        try:
            fit = fit_discrete_powerlaw(data, x_min=x_min)
        except ValueError:
            continue
        if best is None or fit.ks < best.ks:
            best = fit
    if best is None:
        raise ValueError("no x_min candidate produced a valid fit")
    return best


def hill_estimator(samples: Iterable[float], tail_fraction: float = 0.1) -> float:
    """Hill estimator of the tail exponent gamma.

    Uses the top *tail_fraction* of the sample.  Provided as an independent
    cross-check on the MLE; the two should agree within ~0.2 on genuine
    power-law tails.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    data = np.sort(np.asarray(list(samples), dtype=float))[::-1]
    k = max(2, int(len(data) * tail_fraction))
    if k >= len(data):
        k = len(data) - 1
    if k < 2:
        raise ValueError("sample too small for Hill estimation")
    top = data[:k]
    threshold = data[k]
    if threshold <= 0:
        raise ValueError("Hill estimator needs positive threshold")
    hill = np.mean(np.log(top / threshold))
    if hill <= 0:
        raise ValueError("degenerate tail: all top values equal the threshold")
    return 1.0 + 1.0 / float(hill)


def bootstrap_gamma(
    samples: Sequence[int],
    x_min: int,
    n_boot: int = 100,
    seed: NumpySeedLike = None,
) -> Tuple[float, float]:
    """Bootstrap mean and standard deviation of the fitted gamma."""
    rng = make_numpy_rng(seed)
    data = np.asarray(list(samples), dtype=int)
    gammas: List[float] = []
    for _ in range(n_boot):
        resample = rng.choice(data, size=data.size, replace=True)
        try:
            gammas.append(fit_discrete_powerlaw(resample, x_min=x_min).gamma)
        except ValueError:
            continue
    if not gammas:
        raise ValueError("no bootstrap replicate produced a valid fit")
    arr = np.asarray(gammas)
    return float(arr.mean()), float(arr.std(ddof=1) if arr.size > 1 else 0.0)


def powerlaw_plausibility(
    samples: Sequence[int],
    fit: Optional[PowerLawFit] = None,
    n_boot: int = 100,
    seed: NumpySeedLike = None,
) -> float:
    """CSN goodness-of-fit p-value via semiparametric bootstrap.

    Generates *n_boot* synthetic datasets from the fitted model (body
    resampled from the empirical below-x_min data, tail drawn from the
    fitted power law), refits each with the same automatic-x_min procedure,
    and reports the fraction whose KS distance exceeds the data's — the
    probability of seeing a fit this bad *if the model were true*.
    Clauset–Shalizi–Newman's rule of thumb: reject the power law when
    p < 0.1.
    """
    data = np.asarray([int(s) for s in samples if s >= 1], dtype=int)
    if data.size < 10:
        raise ValueError("plausibility needs at least 10 positive samples")
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    if fit is None:
        fit = fit_powerlaw_auto_xmin(data, min_tail=min(50, data.size // 2))
    rng = make_numpy_rng(seed)
    body = data[data < fit.x_min]
    tail_size = int(np.sum(data >= fit.x_min))
    tail_probability = tail_size / data.size
    worse = 0
    usable = 0
    for _ in range(n_boot):
        in_tail = rng.random(data.size) < tail_probability
        n_tail = int(in_tail.sum())
        n_body = data.size - n_tail
        parts = []
        if n_body > 0:
            if body.size > 0:
                parts.append(rng.choice(body, size=n_body, replace=True))
            else:
                n_tail += n_body  # no body data: everything is tail
        if n_tail > 0:
            parts.append(
                np.asarray(
                    sample_discrete_powerlaw(
                        fit.gamma, n_tail, x_min=fit.x_min,
                        seed=int(rng.integers(0, 2**62)),
                    )
                )
            )
        synthetic = np.concatenate(parts) if parts else np.array([], dtype=int)
        try:
            synthetic_fit = fit_powerlaw_auto_xmin(
                synthetic, min_tail=min(50, synthetic.size // 2)
            )
        except ValueError:
            continue
        usable += 1
        if synthetic_fit.ks >= fit.ks:
            worse += 1
    if usable == 0:
        raise ValueError("no bootstrap replicate was fittable")
    return worse / usable


def sample_discrete_powerlaw(
    gamma: float,
    size: int,
    x_min: int = 1,
    x_max: Optional[int] = None,
    seed: NumpySeedLike = None,
) -> List[int]:
    """Draw *size* integers from a (truncated) discrete power law.

    Used by structural generators (PLRG, Inet) to prescribe degree
    sequences, and by tests as ground truth for the fitters.  Inverse-CDF
    sampling over the exact discrete distribution.
    """
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1 for a normalizable power law")
    if x_min < 1:
        raise ValueError("x_min must be >= 1")
    if x_max is not None and x_max < x_min:
        raise ValueError(f"x_max={x_max} is below x_min={x_min}")
    rng = make_numpy_rng(seed)
    upper = x_max if x_max is not None else x_min * 10_000
    ks = np.arange(x_min, upper + 1, dtype=float)
    pmf = ks ** -gamma
    pmf /= pmf.sum()
    cdf = np.cumsum(pmf)
    u = rng.random(size)
    idx = np.searchsorted(cdf, u, side="left")
    idx = np.clip(idx, 0, ks.size - 1)
    return [int(x_min + i) for i in idx]
