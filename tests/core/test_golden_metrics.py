"""Golden metric values, one entry per ``METRICS_VERSION``.

Battery cache keys embed :data:`repro.core.metrics.METRICS_VERSION`, so a
metric value that moves without a version bump lets cells cached by the
old code pass as current.  ``golden_metrics.json`` maps each version to
the exact values of a fixed corpus (version → cell → group → metric →
value; floats as ``float.hex()``, NaN as ``"nan"``, ints as ints):

* every registry model with default parameters at (n, seed) in
  :data:`MODEL_CELLS`, each running all of ``METRIC_GROUPS`` — the n=250
  cells also run ``robustness``;
* ``fit_powerlaw_auto_xmin`` on fixed degree sequences (:data:`TAIL_ROWS`):
  seeded power-law draws, a power law under a non-power-law head, and a
  Poisson sequence with no power-law tail.

Only the current version's entry is asserted.  When a change moves a value
on purpose, bump ``METRICS_VERSION`` and record a new entry::

    PYTHONPATH=src python -m tests.core.test_golden_metrics > golden.json \
        && mv golden.json tests/core/golden_metrics.json

Never edit an existing version's entry.
"""

import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.battery import SUMMARIZE_DEFAULTS
from repro.core.metrics import METRIC_GROUPS, METRICS_VERSION, compute_metric_groups
from repro.core.registry import available_models, make_generator
from repro.stats.powerlaw import fit_powerlaw_auto_xmin, sample_discrete_powerlaw

GOLDEN_PATH = Path(__file__).with_name("golden_metrics.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: (n, seed) of every registry-model cell.
MODEL_CELLS = ((250, 0), (250, 1), (600, 0), (600, 1), (2000, 0))

#: The opt-in ``robustness`` group runs on cells of this size only.
ROBUSTNESS_N = 250


def _contaminated_head():
    # A power-law body under a non-power-law bump at low values.
    return sample_discrete_powerlaw(2.3, 10_000, x_min=5, seed=11) + [1, 2, 2, 3, 3, 3] * 500


def _poisson():
    return (np.random.default_rng(32).poisson(8, 600) + 1).tolist()


#: Tail-only rows: name → (function returning the degree sequence, min_tail).
TAIL_ROWS = {
    **{
        f"powerlaw/{gamma}/{size}": (
            lambda gamma=gamma, size=size: sample_discrete_powerlaw(gamma, size, seed=size),
            50,
        )
        for gamma in (1.6, 2.2, 3.0)
        for size in (300, 3000)
    },
    "contaminated-head": (_contaminated_head, 200),
    "poisson": (_poisson, 50),
}

MODEL_CELL_NAMES = [
    f"{model}/{n}/{seed}" for model in available_models() for n, seed in MODEL_CELLS
]
CELL_NAMES = MODEL_CELL_NAMES + [f"tail/{name}" for name in TAIL_ROWS]


def _encode(value):
    """A metric value in its exact, JSON-safe golden form."""
    if isinstance(value, numbers.Integral):
        return int(value)
    value = float(value)
    return "nan" if math.isnan(value) else value.hex()


def compute_cell(cell):
    """group → metric → encoded value for one corpus cell."""
    kind, _, rest = cell.partition("/")
    if kind == "tail":
        build, min_tail = TAIL_ROWS[rest]
        fit = fit_powerlaw_auto_xmin(build(), min_tail=min_tail)
        values = {
            "fit": {
                "gamma": fit.gamma,
                "x_min": fit.x_min,
                "n_tail": fit.n_tail,
                "sigma": fit.sigma,
            }
        }
    else:
        model, n, seed = cell.split("/")
        n, seed = int(n), int(seed)
        groups = tuple(METRIC_GROUPS) + (("robustness",) if n == ROBUSTNESS_N else ())
        graph = make_generator(model).generate(n, seed=seed)
        values = compute_metric_groups(graph, groups, seed=seed, **SUMMARIZE_DEFAULTS)
    return {
        group: {metric: _encode(v) for metric, v in metrics.items()}
        for group, metrics in values.items()
    }


_BUMP = (
    "a metric value moved: bump METRICS_VERSION in repro/core/metrics.py and "
    "record a new entry (`PYTHONPATH=src python -m tests.core.test_golden_metrics`); "
    "never edit an existing version's entry"
)


def test_current_version_has_an_entry():
    assert METRICS_VERSION in GOLDEN, (
        f"golden_metrics.json has no entry for METRICS_VERSION={METRICS_VERSION!r} "
        f"(versions: {sorted(GOLDEN)}); record one "
        "(`PYTHONPATH=src python -m tests.core.test_golden_metrics`)"
    )
    assert sorted(GOLDEN[METRICS_VERSION]) == sorted(CELL_NAMES)


@pytest.mark.parametrize("cell", CELL_NAMES)
def test_cell_matches_golden(cell):
    expected = GOLDEN.get(METRICS_VERSION, {}).get(cell)
    assert expected is not None, (
        f"no golden values for {cell} under METRICS_VERSION={METRICS_VERSION!r}"
    )
    actual = compute_cell(cell)
    mismatches = [
        f"{cell} / {group} / {metric}: golden {value!r}, now "
        f"{actual.get(group, {}).get(metric, '<missing>')!r}"
        for group, metrics in expected.items()
        for metric, value in metrics.items()
        if actual.get(group, {}).get(metric) != value
    ]
    mismatches += [
        f"{cell} / {group} / {metric}: not in the golden entry"
        for group, metrics in actual.items()
        for metric in metrics
        if metric not in expected.get(group, {})
    ]
    assert not mismatches, (
        f"METRICS_VERSION={METRICS_VERSION!r}: " + "; ".join(mismatches) + f". {_BUMP}"
    )


def _dump(golden):
    """The golden file's layout: versions in order, one line per group."""
    lines = ["{"]
    for v, version in enumerate(golden):
        lines.append(f" {json.dumps(version)}: {{")
        cells = golden[version]
        for c, cell in enumerate(sorted(cells)):
            lines.append(f"  {json.dumps(cell)}: {{")
            groups = cells[cell]
            for g, group in enumerate(sorted(groups)):
                body = json.dumps(groups[group], sort_keys=True)
                lines.append(f"   {json.dumps(group)}: {body}" + ("," if g < len(groups) - 1 else ""))
            lines.append("  }" + ("," if c < len(cells) - 1 else ""))
        lines.append(" }" + ("," if v < len(golden) - 1 else ""))
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    # Print the golden file with an entry for the current METRICS_VERSION
    # added; an existing entry is never recomputed.
    if METRICS_VERSION in GOLDEN:
        sys.exit(
            f"METRICS_VERSION={METRICS_VERSION!r} already has an entry; "
            "bump METRICS_VERSION to record new values"
        )
    GOLDEN[METRICS_VERSION] = {cell: compute_cell(cell) for cell in CELL_NAMES}
    print(_dump(GOLDEN))
