"""Experiment T5: the robustness & redundancy ranking table.

The acceptance bar: ``repro experiment t5`` emits a ranking table covering
all 12 registry models, and the harness threads every battery knob
(jobs, cache) like T1 does.
"""

import math

import pytest

from repro.cli import main
from repro.experiments import ROSTER_ORDER, run_t5
from repro.experiments.t5_robustness import ROBUSTNESS_FIELDS

SMALL = dict(n=250, seeds=1)


@pytest.fixture(scope="module")
def full_roster_result():
    return run_t5(**SMALL)


class TestT5:
    def test_ranking_covers_all_twelve_models(self, full_roster_result):
        headers, rows = full_roster_result.tables[
            "T5 ranking (closest to reference first)"
        ]
        assert headers == ["model", "score"]
        assert len(rows) == len(ROSTER_ORDER) == 12
        assert {row[0] for row in rows} == set(ROSTER_ORDER)
        scores = [row[1] for row in rows]
        assert all(not math.isnan(s) for s in scores)
        assert scores == sorted(scores)  # best (lowest divergence) first

    def test_battery_table_has_reference_row_and_all_fields(self, full_roster_result):
        headers, rows = full_roster_result.tables[
            "robustness battery (seed-averaged, vs reference)"
        ]
        assert headers == ["model"] + list(ROBUSTNESS_FIELDS) + ["score"]
        assert rows[0][0] == "reference"
        assert rows[0][-1] == 0.0
        assert len(rows) == 13

    def test_notes_carry_ranks_and_telemetry(self, full_roster_result):
        notes = full_roster_result.notes
        ranks = [key for key in notes if key.startswith("rank_")]
        assert len(ranks) == 12
        assert notes["battery_failures"] == 0
        for key in ROBUSTNESS_FIELDS:
            assert f"reference_{key}" in notes

    def test_heavy_tail_asymmetry_measured(self, full_roster_result):
        # The headline physics: BA survives random failure far better than
        # targeted attack, at any size.
        headers, rows = full_roster_result.tables[
            "robustness battery (seed-averaged, vs reference)"
        ]
        by_name = {row[0]: dict(zip(headers[1:], row[1:])) for row in rows}
        ba = by_name["barabasi-albert"]
        assert ba["random_survival"] > ba["attack_survival"]

    def test_model_subset_via_comma_string(self):
        result = run_t5(models="erdos-renyi,barabasi-albert", **SMALL)
        headers, rows = result.tables["T5 ranking (closest to reference first)"]
        assert {row[0] for row in rows} == {"erdos-renyi", "barabasi-albert"}

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            run_t5(models="no-such-model", **SMALL)

    def test_cache_resume_bit_identical(self, tmp_path):
        cache = tmp_path / "cells"
        kwargs = dict(models="barabasi-albert,erdos-renyi", cache_dir=str(cache))
        cold = run_t5(**SMALL, **kwargs)
        assert cold.notes["cache_misses"] == 2
        warm = run_t5(**SMALL, **kwargs)
        assert warm.notes["cache_misses"] == 0
        assert warm.notes["cache_hits"] == 2
        _, cold_rows = cold.tables["robustness battery (seed-averaged, vs reference)"]
        _, warm_rows = warm.tables["robustness battery (seed-averaged, vs reference)"]
        for a, b in zip(cold_rows, warm_rows):
            assert a[0] == b[0]
            for x, y in zip(a[1:], b[1:]):
                if isinstance(x, float) and math.isnan(x):
                    assert math.isnan(y)
                else:
                    assert x == y

    def test_jobs_parity(self):
        serial = run_t5(models="barabasi-albert", **SMALL)
        parallel = run_t5(models="barabasi-albert", jobs=2, **SMALL)
        _, s_rows = serial.tables["T5 ranking (closest to reference first)"]
        _, p_rows = parallel.tables["T5 ranking (closest to reference first)"]
        assert s_rows == p_rows


class TestT5Cli:
    def test_experiment_t5_emits_ranking(self, capsys):
        code = main([
            "experiment", "t5",
            "--param", "n=250", "--param", "seeds=1",
            "--param", "models=barabasi-albert,erdos-renyi",
            "--jobs", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "T5 ranking (closest to reference first)" in out
        assert "barabasi-albert" in out and "erdos-renyi" in out
        assert "robustness battery" in out
