"""Smoke tests for every experiment harness at miniature scale.

The benchmarks run the experiments at paper scale and assert the full
expected shapes; these tests only verify that each harness executes,
produces its declared tables/series/notes, and respects its parameters —
fast enough for the unit suite.
"""

import math

import pytest

from repro.experiments import (
    run_f1,
    run_f2,
    run_f3,
    run_f4,
    run_f5,
    run_f6,
    run_f7,
    run_f8,
    run_f9,
    run_t1,
    run_t2,
    run_t3,
    run_t4,
)

SMALL_MODELS = ["barabasi-albert", "glp", "serrano"]


class TestF1:
    def test_runs_and_fits(self):
        result = run_f1()
        assert result.experiment_id == "F1"
        assert abs(result.notes["alpha"] - 0.036) < 0.005
        assert len(result.series) == 3

    def test_custom_config(self):
        from repro.datasets import TimelineConfig

        result = run_f1(TimelineConfig(months=24, noise_sigma=0.0))
        assert result.notes["alpha"] == pytest.approx(0.036, abs=1e-9)


class TestF2:
    def test_tables_and_series(self):
        result = run_f2(n=300, seed=1, models=SMALL_MODELS)
        assert "fitted degree exponents" in result.tables
        # reference + 3 models
        assert len(result.series) == 4
        headers, rows = result.tables["fitted degree exponents"]
        assert len(rows) == 4


class TestT1:
    def test_ranking_complete(self):
        result = run_t1(n=300, seeds=1, models=SMALL_MODELS)
        headers, ranking = result.tables["ranking (best first)"]
        assert len(ranking) == 3
        scores = [score for _, score in ranking]
        assert scores == sorted(scores)

    def test_reference_row_first(self):
        result = run_t1(n=300, seeds=1, models=["glp"])
        headers, rows = result.tables[
            "model comparison (last-seed metrics, seed-averaged score)"
        ]
        assert rows[0][0] == "reference"
        assert rows[0][-2] == 0.0


class TestSpectraExperiments:
    def test_f3(self):
        result = run_f3(n=300, seed=2, models=["barabasi-albert", "serrano"])
        assert "reference_decay_slope" in result.notes
        assert len(result.series) == 3

    def test_f4(self):
        result = run_f4(n=300, seed=3, models=["serrano", "serrano-distance"])
        assert "distance_disassortativity_shift" in result.notes

    def test_f5(self):
        result = run_f5(n=300, pivots=50, seed=4, models=["erdos-renyi", "serrano"])
        assert "serrano_vs_er_spread_ratio" in result.notes

    def test_f6(self):
        result = run_f6(n=300, seed=5, models=["barabasi-albert", "serrano-distance"])
        assert result.notes["ba_coreness"] == 2.0

    def test_f7(self):
        result = run_f7(n=300, seed=6, models=["barabasi-albert", "pfp"])
        assert "pfp_minus_ba_rho" in result.notes
        # Clubs of a few hubs read exactly 1 in any model; the table
        # averages over clubs large enough to tell models apart.
        _, rows = result.tables["top-decile normalized rich club"]
        assert [row[0] for row in rows] == ["reference", "barabasi-albert", "pfp"]
        assert all(math.isfinite(row[1]) and row[1] != 1.0 for row in rows)

    def test_f8(self):
        result = run_f8(n=300, max_sources=80, seed=7, models=["waxman", "serrano"])
        assert result.notes["reference_mean_path"] > 1.0
        assert result.notes["waxman_vs_reference_path_ratio"] > 0.8


class TestF9:
    def test_scaling_fit(self):
        result = run_f9(n=500, seed=8)
        assert 0.5 < result.notes["mu_fitted"] <= 1.1
        assert result.notes["mu_predicted"] == pytest.approx(0.75)

    def test_custom_generator(self):
        from repro.generators import SerranoGenerator

        gen = SerranoGenerator(alpha=0.04, beta=0.03, delta_prime=0.05)
        result = run_f9(n=300, seed=9, generator=gen)
        assert result.notes["mu_predicted"] == pytest.approx(0.6)


class TestT2:
    def test_exponents_ordered(self):
        result = run_t2(sizes=(150, 300, 600), seeds=1, include_distance=False)
        assert result.notes["xi_3_without"] < result.notes["xi_4_without"]
        headers, rows = result.tables["cycle scaling exponents"]
        assert rows[0][0].startswith("Internet")

    def test_distance_arm_included(self):
        result = run_t2(sizes=(150, 300), seeds=1, include_distance=True)
        assert "xi_3_with" in result.notes


class TestT3:
    def test_market_tables(self):
        result = run_t3(n=250, num_flows=200, seed=9, models=["glp"])
        assert "market summary" in result.tables
        assert "serrano: per-tier books" in result.tables
        assert "serrano_hhi" in result.notes


class TestT4:
    def test_ablation_rows(self):
        result = run_t4(n=300, seeds=1)
        headers, rows = result.tables["distance ablation (seed means)"]
        metrics = [row[0] for row in rows]
        assert "assortativity" in metrics
        assert "gamma_shift" in result.notes
