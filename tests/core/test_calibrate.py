"""Tests for grid calibration."""

import pytest

from repro.core import grid_calibrate, summarize
from repro.generators import BarabasiAlbertGenerator, ErdosRenyiGnm

from .test_parallel_battery import PARALLEL_JOBS


class BrokenAtThreeGenerator(BarabasiAlbertGenerator):
    """BA that raises a ``ZeroDivisionError`` (not a ``ValueError``) at
    m=3; module-level so it pickles to workers."""

    def generate(self, n, seed=None):
        if self.m == 3:
            raise ZeroDivisionError("injected failure at m=3")
        return super().generate(n, seed=seed)


class TestGridCalibrate:
    def test_recovers_edge_density(self):
        # Target: an ER graph with 400 edges; the grid should prefer m=400.
        target = summarize(ErdosRenyiGnm(m=400).generate(200, seed=1), min_tail=50)
        result = grid_calibrate(
            lambda m: ErdosRenyiGnm(m=m),
            {"m": [100, 400, 1200]},
            target,
            n=200,
            seeds=2,
        )
        assert result.best_params == {"m": 400}

    def test_trials_cover_grid(self):
        target = summarize(BarabasiAlbertGenerator(m=2).generate(150, seed=2))
        result = grid_calibrate(
            lambda m: BarabasiAlbertGenerator(m=m),
            {"m": [1, 2, 3]},
            target,
            n=150,
            seeds=1,
        )
        assert len(result.trials) == 3
        assert result.best_score <= min(score for _, score in result.trials) + 1e-12

    def test_top_ranked(self):
        target = summarize(BarabasiAlbertGenerator(m=2).generate(150, seed=3))
        result = grid_calibrate(
            lambda m: BarabasiAlbertGenerator(m=m),
            {"m": [1, 2, 4]},
            target,
            n=150,
            seeds=1,
        )
        top = result.top(2)
        assert len(top) == 2
        assert top[0][1] <= top[1][1]

    def test_invalid_points_skipped(self):
        target = summarize(BarabasiAlbertGenerator(m=2).generate(150, seed=4))
        result = grid_calibrate(
            lambda m: BarabasiAlbertGenerator(m=m),
            {"m": [0, 2]},  # m=0 raises ValueError inside the factory
            target,
            n=150,
            seeds=1,
        )
        assert len(result.trials) == 1

    def test_all_failing_grid_raises(self):
        target = summarize(BarabasiAlbertGenerator(m=2).generate(150, seed=5))
        with pytest.raises(ValueError):
            grid_calibrate(
                lambda m: BarabasiAlbertGenerator(m=m),
                {"m": [0, -1]},
                target,
                n=150,
            )

    def test_empty_grid_rejected(self):
        target = summarize(BarabasiAlbertGenerator(m=2).generate(150, seed=6))
        with pytest.raises(ValueError):
            grid_calibrate(lambda: None, {}, target, n=150)


class TestContainment:
    @pytest.mark.parametrize("jobs", [1, PARALLEL_JOBS])
    def test_raising_point_costs_only_itself(self, jobs):
        target = summarize(BarabasiAlbertGenerator(m=2).generate(150, seed=7))
        kept = grid_calibrate(
            BrokenAtThreeGenerator, {"m": [1, 2]}, target, n=150, seeds=2
        )
        result = grid_calibrate(
            BrokenAtThreeGenerator, {"m": [1, 2, 3]}, target, n=150, seeds=2,
            jobs=jobs,
        )
        assert result.trials == kept.trials
        assert result.best_params == {"m": 2}

    def test_failing_units_name_their_error(self):
        target = summarize(BarabasiAlbertGenerator(m=2).generate(150, seed=7))
        with pytest.raises(ValueError, match="injected failure at m=3"):
            grid_calibrate(BrokenAtThreeGenerator, {"m": [3]}, target, n=150)

    def test_lambda_factory_runs_in_parallel(self):
        target = summarize(BarabasiAlbertGenerator(m=2).generate(150, seed=8))
        grid = {"m": [1, 2, 3]}
        serial = grid_calibrate(
            lambda m: BarabasiAlbertGenerator(m=m), grid, target, n=150, seeds=2
        )
        parallel = grid_calibrate(
            lambda m: BarabasiAlbertGenerator(m=m), grid, target, n=150, seeds=2,
            jobs=PARALLEL_JOBS,
        )
        assert parallel.trials == serial.trials
        assert parallel.best_params == serial.best_params
