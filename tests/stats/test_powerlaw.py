"""Tests for repro.stats.powerlaw — fitters recover known exponents."""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.stats import powerlaw
from repro.stats.powerlaw import (
    bootstrap_gamma,
    fit_discrete_powerlaw,
    fit_powerlaw_auto_xmin,
    hill_estimator,
    sample_discrete_powerlaw,
)

from . import zeta_oracle


class TestSampling:
    def test_respects_x_min(self):
        samples = sample_discrete_powerlaw(2.5, 1000, x_min=3, seed=1)
        assert min(samples) >= 3

    def test_respects_x_max(self):
        samples = sample_discrete_powerlaw(2.0, 1000, x_min=1, x_max=50, seed=2)
        assert max(samples) <= 50

    def test_size(self):
        assert len(sample_discrete_powerlaw(2.2, 257, seed=3)) == 257

    def test_seeded_reproducible(self):
        a = sample_discrete_powerlaw(2.2, 100, seed=4)
        b = sample_discrete_powerlaw(2.2, 100, seed=4)
        assert a == b

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            sample_discrete_powerlaw(0.9, 10)

    def test_bad_x_min_rejected(self):
        with pytest.raises(ValueError):
            sample_discrete_powerlaw(2.0, 10, x_min=0)

    def test_x_max_below_x_min_rejected(self):
        with pytest.raises(ValueError):
            sample_discrete_powerlaw(2.2, 5, x_min=5, x_max=3, seed=1)

    def test_heavier_tail_for_smaller_gamma(self):
        light = sample_discrete_powerlaw(3.5, 5000, seed=5)
        heavy = sample_discrete_powerlaw(1.8, 5000, seed=5)
        assert max(heavy) > max(light)


class TestFixedXminFit:
    @pytest.mark.parametrize("gamma", [1.8, 2.2, 2.8])
    def test_recovers_exponent(self, gamma):
        samples = sample_discrete_powerlaw(gamma, 20_000, x_min=1, seed=7)
        fit = fit_discrete_powerlaw(samples, x_min=2)
        assert fit.gamma == pytest.approx(gamma, abs=0.1)

    def test_sigma_shrinks_with_sample_size(self):
        small = fit_discrete_powerlaw(
            sample_discrete_powerlaw(2.2, 500, seed=8), x_min=1
        )
        large = fit_discrete_powerlaw(
            sample_discrete_powerlaw(2.2, 50_000, seed=8), x_min=1
        )
        assert large.sigma < small.sigma

    def test_ks_small_for_true_powerlaw(self):
        samples = sample_discrete_powerlaw(2.2, 20_000, x_min=1, seed=9)
        fit = fit_discrete_powerlaw(samples, x_min=1)
        assert fit.ks < 0.02

    def test_n_tail_counts_correctly(self):
        samples = [1, 1, 2, 3, 5, 8]
        fit = fit_discrete_powerlaw(samples, x_min=2)
        assert fit.n_tail == 4

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_discrete_powerlaw([5], x_min=1)

    def test_bad_x_min_rejected(self):
        with pytest.raises(ValueError):
            fit_discrete_powerlaw([1, 2, 3], x_min=0)

    def test_str_mentions_gamma(self):
        samples = sample_discrete_powerlaw(2.2, 1000, seed=10)
        assert "gamma=" in str(fit_discrete_powerlaw(samples, x_min=1))

    def test_optimum_beyond_the_initial_bracket(self):
        # The CSN approximation (6.83) sits 2.3 below this tail's optimum,
        # outside the search's starting bracket of +-0.8 around it.
        from scipy.optimize import minimize_scalar
        from scipy.special import zeta

        from repro.core.registry import make_generator
        from repro.graph.traversal import giant_component

        graph = giant_component(make_generator("watts-strogatz").generate(250, seed=1))
        degrees = list(graph.degrees().values())
        tail = np.asarray([d for d in degrees if d >= 4], dtype=float)
        log_sum = float(np.log(tail).sum())
        best = minimize_scalar(
            lambda g: tail.size * math.log(zeta(g, 4)) + g * log_sum,
            bounds=(1.05, 50.0),
            method="bounded",
            options={"xatol": 1e-9},
        )
        assert fit_discrete_powerlaw(degrees, x_min=4).gamma == pytest.approx(best.x, abs=1e-5)

    def test_concentrated_tail_underflow_raises_promptly(self):
        # Nearly every value sits on x_min, so the optimum gamma (~400) is
        # past where zeta(gamma, 50) underflows to zero: the sliding search
        # must reach the underflow and stop, not climb forever.
        start = time.perf_counter()
        with pytest.raises(ValueError):
            fit_discrete_powerlaw([50] * 5000 + [51, 52], x_min=50)
        assert time.perf_counter() - start < 5.0


class TestAutoXmin:
    def test_recovers_exponent_with_contaminated_head(self):
        # Power law body + a non-power-law bump at low values.
        samples = sample_discrete_powerlaw(2.3, 10_000, x_min=5, seed=11)
        samples += [1, 2, 2, 3, 3, 3] * 500
        fit = fit_powerlaw_auto_xmin(samples, min_tail=200)
        assert fit.gamma == pytest.approx(2.3, abs=0.2)
        assert fit.x_min >= 3

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            fit_powerlaw_auto_xmin([1, 2, 3], min_tail=50)

    def test_explicit_candidates(self):
        samples = sample_discrete_powerlaw(2.2, 5_000, seed=12)
        fit = fit_powerlaw_auto_xmin(samples, x_min_candidates=[1, 2], min_tail=50)
        assert fit.x_min in (1, 2)


class TestHill:
    def test_recovers_exponent(self):
        samples = sample_discrete_powerlaw(2.2, 50_000, x_min=1, seed=13)
        assert hill_estimator(samples, tail_fraction=0.05) == pytest.approx(2.2, abs=0.3)

    def test_agrees_with_mle(self):
        samples = sample_discrete_powerlaw(2.5, 30_000, x_min=1, seed=14)
        mle = fit_discrete_powerlaw(samples, x_min=3).gamma
        hill = hill_estimator(samples, tail_fraction=0.05)
        assert abs(mle - hill) < 0.35

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            hill_estimator([1, 2, 3], tail_fraction=0.0)

    def test_tiny_sample_rejected(self):
        with pytest.raises(ValueError):
            hill_estimator([1.0], tail_fraction=0.5)


class TestPlausibility:
    def test_true_powerlaw_plausible(self):
        from repro.stats.powerlaw import powerlaw_plausibility

        samples = sample_discrete_powerlaw(2.3, 600, x_min=1, seed=30)
        p = powerlaw_plausibility(samples, n_boot=15, seed=31)
        assert p >= 0.1  # CSN: do not reject

    def test_poisson_rejected(self):
        import numpy as np

        from repro.stats.powerlaw import powerlaw_plausibility

        rng = np.random.default_rng(32)
        samples = (rng.poisson(8, 600) + 1).tolist()
        # Constrain the fit to a substantial tail: letting x_min retreat to
        # the last few dozen points makes any distribution locally
        # power-law-ish (small-sample caveat CSN discuss).
        fit = fit_powerlaw_auto_xmin(samples, min_tail=200)
        p = powerlaw_plausibility(samples, fit=fit, n_boot=15, seed=33)
        assert p < 0.1  # CSN: reject the power law

    def test_reproducible(self):
        from repro.stats.powerlaw import powerlaw_plausibility

        samples = sample_discrete_powerlaw(2.2, 300, seed=34)
        a = powerlaw_plausibility(samples, n_boot=8, seed=35)
        b = powerlaw_plausibility(samples, n_boot=8, seed=35)
        assert a == b

    def test_validation(self):
        from repro.stats.powerlaw import powerlaw_plausibility

        with pytest.raises(ValueError):
            powerlaw_plausibility([1, 2, 3], n_boot=5)
        samples = sample_discrete_powerlaw(2.2, 300, seed=36)
        with pytest.raises(ValueError):
            powerlaw_plausibility(samples, n_boot=0)

    def test_accepts_precomputed_fit(self):
        from repro.stats.powerlaw import powerlaw_plausibility

        samples = sample_discrete_powerlaw(2.2, 400, seed=37)
        fit = fit_powerlaw_auto_xmin(samples, min_tail=50)
        p = powerlaw_plausibility(samples, fit=fit, n_boot=8, seed=38)
        assert 0.0 <= p <= 1.0


class TestBootstrap:
    def test_mean_near_point_estimate(self):
        samples = sample_discrete_powerlaw(2.2, 3_000, seed=15)
        point = fit_discrete_powerlaw(samples, x_min=2).gamma
        mean, std = bootstrap_gamma(samples, x_min=2, n_boot=30, seed=16)
        assert mean == pytest.approx(point, abs=3 * std + 0.05)

    def test_std_positive(self):
        samples = sample_discrete_powerlaw(2.2, 2_000, seed=17)
        _, std = bootstrap_gamma(samples, x_min=1, n_boot=20, seed=18)
        assert std > 0

    def test_reproducible(self):
        samples = sample_discrete_powerlaw(2.2, 1_000, seed=19)
        assert bootstrap_gamma(samples, 1, n_boot=10, seed=20) == bootstrap_gamma(
            samples, 1, n_boot=10, seed=20
        )


class TestConvexMinimum:
    @settings(max_examples=100, deadline=None)
    @given(
        minimum=st.floats(0.0, 5000.0),
        lo=st.floats(1.05, 50.0),
        width=st.floats(0.1, 2.0),
    )
    def test_slides_to_a_minimum_outside_the_bracket(self, minimum, lo, width):
        found = powerlaw._convex_minimum(
            lambda x: (x - minimum) ** 2, lo, lo + width, floor=1.05
        )
        assert found == pytest.approx(max(minimum, 1.05), abs=1e-6)


@st.composite
def degree_sequences(draw):
    """Power-law draws, sometimes under an extra non-power-law head."""
    samples = sample_discrete_powerlaw(
        draw(st.floats(1.5, 3.5)),
        draw(st.integers(60, 400)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return samples + draw(st.lists(st.integers(1, 8), max_size=150))


class TestClosedFormZeta:
    """scipy's Hurwitz zeta against the summed form it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(gamma=st.floats(1.05, 16.0), x=st.integers(1, 20_000))
    def test_zeta_matches_summed_form(self, gamma, x):
        expected = zeta_oracle._generalized_zeta(gamma, x)
        assert abs(powerlaw._generalized_zeta(gamma, x) - expected) <= 1e-11 * expected

    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.floats(1.05, 16.0),
        values=st.lists(st.integers(1, 20_000), min_size=1, max_size=40, unique=True),
        below=st.integers(0, 50),
    )
    def test_model_ccdf_matches_summed_form(self, gamma, values, below):
        values = np.asarray(sorted(values), dtype=float)
        x_min = max(1, int(values[0]) - below)
        expected = zeta_oracle._model_ccdf(gamma, x_min, values)
        actual = powerlaw._model_ccdf(gamma, x_min, values)
        assert np.all(np.abs(actual - expected) <= 1e-11 * expected)

    def test_gamma_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            powerlaw._generalized_zeta(1.0, 3)

    @settings(max_examples=50, deadline=None)
    @given(samples=degree_sequences(), min_tail=st.sampled_from([20, 50]))
    def test_fit_matches_summed_zeta(self, samples, min_tail):
        candidate_ks = []

        def recording_fit(samples, x_min=1):
            fit = fit_discrete_powerlaw(samples, x_min=x_min)
            candidate_ks.append(fit.ks)
            return fit

        def auto_fit():
            try:
                return powerlaw.fit_powerlaw_auto_xmin(samples, min_tail=min_tail)
            except ValueError:
                return None  # no candidate fits: both forms must agree

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(powerlaw, "fit_discrete_powerlaw", recording_fit)
            closed = auto_fit()
        # Two candidates within rounding of each other may swap places.
        ks = sorted(candidate_ks)
        assume(len(ks) < 2 or ks[1] - ks[0] > 1e-12)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(powerlaw, "_generalized_zeta", zeta_oracle._generalized_zeta)
            mp.setattr(powerlaw, "_model_ccdf", zeta_oracle._model_ccdf)
            summed = auto_fit()
            if closed is None:
                assert summed is None
                return
            # KS at the closed form's own gamma: the search resolves gamma
            # to 1e-6, and where rounding flips one of its comparisons
            # (about 1 fit in 100) gamma, and so KS, moves within that.
            summed_ks = powerlaw._ks_statistic(
                powerlaw._tail(samples, closed.x_min), closed.gamma, closed.x_min
            )
        assert summed.x_min == closed.x_min
        assert abs(summed_ks - closed.ks) <= 1e-12
        if abs(summed.gamma - closed.gamma) > 1e-6:
            # On a flat likelihood such a flip can move gamma past 1e-6;
            # both must still be optimal to within the likelihoods' own
            # difference, n_tail terms each off by at most 1e-11.
            tail = powerlaw._tail(samples, closed.x_min)
            log_sum = float(np.log(tail).sum())

            def neg_loglike(g):
                return tail.size * math.log(powerlaw._generalized_zeta(g, closed.x_min)) + g * log_sum

            gap = abs(neg_loglike(summed.gamma) - neg_loglike(closed.gamma))
            assert gap <= 1e-11 * tail.size
