"""Closed-form risk model: exact values, thresholds, samplers."""

import numpy as np
import pytest
from scipy import stats

from werm.analytic import (
    AnalyticModel,
    closed_form_threshold,
    excess_error,
    optimal_threshold,
    risk_curve,
    sample,
    sample_pu,
    true_risk,
)
from werm.core import (
    Dataset,
    LossSpec,
    SchemaError,
    ValidationError,
    per_record_losses,
)


class TestTrueRisk:
    def test_hand_value(self):
        m = AnalyticModel(1.0, 1.0, 0.3)
        assert true_risk(m, 0.7) == pytest.approx(0.210, abs=1e-12)

    def test_boundaries(self):
        m = AnalyticModel(2.0, 0.5, 0.3)
        assert true_risk(m, 0.0) == pytest.approx(1 - m.p)
        assert true_risk(m, 1.0) == pytest.approx(m.p)

    def test_domain(self):
        with pytest.raises(ValidationError):
            true_risk(AnalyticModel(1, 1, 0.5), 1.2)

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            AnalyticModel(-1.0, 0.0, 0.5)
        with pytest.raises(ValidationError):
            AnalyticModel(1.0, 1.0, 0.0)


class TestOptimalThreshold:
    def test_known_exact_values(self):
        # (1,1): 1-p; (2,2) and (1/2,1/2) by their radical forms
        assert optimal_threshold(AnalyticModel(1, 1, 0.3)) == pytest.approx(0.7, abs=1e-9)
        assert optimal_threshold(AnalyticModel(2, 2, 0.5)) == pytest.approx(0.5, abs=1e-9)
        assert optimal_threshold(AnalyticModel(0.5, 0.5, 0.5)) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("pair", [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)])
    def test_bisection_matches_closed_form(self, pair):
        for p in np.arange(0.1, 0.95, 0.1):
            m = AnalyticModel(pair[0], pair[1], float(p))
            assert optimal_threshold(m) == pytest.approx(
                closed_form_threshold(m), abs=1e-8
            )

    def test_uniform_case_picks_boundary_by_slope(self):
        assert optimal_threshold(AnalyticModel(0, 0, 0.3)) == 1.0
        assert optimal_threshold(AnalyticModel(0, 0, 0.7)) == 0.0

    def test_uniform_balanced_flags_non_unique(self):
        with pytest.warns(UserWarning, match="non-unique"):
            assert optimal_threshold(AnalyticModel(0, 0, 0.5)) == 0.5

    def test_minimizer_property_random_models(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            m = AnalyticModel(
                float(rng.uniform(0.05, 4.0)),
                float(rng.uniform(0.05, 4.0)),
                float(rng.uniform(0.05, 0.95)),
            )
            theta = optimal_threshold(m)
            base = true_risk(m, theta)
            for probe in (theta - 1e-4, theta + 1e-4):
                if 0.0 <= probe <= 1.0:
                    assert true_risk(m, probe) >= base - 1e-12


class TestExcessError:
    def test_hand_value(self):
        assert excess_error(AnalyticModel(1, 1, 0.3), 0.5) == pytest.approx(0.04, abs=1e-9)

    def test_zero_at_matching_prior(self):
        assert excess_error(AnalyticModel(2, 2, 0.4), 0.4) == 0.0

    @pytest.mark.filterwarnings("ignore:risk is constant")
    def test_uniform_balanced_is_flat(self):
        m = AnalyticModel(0, 0, 0.5)
        for pp in (0.1, 0.4, 0.9):
            assert excess_error(m, pp) == pytest.approx(0.0, abs=1e-12)

    def test_nondecreasing_away_from_p(self):
        m = AnalyticModel(1.0, 2.0, 0.4)
        right = [excess_error(m, pp) for pp in np.arange(0.4, 0.96, 0.05)]
        left = [excess_error(m, pp) for pp in np.arange(0.4, 0.04, -0.05)]
        for seq in (right, left):
            assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))


class TestSampler:
    def test_alpha_zero_gives_uniform_positives(self):
        m = AnalyticModel(0.0, 1.0, 0.5)
        data = sample(m, 50_000, 0.5, 3)
        x_pos = data.features[data.labels == 1, 0]
        stat = stats.kstest(x_pos, "uniform").statistic
        assert stat <= 1.63 / np.sqrt(x_pos.size)

    def test_positive_cdf_matches_power_law(self):
        m = AnalyticModel(1.5, 1.0, 0.5)
        data = sample(m, 100_000, 0.75, 4)
        x_pos = data.features[data.labels == 1, 0]
        stat = stats.kstest(x_pos, lambda v: v ** (1.0 + m.alpha)).statistic
        assert stat <= 1.63 / np.sqrt(x_pos.size)

    def test_negative_cdf_matches_power_law(self):
        m = AnalyticModel(1.0, 2.0, 0.5)
        data = sample(m, 100_000, 0.25, 5)
        x_neg = data.features[data.labels == 0, 0]
        stat = stats.kstest(x_neg, lambda v: 1 - (1 - v) ** (1.0 + m.beta)).statistic
        assert stat <= 1.63 / np.sqrt(x_neg.size)

    def test_deterministic_per_seed(self):
        m = AnalyticModel(1.0, 1.0, 0.5)
        a = sample(m, 100, 0.4, 12)
        b = sample(m, 100, 0.4, 12)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_label_rate(self):
        m = AnalyticModel(1.0, 1.0, 0.5)
        data = sample(m, 100_000, 0.3, 6)
        assert np.mean(data.labels == 1) == pytest.approx(0.3, abs=0.01)

    def test_pu_sampler_rates_and_mixture(self):
        m = AnalyticModel(1.0, 1.0, 0.4)
        data = sample_pu(m, 100_000, 0.25, 7)
        assert np.mean(data.labels == 1) == pytest.approx(0.25, abs=0.01)
        # unlabeled records follow the marginal p*F+ + (1-p)*F-
        x_unl = data.features[data.labels == 0, 0]
        cdf = lambda v: m.p * v**2 + (1 - m.p) * (1 - (1 - v) ** 2)
        assert stats.kstest(x_unl, cdf).statistic <= 1.63 / np.sqrt(x_unl.size)


# ---------------------------------------------------------------------------
# Each record's own inverse CDF: the same floats as both CDFs then np.where
# ---------------------------------------------------------------------------

EXPONENTS = [1.0 / 1.5, 1.0 / 2.0, 1.0 / 3.0]


@pytest.mark.parametrize("c", EXPONENTS)
def test_power_of_a_gathered_subset_equals_the_gathered_power(c):
    """u ** c on a gathered subset gives the floats of u ** c on the whole
    array, gathered: over sizes across SIMD widths, offsets into a larger
    buffer (so unaligned starts) and random masks."""
    rng = np.random.default_rng(3181)
    for n in list(range(1, 70)) + [127, 128, 129, 1000, 4097]:
        for offset in (0, 1, 3, 7):
            u = rng.random(n + offset)[offset:]
            whole = u**c
            for density in (0.1, 0.5, 0.9):
                mask = rng.random(n) < density
                assert (u[mask] ** c).tobytes() == whole[mask].tobytes(), (n, offset)
                assert (1.0 - u[~mask] ** c).tobytes() == (1.0 - whole)[~mask].tobytes()


def _where_sample(m, n, class_rate, seed):
    """analytic.sample as it stood: both inverse CDFs for every record."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < class_rate).astype(int)
    u = rng.random(n)
    return labels, np.where(labels == 1, u ** (1.0 / (1.0 + m.alpha)),
                            1.0 - u ** (1.0 / (1.0 + m.beta)))


def _where_sample_pu(m, n, q, seed):
    rng = np.random.default_rng(seed)
    labeled = rng.random(n) < q
    from_pos = rng.random(n) < m.p
    u = rng.random(n)
    return labeled.astype(int), np.where(labeled | from_pos, u ** (1.0 / (1.0 + m.alpha)),
                                         1.0 - u ** (1.0 / (1.0 + m.beta)))


@pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (1.0, 2.0), (2.0, 0.0)])
def test_samplers_equal_both_cdfs_then_where(alpha, beta):
    m = AnalyticModel(alpha, beta, 0.3)
    for n in list(range(1, 40)) + [64, 65, 2000, 2001]:
        for rate in (0.05, 0.6):
            for draw, where in ((sample, _where_sample), (sample_pu, _where_sample_pu)):
                data = draw(m, n, rate, [n, 17])
                labels, x = where(m, n, rate, [n, 17])
                assert data.labels.tobytes() == labels.tobytes()
                assert data.features[:, 0].tobytes() == x.tobytes(), (draw.__name__, n)


class TestThresholdLoss:
    """The threshold-sign loss of the rule "predict positive iff x >= theta"."""

    LOSS = LossSpec("threshold-sign")

    def losses(self, xs, ys, theta=0.5):
        data = Dataset(features=np.array(xs, float)[:, None], labels=ys, n_classes=2)
        return per_record_losses(data, self.LOSS, theta)

    def test_boundary_convention(self):
        # a record at x == theta is predicted positive
        np.testing.assert_array_equal(self.losses([0.5, 0.5], [0, 1]), [1.0, 0.0])

    def test_schema_checks(self):
        with pytest.raises(SchemaError):
            per_record_losses(
                Dataset(features=np.array([[0.1, 0.2]]), labels=[1]), self.LOSS, 0.5
            )
        with pytest.raises(SchemaError):
            per_record_losses(Dataset(features=np.array([[0.1]])), self.LOSS, 0.5)

    def test_population_mean_matches_risk(self):
        """MC check that the risk-oriented loss estimates true_risk."""
        m = AnalyticModel(1.0, 2.0, 0.35)
        data = sample(m, 200_000, m.p, 10)
        est = per_record_losses(data, LossSpec("threshold-sign"), 0.4).mean()
        assert est == pytest.approx(true_risk(m, 0.4), abs=0.005)


class TestFiniteSampleConsistency:
    def test_weighted_erm_lands_near_optimum(self):
        """Minimizing the ideally weighted empirical risk over a 1e-3 grid
        with n = 1e5 biased samples lands within 0.02 of the true optimum
        in at least 18 of 20 seeded replicates."""
        m = AnalyticModel(1.0, 1.0, 0.3)
        p_train, n = 0.6, 100_000
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        theta_star = optimal_threshold(m)
        w_pos, w_neg = m.p / p_train, (1 - m.p) / (1 - p_train)
        hits = 0
        for rep in range(20):
            data = sample(m, n, p_train, [31415, rep])
            x = data.features[:, 0]
            pos = data.labels == 1
            xs_pos = np.sort(x[pos])
            xs_neg = np.sort(x[~pos])
            risk = (
                w_pos * np.searchsorted(xs_pos, grid, side="left")
                + w_neg * (xs_neg.size - np.searchsorted(xs_neg, grid, side="left"))
            ) / n
            # spot-check the vectorized sweep against the library evaluation
            if rep == 0:
                from werm.core import WeightVector, weighted_empirical_risk

                w = WeightVector(np.where(pos, w_pos, w_neg))
                for t in grid[:: len(grid) // 10]:
                    direct = weighted_empirical_risk(
                        data, w, LossSpec("threshold-sign"), float(t)
                    )
                    sweep = risk[np.searchsorted(grid, t)]
                    assert sweep == pytest.approx(direct, abs=1e-10)
            hits += abs(grid[np.argmin(risk)] - theta_star) <= 0.02
        assert hits >= 18


def test_risk_curve_shapes():
    thetas, risks = risk_curve(AnalyticModel(1, 1, 0.3), n_points=11)
    assert thetas.shape == risks.shape == (11,)
    assert risks[0] == pytest.approx(0.7) and risks[-1] == pytest.approx(0.3)
