"""Power-law bias target distributions and the stratified subsampler."""

import bisect

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from werm.biasgen import (
    BiasSpec,
    apply_bias,
    power_law_distribution,
    resolve_permutation,
    subsample_to_distribution,
    total_variation,
)
from werm.core import Dataset, EmptyStratumError, ValidationError


def strata_dataset(strata, seed=0):
    strata = np.asarray(strata)
    rng = np.random.default_rng(seed)
    return Dataset(
        features=rng.random((strata.size, 1)),
        labels=rng.integers(0, 2, strata.size),
        strata=strata,
        n_classes=2,
    )


def main_text_distribution(gamma, pk):
    """The main-text exponent form 1 - floor(K/2)/sigma(k), identity sigma."""
    pk = np.asarray(pk, dtype=float)
    sigma = np.arange(1, pk.size + 1)
    scaled = pk * gamma ** (1.0 - (pk.size // 2) / sigma)
    return scaled / scaled.sum()


class TestPowerLaw:
    def test_gamma_one_is_identity(self):
        pk = (0.2, 0.5, 0.3)
        spec = BiasSpec(gamma=1.0, target_pk=pk)
        np.testing.assert_array_equal(power_law_distribution(spec, 3), pk)

    def test_k3_uniform_half_gamma(self):
        # multipliers 2, sqrt(2), cbrt(2) on a uniform base, renormalized
        spec = BiasSpec(gamma=0.5, target_pk=(1 / 3, 1 / 3, 1 / 3))
        p_prime = power_law_distribution(spec, 3)
        mult = np.array([2.0, 2.0**0.5, 2.0 ** (1.0 / 3.0)])
        np.testing.assert_allclose(p_prime, mult / mult.sum(), atol=1e-12)
        np.testing.assert_allclose(p_prime, [0.427887, 0.302562, 0.269552], atol=1e-6)

    def test_single_stratum(self):
        spec = BiasSpec(gamma=0.3, target_pk=(1.0,))
        np.testing.assert_allclose(power_law_distribution(spec, 1), [1.0])

    def test_main_text_style_also_identity_at_gamma_one(self):
        pk = (0.25, 0.75)
        np.testing.assert_array_equal(main_text_distribution(1.0, pk), pk)
        np.testing.assert_array_equal(
            power_law_distribution(BiasSpec(gamma=1.0, target_pk=pk), 2), pk
        )

    def test_exponent_styles_agree_after_normalization(self):
        # the two printed exponent forms differ by a single global factor of
        # gamma, which renormalization removes
        pk = (0.1, 0.2, 0.3, 0.4)
        a = power_law_distribution(BiasSpec(gamma=0.4, target_pk=pk), 4)
        np.testing.assert_allclose(a, main_text_distribution(0.4, pk), atol=1e-14)
        assert abs(a.sum() - 1.0) < 1e-12

    def test_gamma_validation(self):
        with pytest.raises(ValidationError):
            BiasSpec(gamma=0.0)
        with pytest.raises(ValidationError):
            BiasSpec(gamma=-0.5)
        with pytest.raises(ValidationError):
            BiasSpec(gamma=1.5)

    def test_permutation_resolution(self):
        spec = BiasSpec(gamma=0.5, permutation="random", perm_seed=3)
        sigma = resolve_permutation(spec, 5)
        assert sorted(sigma) == [1, 2, 3, 4, 5]
        np.testing.assert_array_equal(sigma, resolve_permutation(spec, 5))
        explicit = BiasSpec(gamma=0.5, permutation=(2, 1, 3))
        np.testing.assert_array_equal(resolve_permutation(explicit, 3), [2, 1, 3])
        with pytest.raises(ValidationError):
            resolve_permutation(BiasSpec(gamma=0.5, permutation=(1, 1, 2)), 3)

    def test_permutation_reorders_skew(self):
        pk = (0.25, 0.25, 0.25, 0.25)
        ident = power_law_distribution(BiasSpec(gamma=0.3, target_pk=pk), 4)
        swapped = power_law_distribution(
            BiasSpec(gamma=0.3, target_pk=pk, permutation=(4, 3, 2, 1)), 4
        )
        np.testing.assert_allclose(ident, swapped[::-1])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_always_a_distribution(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 8))
        pk = rng.random(K) + 0.05
        pk = pk / pk.sum()
        gamma = float(rng.uniform(0.05, 1.0))
        p_prime = power_law_distribution(
            BiasSpec(gamma=gamma, target_pk=tuple(pk)), K
        )
        assert p_prime.min() >= 0
        assert abs(p_prime.sum() - 1.0) <= 1e-12

    def test_tv_monotone_in_gamma(self):
        pk = np.full(5, 0.2)
        gammas = np.arange(0.05, 1.0001, 0.05)
        tvs = [
            total_variation(pk, power_law_distribution(BiasSpec(gamma=float(g), target_pk=tuple(pk)), 5))
            for g in gammas
        ]
        assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))
        assert tvs[-1] == 0.0


class TestSubsample:
    def test_output_frequencies_near_target(self):
        rng = np.random.default_rng(1)
        strata = rng.integers(0, 3, 30_000)
        data = strata_dataset(strata)
        counts = np.bincount(strata)
        p_emp = counts / counts.sum()
        out = subsample_to_distribution(data, p_emp, seed=2, max_size=8000)
        m = out.n
        freq = out.stratum_counts() / m
        for k in range(3):
            ci = 3 * np.sqrt(p_emp[k] * (1 - p_emp[k]) / m)
            assert abs(freq[k] - p_emp[k]) <= ci

    def test_single_stratum_is_shuffled_copy(self):
        data = strata_dataset(np.zeros(200, dtype=int))
        out = subsample_to_distribution(data, [1.0], seed=3)
        assert out.n == data.n
        assert not np.array_equal(out.features[:, 0], data.features[:, 0])
        np.testing.assert_array_equal(
            np.sort(out.features[:, 0]), np.sort(data.features[:, 0])
        )

    def test_deterministic_per_seed(self):
        data = strata_dataset(np.repeat([0, 1, 2], 100))
        a = subsample_to_distribution(data, [0.5, 0.3, 0.2], seed=4)
        b = subsample_to_distribution(data, [0.5, 0.3, 0.2], seed=4)
        np.testing.assert_array_equal(a.features, b.features)

    def test_no_duplicates_and_subset(self):
        data = strata_dataset(np.repeat([0, 1], 150), seed=7)
        out = subsample_to_distribution(data, [0.7, 0.3], seed=5)
        src = set(map(float, data.features[:, 0]))
        picked = list(map(float, out.features[:, 0]))
        assert len(picked) == len(set(picked))
        assert set(picked) <= src

    def test_stops_when_drawn_stratum_empties(self):
        # stratum 1 has a single record and half the draw mass: the run is short
        data = strata_dataset(np.array([0] * 400 + [1]))
        out = subsample_to_distribution(data, [0.5, 0.5], seed=6)
        assert out.n < 50  # the lone stratum-1 record exhausts quickly

    def test_max_size_truncates(self):
        data = strata_dataset(np.repeat([0, 1], 200))
        out = subsample_to_distribution(data, [0.5, 0.5], seed=7, max_size=37)
        assert out.n == 37

    def test_missing_stratum_with_mass_rejected(self):
        data = strata_dataset(np.zeros(10, dtype=int))
        data.n_strata = 2
        with pytest.raises(EmptyStratumError) as err:
            subsample_to_distribution(data, [0.5, 0.5], seed=0)
        assert err.value.stratum == 1


def reference_subsample(data, p_prime, seed, max_size=None):
    """The literal loop with a per-draw np.searchsorted over the cumulative
    p', as the subsampler drew before it searched a Python list; no checks."""
    p_prime = np.asarray(p_prime, dtype=float)
    pools = [np.flatnonzero(data.strata == k) for k in range(data.n_strata)]
    rng = np.random.default_rng(seed)
    cum = np.cumsum(p_prime)
    sizes = [pool.size for pool in pools]
    chosen = []
    limit = data.n if max_size is None else min(max_size, data.n)
    while len(chosen) < limit:
        k = min(int(np.searchsorted(cum, rng.random(), side="right")), p_prime.size - 1)
        if sizes[k] == 0:
            break
        j = int(rng.integers(sizes[k]))
        chosen.append(int(pools[k][j]))
        pools[k][j] = pools[k][sizes[k] - 1]
        sizes[k] -= 1
    return data.take(chosen)


class TestApplyBias:
    def test_round_trip_at_gamma_one(self):
        rng = np.random.default_rng(11)
        strata = rng.integers(0, 4, 20_000)
        data = strata_dataset(strata)
        out, p_prime = apply_bias(data, BiasSpec(gamma=1.0), seed=12, max_size=6000)
        counts = np.bincount(strata, minlength=4)
        np.testing.assert_allclose(p_prime, counts / counts.sum())
        freq = out.stratum_counts() / out.n
        for k in range(4):
            ci = 3 * np.sqrt(p_prime[k] * (1 - p_prime[k]) / out.n)
            assert abs(freq[k] - p_prime[k]) <= ci

    def test_smaller_gamma_means_more_skew(self):
        rng = np.random.default_rng(13)
        data = strata_dataset(rng.integers(0, 5, 5000))
        pk = data.stratum_counts() / data.n
        _, p_low = apply_bias(data, BiasSpec(gamma=0.2), seed=1, max_size=100)
        _, p_high = apply_bias(data, BiasSpec(gamma=0.8), seed=1, max_size=100)
        assert total_variation(pk, p_low) > total_variation(pk, p_high)


# ---------------------------------------------------------------------------
# The subsampler's law against the per-draw loop
# ---------------------------------------------------------------------------


def per_draw_subsample(data, p_prime, seed, max_size=None):
    """The subsampler as a per-draw loop: one ``rng.random()`` and one
    ``rng.integers(size)`` per draw, with its checks."""
    p_prime = np.asarray(p_prime, dtype=float)
    if p_prime.min() < 0 or abs(p_prime.sum() - 1.0) > 1e-9:
        raise ValidationError("p_prime must be a distribution summing to 1")
    pools = [np.flatnonzero(data.strata == k) for k in range(data.n_strata)]
    for k in np.flatnonzero(p_prime > 0):
        if pools[k].size == 0:
            raise EmptyStratumError(int(k))
    rng = np.random.default_rng(seed)
    cum = np.cumsum(p_prime).tolist()
    last = p_prime.size - 1
    sizes = [pool.size for pool in pools]
    chosen = []
    limit = data.n if max_size is None else min(max_size, data.n)
    while len(chosen) < limit:
        k = min(bisect.bisect_right(cum, rng.random()), last)
        if sizes[k] == 0:
            break
        j = int(rng.integers(sizes[k]))
        chosen.append(int(pools[k][j]))
        pools[k][j] = pools[k][sizes[k] - 1]
        sizes[k] -= 1
    if not chosen:
        raise ValidationError("subsample stopped before drawing any record")
    return data.take(chosen)


@st.composite
def subsample_cases(draw):
    """K from 1 to 8 with pools of 1 to 300 records, some strata without
    mass (and some of those without records), max_size None or small."""
    K = draw(st.integers(1, 8))
    massless = draw(st.lists(st.booleans(), min_size=K, max_size=K))
    sizes = [draw(st.integers(0 if m else 1, 300)) for m in massless]
    if sum(sizes) == 0:
        sizes[0] = 1
    mass = [0.0 if m else draw(st.floats(0.01, 1.0)) for m in massless]
    if sum(mass) == 0:
        mass[int(np.argmax(sizes))] = 1.0
    p_prime = np.array(mass) / sum(mass)
    shuffle = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    strata = shuffle.permutation(np.repeat(np.arange(K), sizes))
    data = Dataset(features=shuffle.random((strata.size, 2)), strata=strata, n_strata=K)
    seed = draw(st.one_of(st.integers(0, 2**64), st.lists(st.integers(0, 2**32), max_size=3)))
    max_size = draw(st.one_of(st.none(), st.integers(0, 60)))
    return data, p_prime, seed, max_size


def _outcome(fn, case):
    data, p_prime, seed, max_size = case
    try:
        return fn(data, p_prime, seed, max_size=max_size)
    except ValidationError as exc:
        return type(exc)


@given(subsample_cases())
@settings(max_examples=300, deadline=None)
def test_same_rules_as_per_draw_loop(case):
    """The same error type as the loop; else distinct records of the input,
    at most ``limit`` of them, and the same output for the same seed."""
    data, p_prime, seed, max_size = case
    out = _outcome(subsample_to_distribution, case)
    loop = _outcome(per_draw_subsample, case)
    if isinstance(out, type):
        assert out is loop
        return
    assert not isinstance(loop, type)
    rows = {row.tobytes(): k for row, k in zip(data.features, data.strata)}
    taken = [row.tobytes() for row in out.features]
    assert len(set(taken)) == len(taken)
    assert [rows[row] for row in taken] == out.strata.tolist()
    assert 1 <= out.n <= min(data.n if max_size is None else max_size, data.n)
    assert np.all(p_prime[out.strata] > 0)
    again = subsample_to_distribution(data, p_prime, seed, max_size=max_size)
    assert again.features.tobytes() == out.features.tobytes()


def halting_law(sizes, p_prime, max_size=None):
    """The exact probability of each output record sequence, by recursion
    over the halting process: draw a stratum from p'; halt if it has no
    records left, else take each of its untaken records with equal chance;
    stop after ``max_size`` records.  Records are numbered stratum by
    stratum."""
    pools = np.split(np.arange(sum(sizes)), np.cumsum(sizes)[:-1])
    limit = sum(sizes) if max_size is None else min(max_size, sum(sizes))
    law = {}

    def walk(taken, prob):
        if len(taken) == limit:
            law[taken] = law.get(taken, 0.0) + prob
            return
        for pool, pk in zip(pools, p_prime):
            if pk == 0:
                continue
            left = [r for r in pool.tolist() if r not in taken]
            if not left:
                law[taken] = law.get(taken, 0.0) + prob * pk
            for r in left:
                walk(taken + (r,), prob * pk / len(left))

    walk((), 1.0)
    return law


LAW_CASES = {
    "sizes (2, 1)": ((2, 1), (0.5, 0.5), None),
    "one stratum of 3": ((3,), (1.0,), None),
    "(2, 2, 0), max_size 2": ((2, 2, 0), (0.6, 0.4, 0.0), 2),
}
# fixed before the first run
LAW_SEEDS = range(50_000, 70_000)


@pytest.mark.parametrize("fn", [subsample_to_distribution, per_draw_subsample, reference_subsample])
@pytest.mark.parametrize("case", sorted(LAW_CASES))
def test_output_sequences_follow_the_halting_law(case, fn):
    """Over 20,000 seeds the output record sequences of the subsampler and of
    both reference loops pass a chi-square test against their exact
    probabilities at p >= 1e-6."""
    sizes, p_prime, max_size = LAW_CASES[case]
    law = halting_law(sizes, p_prime, max_size)
    assert abs(sum(law.values()) - 1.0) < 1e-12
    data = Dataset(features=np.arange(sum(sizes), dtype=float)[:, None],
                   strata=np.repeat(np.arange(len(sizes)), sizes), n_strata=len(sizes))
    seen = dict.fromkeys(law, 0)
    for seed in LAW_SEEDS:
        out = fn(data, p_prime, seed, max_size=max_size)
        seen[tuple(out.features[:, 0].astype(int).tolist())] += 1
    expected = np.array([law[k] for k in seen]) * len(LAW_SEEDS)
    assert scipy.stats.chisquare(list(seen.values()), expected).pvalue >= 1e-6


def test_many_single_record_strata():
    """K = 20,000 strata of one record each under a uniform p': a run takes
    distinct strata until the first stratum drawn twice, so its length L has
    P(L >= m) = prod_{i < m} (1 - i/K); the mean over 100 seeds lies within
    5 standard errors of E[L]."""
    K = 20_000
    data = Dataset(features=np.arange(K, dtype=float)[:, None], strata=np.arange(K))
    i = np.arange(1, K)
    survival = np.concatenate(([1.0], np.cumprod(1.0 - i / K)))
    mean = survival.sum()
    sd = np.sqrt((2 * np.arange(K) + 1) @ survival - mean**2)
    lengths = []
    for seed in range(100):
        out = subsample_to_distribution(data, np.full(K, 1 / K), seed)
        np.testing.assert_array_equal(out.features[:, 0], out.strata)
        assert np.unique(out.strata).size == out.n
        lengths.append(out.n)
    assert abs(np.mean(lengths) - mean) <= 5 * sd / 10


def test_many_two_record_strata():
    """K = 10,000 strata of two records each: distinct records, each of its
    own stratum, at most two per stratum, and a halt before exhaustion."""
    K = 10_000
    strata = np.repeat(np.arange(K), 2)
    data = Dataset(features=np.arange(2 * K, dtype=float)[:, None], strata=strata)
    for seed in range(20):
        out = subsample_to_distribution(data, np.full(K, 1 / K), seed)
        picked = out.features[:, 0].astype(int)
        assert np.unique(picked).size == out.n < data.n
        np.testing.assert_array_equal(strata[picked], out.strata)
        assert np.bincount(out.strata).max() <= 2


class TestSubsampleArguments:
    @pytest.mark.parametrize(
        "seed",
        [np.random.default_rng(0), np.random.PCG64(0), np.random.SeedSequence(0), None, -1,
         [3, -1], 2.5, "7"],
    )
    def test_seed_refused(self, seed):
        data = strata_dataset(np.repeat([0, 1], 20))
        with pytest.raises(ValidationError, match="seed must be"):
            subsample_to_distribution(data, [0.5, 0.5], seed)

    def test_nan_p_prime_refused(self):
        data = strata_dataset(np.repeat([0, 1], 20))
        with pytest.raises(ValidationError, match="p_prime"):
            subsample_to_distribution(data, [np.nan, 1.0], 0)

    @pytest.mark.parametrize("max_size", [0, -1, 2.5, True, "3"])
    def test_max_size_refused(self, max_size):
        data = strata_dataset(np.repeat([0, 1], 20))
        with pytest.raises(ValidationError, match="max_size must be an integer >= 1"):
            subsample_to_distribution(data, [0.5, 0.5], 0, max_size=max_size)

    def test_perm_seed_refused(self):
        with pytest.raises(ValidationError, match="perm_seed must be"):
            BiasSpec(gamma=0.5, permutation="random", perm_seed=-2)
