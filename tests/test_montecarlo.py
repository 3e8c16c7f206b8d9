"""Tests for the Monte-Carlo estimator and the exact enumeration oracle."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from longshort import (
    EmpiricalPMF,
    InvalidParameterError,
    LongShortError,
    McGainEstimator,
    ReturnModel,
    estimate_exact_small,
    estimate_gain_stats,
    expected_gain,
    pmf_from_returns,
    variance_gain,
)
from longshort import dynamics, montecarlo, returns
from longshort.returns import CHUNK_ROWS, GUIDE_BUCKETS, _atom_lookup, gain_ceiling


def _outside(k_gain, k_max):
    """The refusal of a gain past the ceiling, as a pattern matching it whole."""
    return f"^{re.escape(f'k_gain={k_gain} outside admissible [0, {k_max}]')}$"


@pytest.fixture
def two_point_model():
    return ReturnModel.two_point(-0.1, 0.1, 0.5)


class TestEstimateGainStats:
    def test_no_trade_is_exactly_zero(self, two_point_model):
        est = estimate_gain_stats(two_point_model, 0.5, 0.0, 1.0, 4, n_paths=500, seed=1)
        assert est.mean == 0.0
        assert est.variance == 0.0

    def test_deterministic_given_seed(self, two_point_model):
        a = estimate_gain_stats(two_point_model, 0.5, 0.8, 1.0, 6, n_paths=3000, seed=11)
        b = estimate_gain_stats(two_point_model, 0.5, 0.8, 1.0, 6, n_paths=3000, seed=11)
        assert a == b
        c = estimate_gain_stats(two_point_model, 0.5, 0.8, 1.0, 6, n_paths=3000, seed=12)
        assert a != c

    def test_batching_is_transparent(self, two_point_model):
        # n_paths over many chunks and not a multiple of the chunk size
        est = estimate_gain_stats(two_point_model, 0.5, 1.0, 1.0, 2, n_paths=20_000, seed=5)
        assert est.n_paths == 20_000
        assert est.std_error_of_mean == pytest.approx(est.std / math.sqrt(20_000))

    def test_balanced_zero_drift_two_stages(self, two_point_model):
        # closed form gives mean 0 at mu = 0
        est = estimate_gain_stats(two_point_model, 0.5, 1.0, 1.0, 2, n_paths=100_000, seed=2)
        assert abs(est.mean) <= 5 * est.std_error_of_mean

    def test_estimator_reuses_paths_across_gains(self, two_point_model):
        estimator = McGainEstimator(two_point_model, 5, 2000, seed=3)
        first = estimator.estimate(0.5, 0.4, 1.0)
        second = estimator.estimate(0.5, 0.4, 1.0)
        assert first == second  # same paths, same gain, same numbers

    def test_admissibility_checked_against_model(self):
        # The bank, the stream and the enumeration, given the model or its bare
        # PMF, refuse a gain past the ceiling with the same type.
        model = ReturnModel.two_point(-0.5, 2.0, 0.5)  # k_max = 0.5
        estimator = McGainEstimator(model, 3, 100, seed=0)
        for k_gain in (0.6, 0.8):
            calls = [
                lambda: estimator.estimate(0.5, k_gain, 1.0),
                lambda: estimate_gain_stats(model, 0.5, k_gain, 1.0, 3, n_paths=100, seed=0),
                lambda: estimate_exact_small(model, 0.5, k_gain, 1.0, 3),
                lambda: estimate_exact_small(model.pmf, 0.5, k_gain, 1.0, 3),
            ]
            for call in calls:
                with pytest.raises(InvalidParameterError, match=_outside(k_gain, 0.5)):
                    call()

    def test_the_ceiling_keeps_every_atom_survivable(self):
        # K <= min(1, fl(1/x_max)) gives fl(K * x_max) <= 1, and K <= 1 with
        # x_min > -1 gives fl(K * x_min) >= x_min > -1, so a probe's gain check
        # against k_max covers every atom of the PMF.
        rng = np.random.default_rng(20221016)
        x_maxes = 10.0 ** rng.uniform(-300.0, 300.0, 20_000)
        x_mins = -rng.uniform(np.nextafter(0.0, 1.0), 1.0, x_maxes.size)
        x_mins[:2] = np.nextafter(-1.0, 0.0), -5e-324
        for x_min, x_max in zip(x_mins.tolist(), x_maxes.tolist()):
            k_max = gain_ceiling(x_max)
            assert 1.0 - k_max * x_max >= 0.0, x_max
            assert 1.0 + k_max * x_min >= 0.0, x_min

    def test_one_ceiling_for_a_model_and_its_pmf(self):
        # The enumeration checks a gain against gain_ceiling(max(1, x_max)), the
        # model's k_max, whether the atoms come as a model or as a bare PMF.
        rng = np.random.default_rng(20221023)
        x_maxes = 10.0 ** rng.uniform(-300.0, 300.0, 20_000)
        x_mins = -rng.uniform(np.nextafter(0.0, 1.0), 1.0, x_maxes.size)
        models = 0
        for x_min, x_max in zip(x_mins.tolist(), x_maxes.tolist()):
            pmf = EmpiricalPMF(np.array([x_min, x_max]), np.array([0.5, 0.5]))
            sources = [pmf]
            if x_max < 1e154:  # above, the model's variance leaves double range
                sources.append(ReturnModel.from_pmf(pmf))
                models += 1
            k_max = gain_ceiling(max(1.0, x_max))
            for source in sources:
                estimate_exact_small(source, 0.5, k_max, 1.0, 1)
                past = math.nextafter(k_max, 2.0)
                # a pattern for each gain would compile 34k times
                with pytest.raises(InvalidParameterError) as refusal:
                    estimate_exact_small(source, 0.5, past, 1.0, 1)
                assert str(refusal.value) == f"k_gain={past} outside admissible [0, {k_max}]"
        assert models > 14_000
        # No atom above 1: the ceiling is 1, for a point mass and a one-sided PMF.
        for values in ([0.3], [-0.5, -0.2]):
            pmf = EmpiricalPMF(np.array(values), np.full(len(values), 1.0 / len(values)))
            estimate_exact_small(pmf, 0.5, 1.0, 1.0, 2)
            past = math.nextafter(1.0, 2.0)
            with pytest.raises(InvalidParameterError, match=_outside(past, 1.0)):
                estimate_exact_small(pmf, 0.5, past, 1.0, 2)

    def test_preconditions(self, two_point_model):
        with pytest.raises(InvalidParameterError):
            McGainEstimator(two_point_model, 0, 100, seed=0)
        with pytest.raises(InvalidParameterError):
            McGainEstimator(two_point_model, 3, 1, seed=0)

    def test_negative_seed_refused(self, two_point_model, monkeypatch):
        with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
            McGainEstimator(two_point_model, 3, 100, seed=-1)

        def no_draw(*_):
            raise AssertionError("drew paths before refusing")

        monkeypatch.setattr(montecarlo, "_path_chunks", no_draw)
        with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -3"):
            estimate_gain_stats(two_point_model, 0.5, 0.5, 1.0, 3, n_paths=100, seed=-3)

    def test_draws_follow_weights(self):
        model = ReturnModel.two_point(-0.1, 0.2, 0.75)
        estimator = McGainEstimator(model, 10, 20_000, seed=9)
        frac_up = float(np.mean(estimator.paths == 0.2))
        assert frac_up == pytest.approx(0.75, abs=0.01)


def _reference_bank(model, n_paths, stage, seed):
    """The path bank as ``Generator.choice`` draws it: row-major, one
    ``rng.choice`` call per seed."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(model.pmf.n_atoms, size=(n_paths, stage), p=model.pmf.weights)
    return model.pmf.values[idx]


def _clustered_pmf():
    # 20 atoms of weight 1e-6 sit side by side in one guide bucket, so a
    # uniform above them in that bucket steps through all of them.
    big = np.random.default_rng(4).uniform(0.5, 1.5, 60)
    big *= (1.0 - 20e-6) / big.sum()
    weights = np.concatenate([big[:30], np.full(20, 1e-6), big[30:]])
    weights[0] += 1.0 - weights.sum()
    return EmpiricalPMF(np.linspace(-0.3, 0.4, weights.size), weights)


BANK_MODELS = {
    "equal_125": lambda: ReturnModel.from_pmf(pmf_from_returns(np.linspace(-0.2, 0.25, 125))),
    "clustered": lambda: ReturnModel.from_pmf(_clustered_pmf()),
    "two_point": lambda: ReturnModel.two_point(-0.1, 0.2, 0.75),
    "uniform_grid": lambda: ReturnModel(
        EmpiricalPMF(np.linspace(-0.2, 0.3, 10), np.full(10, 1.0 / 10))
    ),
}


class TestBankMatchesChoice:
    """The bank equals what ``Generator.choice`` draws, value for value.

    This pins the seeded outputs of every Monte-Carlo command, and fails
    first if a numpy release changes how ``Generator.choice`` samples.
    """

    @pytest.mark.parametrize("n_paths", [1_000, 20_000, 50_000])
    @pytest.mark.parametrize("name", sorted(BANK_MODELS))
    def test_bank_and_estimates_are_bitwise_equal(self, name, n_paths):
        model = BANK_MODELS[name]()
        stage, seed = 40, 17
        estimator = McGainEstimator(model, stage, n_paths, seed)
        reference = _reference_bank(model, n_paths, stage, seed)
        assert np.array_equal(estimator.paths, reference)
        if name == "clustered":  # the cluster really shares one guide bucket
            cdf = model.pmf.weights.cumsum()
            assert np.bincount((cdf * GUIDE_BUCKETS).astype(int)).max() >= 20
        for k_gain in (0.0, 0.1 * model.k_max, model.k_max):
            config = dynamics.ControllerConfig.for_model(model, alpha=0.5, k_gain=k_gain, v0=1.0)
            gains = dynamics._terminal_gains(config, reference)
            variance = float(gains.var(ddof=1))
            est = estimator.estimate(0.5, k_gain, 1.0)
            assert est.mean == float(gains.mean())
            assert est.variance == variance
            assert est.std == math.sqrt(variance)

    def test_lookup_exact_at_cdf_values_and_bucket_edges(self):
        # Ties in the cdf (a weight below its ulp) and uniforms that hit a
        # cdf value or a bucket edge exactly, or one ulp either side.
        weights = np.array([0.25, 1e-18, 0.25, 0.5 - 1e-18])
        for cdf in (weights.cumsum(), _clustered_pmf().weights.cumsum()):
            cdf /= cdf[-1]
            edges = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
            points = np.concatenate([cdf[:-1], edges, [np.nextafter(1.0, 0.0)]])
            u = np.concatenate(
                [points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)]
            )
            u = u[(u >= 0.0) & (u < 1.0)]
            got = _atom_lookup(cdf, u.size)(u, np.empty(u.size))
            assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    def test_bank_is_read_only(self, two_point_model):
        estimator = McGainEstimator(two_point_model, 3, 100, seed=0)
        with pytest.raises(ValueError):
            estimator.paths[0, 0] = 0.5


STREAM_MODELS = ("two_point", "uniform_grid", "clustered")


class TestStreamMatchesBank:
    """The streamed one-shot estimate equals a probe of the stored bank, bit for bit.

    Path counts straddle the edges of the first chunk and of later ones,
    so that a part of a chunk, one chunk and many are drawn from one stream.
    """

    @pytest.mark.parametrize("stage", [1, 125])
    @pytest.mark.parametrize(
        "n_paths",
        [
            2,
            *(n for edge in (CHUNK_ROWS, 4 * CHUNK_ROWS) for n in (edge - 1, edge, edge + 1)),
            32 * CHUNK_ROWS,
            32 * CHUNK_ROWS + 1,
            50_000,
        ],
    )
    @pytest.mark.parametrize("name", STREAM_MODELS)
    def test_estimates_are_bitwise_equal(self, name, n_paths, stage):
        model = BANK_MODELS[name]()
        seed = 23
        estimator = McGainEstimator(model, stage, n_paths, seed)
        if n_paths <= 32 * CHUNK_ROWS + 1:
            assert np.array_equal(estimator.paths, _reference_bank(model, n_paths, stage, seed))
        for k_gain in (0.0, 0.1 * model.k_max, model.k_max):
            for alpha in (0.0, 0.5, 1.0):
                streamed = estimate_gain_stats(model, alpha, k_gain, 1.0, stage, n_paths, seed)
                assert streamed == estimator.estimate(alpha, k_gain, 1.0)

    def test_blocks_are_the_bank_in_order(self):
        model = BANK_MODELS["clustered"]()
        n_paths, stage = 4 * CHUNK_ROWS + 5, 7
        reference = _reference_bank(model, n_paths, stage, 4)
        starts = []
        for start, block in returns._path_chunks(model.pmf, n_paths, stage, 4):
            assert block.flags.f_contiguous and block.shape[0] <= CHUNK_ROWS
            assert np.array_equal(block, reference[start : start + block.shape[0]])
            starts.append(start)
        assert starts == [0, CHUNK_ROWS, 2 * CHUNK_ROWS, 3 * CHUNK_ROWS, 4 * CHUNK_ROWS]

    @pytest.mark.parametrize("name", sorted(BANK_MODELS))
    def test_sample_path_is_path_zero(self, name):
        model = BANK_MODELS[name]()
        for seed, stage in ((0, 1), (5, 125), (2**40, 3_000)):
            bank = McGainEstimator(model, stage, 2, seed).paths
            assert np.array_equal(returns.sample_path(model, stage, seed), bank[0])


def _raised(call):
    try:
        call()
    except LongShortError as exc:
        return type(exc)
    return None


class TestStreamRefusals:
    """The stream refuses what the bank and its probe refuse, with the same types,
    and before it draws a path."""

    CASES = [
        {"stage": 0}, {"stage": -3},
        {"n_paths": 1}, {"n_paths": 0},
        {"k_gain": -0.1}, {"k_gain": 1.0 + 1e-12}, {"k_gain": float("nan")},
        {"alpha": -0.1}, {"alpha": 1.1}, {"alpha": float("nan")},
        {"v0": 0.0}, {"v0": -1.0},
        {"stage": 0, "k_gain": 2.0}, {"k_gain": 2.0, "alpha": 2.0, "v0": 0.0},
        {"alpha": 2.0, "v0": 0.0},
    ]

    @pytest.mark.parametrize("bad", CASES)
    def test_same_type_as_the_bank(self, two_point_model, bad, monkeypatch):
        args = {"alpha": 0.5, "k_gain": 0.5, "v0": 1.0, "stage": 4, "n_paths": 200, **bad}

        def bank():
            estimator = McGainEstimator(two_point_model, args["stage"], args["n_paths"], 0)
            estimator.estimate(args["alpha"], args["k_gain"], args["v0"])

        want = _raised(bank)
        assert want is not None

        def no_draw(*_):
            raise AssertionError("drew paths before refusing")

        monkeypatch.setattr(montecarlo, "_path_chunks", no_draw)
        got = _raised(lambda: estimate_gain_stats(two_point_model, seed=0, **args))
        assert got is want


class TestMemory:
    """Guards the streaming: a one-shot estimate holds no bank, and drawing
    the bank holds little beside it. Drawing works in buffers of one block:
    uniforms, draws and atom indices (8 bytes each) and a step flag (1 byte)
    per entry, allocated once."""

    N_PATHS, STAGE = 50_000, 125
    BLOCK_BUFFERS = 25 * CHUNK_ROWS * STAGE

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            result = call()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_streamed_estimate_holds_no_bank(self):
        model = BANK_MODELS["equal_125"]()
        peak, _ = self._peak(
            lambda: estimate_gain_stats(
                model, 0.5, 0.5 * model.k_max, 1.0, self.STAGE, self.N_PATHS, 1
            )
        )
        # the bank alone is 47.7 MiB; the gains are 0.4 MiB
        assert peak < self.BLOCK_BUFFERS + 8 * self.N_PATHS + 2 * 2**20

    def test_bank_draw_holds_little_beside_the_bank(self):
        model = BANK_MODELS["equal_125"]()
        peak, estimator = self._peak(
            lambda: McGainEstimator(model, self.STAGE, self.N_PATHS, 1)
        )
        assert peak < estimator.paths.nbytes + self.BLOCK_BUFFERS + 2 * 2**20


class TestEstimateRefusals:
    """``estimate`` refuses what a ``ControllerConfig`` refuses, with the same types."""

    @pytest.fixture
    def estimator(self, two_point_model):
        return McGainEstimator(two_point_model, 4, 200, seed=0)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, float("nan")])
    def test_alpha_outside_unit_interval(self, estimator, alpha):
        with pytest.raises(InvalidParameterError, match="alpha"):
            estimator.estimate(alpha, 0.5, 1.0)

    @pytest.mark.parametrize("v0", [0.0, -1.0])
    def test_nonpositive_v0(self, estimator, v0):
        with pytest.raises(InvalidParameterError, match="v0"):
            estimator.estimate(0.5, 0.5, v0)

    @pytest.mark.parametrize("k_gain", [-0.1, 1.0 + 1e-12, float("nan")])
    def test_gain_outside_admissible_range(self, estimator, k_gain):
        with pytest.raises(InvalidParameterError, match=_outside(k_gain, 1.0)):
            estimator.estimate(0.5, k_gain, 1.0)

    def test_edges_accepted(self, estimator):
        estimator.estimate(0.0, 0.0, 1e-9)
        estimator.estimate(1.0, 1.0, 1.0)


class TestExactEnumeration:
    def test_point_mass_has_zero_variance(self):
        point_mass = EmpiricalPMF(np.array([0.05]), np.array([1.0]))
        stats = estimate_exact_small(point_mass, 0.5, 1.0, 1.0, 3)
        assert stats.variance == 0.0
        assert stats.mean == pytest.approx(
            0.5 * 1.05**3 + 0.5 * 0.95**3 - 1, rel=1e-15
        )

    def test_four_path_enumeration_matches_closed_form(self):
        model = ReturnModel.two_point(-0.1, 0.1, 0.5)
        stats = estimate_exact_small(model, 0.5, 1.0, 1.0, 2)
        assert stats.mean == pytest.approx(expected_gain(0.5, 1.0, 2, 0.0), abs=1e-15)
        assert stats.variance == pytest.approx(
            variance_gain(0.5, 1.0, 2, 0.0, 0.01), rel=1e-12
        )

    def test_eight_path_enumeration_uneven(self):
        model = ReturnModel.two_point(-0.1, 0.2, 0.75)
        assert model.mu == pytest.approx(0.125)
        assert model.sigma2 == pytest.approx(0.016875)
        stats = estimate_exact_small(model, 0.25, 0.5, 1.0, 3)
        assert stats.mean == pytest.approx(
            expected_gain(0.25, 0.5, 3, model.mu), rel=1e-12
        )
        assert stats.variance == pytest.approx(
            variance_gain(0.25, 0.5, 3, model.mu, model.sigma2), rel=1e-12
        )

    def test_enumeration_against_brute_force_product(self):
        # Independent cross-check: explicit loop over index tuples.
        import itertools

        model = ReturnModel.from_pmf(pmf_from_returns([-0.2, -0.2, 0.05, 0.3]))
        alpha, k_gain, v0, stage = 0.3, 0.6, 2.0, 4
        values = model.pmf.values
        weights = model.pmf.weights
        gains, probs = [], []
        for combo in itertools.product(range(values.size), repeat=stage):
            prob = 1.0
            up = 1.0
            down = 1.0
            for i in combo:
                prob *= weights[i]
                up *= 1 + k_gain * values[i]
                down *= 1 - k_gain * values[i]
            gains.append(v0 * (alpha * up + (1 - alpha) * down - 1))
            probs.append(prob)
        gains = np.array(gains)
        probs = np.array(probs)
        want_mean = float(probs @ gains)
        want_var = float(probs @ (gains - want_mean) ** 2)

        stats = estimate_exact_small(model, alpha, k_gain, v0, stage)
        assert stats.mean == pytest.approx(want_mean, rel=1e-12)
        assert stats.variance == pytest.approx(want_var, rel=1e-12)

    def test_cap_enforced(self):
        model = ReturnModel(EmpiricalPMF(np.linspace(-0.2, 0.3, 10), np.full(10, 1.0 / 10)))
        refusal = rf"^10\^8 sequences exceed the cap of {montecarlo.ENUMERATION_CAP}$"
        with pytest.raises(InvalidParameterError, match=refusal):
            estimate_exact_small(model, 0.5, 0.5, 1.0, 8)  # 10^8 sequences

    def test_stage_zero(self):
        model = ReturnModel.two_point(-0.1, 0.1, 0.5)
        stats = estimate_exact_small(model, 0.5, 0.5, 1.0, 0)
        assert stats.mean == 0.0
        assert stats.variance == 0.0


class TestMcConvergence:
    def test_doubling_paths_roughly_halves_mean_squared_error(self):
        model = ReturnModel.two_point(-0.15, 0.1, 0.5)
        alpha, k_gain, stage = 0.5, 0.8, 6
        truth = expected_gain(alpha, k_gain, stage, model.mu)
        seeds = range(40)
        msd_small = np.mean(
            [
                (estimate_gain_stats(model, alpha, k_gain, 1.0, stage, 2000, s).mean - truth) ** 2
                for s in seeds
            ]
        )
        msd_big = np.mean(
            [
                (estimate_gain_stats(model, alpha, k_gain, 1.0, stage, 4000, s).mean - truth) ** 2
                for s in seeds
            ]
        )
        assert 1.2 <= msd_small / msd_big <= 3.2
