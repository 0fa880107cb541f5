import itertools

import pytest

from skewlie import GenericityReport, SampleConfig, random_algebra, run_experiment
from skewlie.sampler import _randints


def test_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(dim=7, trials=1, seed=0)
    with pytest.raises(ValueError):
        SampleConfig(dim=3, trials=0, seed=0)
    with pytest.raises(ValueError):
        SampleConfig(dim=3, trials=1, seed=0, height=0)
    with pytest.raises(ValueError):
        SampleConfig(dim=3, trials=1, seed=1 << 64)


@pytest.mark.parametrize("fields", [(4, True, 0), (4, 1.5, 0), (True, 2, 0), (4, 2, False),
                                    (4, 2, 0.0), (4, 2, 0, True), (4, 2, 0, 2.0), (4, 2, "1")],
                         ids=["trials-bool", "trials-float", "dim-bool", "seed-bool", "seed-float",
                              "height-bool", "height-float", "seed-str"])
def test_config_rejects_a_bool_or_non_int_field(fields):
    # SampleConfig(4, True, 0) once ran and reported trials=True, and a float trials
    # count failed later inside range
    with pytest.raises(TypeError, match="must be an int"):
        SampleConfig(*fields)


@pytest.mark.parametrize("index", [True, False, 1.0])
def test_random_algebra_rejects_a_bool_or_non_int_index(index):
    # random_algebra(cfg, True) once answered as index 1
    with pytest.raises(TypeError, match="must be an int"):
        random_algebra(SampleConfig(dim=4, trials=2, seed=0), index)


def test_height_must_fit_one_64_bit_draw():
    # 2*height + 1 values must fit in 2**64, or rejection sampling never ends
    with pytest.raises(ValueError, match="64-bit"):
        SampleConfig(dim=3, trials=1, seed=0, height=2**63)
    cfg = SampleConfig(dim=3, trials=1, seed=0, height=2**63 - 1)
    coeffs = [c for v in random_algebra(cfg, 0).products.values() for c in v]
    assert all(abs(c) <= 2**63 - 1 for c in coeffs)


def test_splitmix_range():
    draws = list(itertools.islice(_randints(99, -2, 2), 500))
    assert set(draws) == {-2, -1, 0, 1, 2}


def test_splitmix_yields_the_reference_stream():
    # SplitMix64 (Steele, Lea and Flood, 2014) from seed 0 begins with these outputs; on
    # [0, 2^64 - 1] no output is rejected, so the draws are the raw stream
    assert list(itertools.islice(_randints(0, 0, 2 ** 64 - 1), 3)) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("seed,lo,hi,draws", [
    (1234567, -2, 2, [0, 1, 1, -1, -1, 2, 0, 0, 2, -1, 1, 1]),
    # size 2^63 + 1 rejects about half the outputs
    (7, 0, 2 ** 63, [7191089600892374487, 309689372594955804, 8346079845500723674,
                     4601199455465548305])])
def test_randints_draws_a_pinned_stream(seed, lo, hi, draws):
    assert list(itertools.islice(_randints(seed, lo, hi), len(draws))) == draws


def test_random_algebra_deterministic():
    cfg = SampleConfig(dim=3, trials=10, seed=42, height=1)
    assert random_algebra(cfg, 0) == random_algebra(cfg, 0)
    assert random_algebra(cfg, 3) == random_algebra(cfg, 3)


def test_random_algebra_index_bounds():
    cfg = SampleConfig(dim=3, trials=10, seed=42)
    with pytest.raises(ValueError):
        random_algebra(cfg, 10)


def test_random_algebra_height_bound():
    cfg = SampleConfig(dim=4, trials=30, seed=5, height=3)
    for i in range(30):
        a = random_algebra(cfg, i)
        for coeffs in a.products.values():
            assert all(-3 <= c <= 3 and c.denominator == 1 for c in coeffs)


def test_draws_are_distinct():
    cfg = SampleConfig(dim=3, trials=100, seed=42, height=2)
    algs = [random_algebra(cfg, i) for i in range(100)]
    assert len(set(algs)) == 100


def test_report_reproducible():
    cfg = SampleConfig(dim=3, trials=40, seed=42, height=2)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1 == r2
    assert isinstance(r1, GenericityReport)


def test_report_counts_consistent():
    cfg = SampleConfig(dim=3, trials=60, seed=7, height=2)
    r = run_experiment(cfg)
    assert sum(r.rank_histogram_M.values()) == r.trials == 60
    assert 0 <= r.homlie_count <= r.trials
    assert r.lie_count <= r.homlie_count  # a Lie algebra always has the identity twist


def test_dim3_trials_all_homlie_and_bounded_rank():
    cfg = SampleConfig(dim=3, trials=60, seed=13, height=2)
    r = run_experiment(cfg)
    assert r.homlie_count == 60
    assert all(rank <= 8 for rank in r.rank_histogram_M)
