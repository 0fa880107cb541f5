"""The contract of the public result types, which are named tuples: immutable,
pickled and copied to an equal value, hashable unless they hold a dict, and checked
alike whether built by the constructor, ``_make`` or ``_replace``."""

import pytest

from skewlie import (ExactMatrix, SampleConfig, Subspace, central_series, classify,
                     derivation_space, echelonize, heisenberg, homlie_space, lie_type_constants,
                     ns1_family, random_algebra, run_experiment, span)

from helpers import ROUND_TRIPS


def _derivations_read():
    space = derivation_space(heisenberg())
    space.basis  # the cached basis lives in the instance's __dict__
    return space


RECORDS = {
    "EchelonResult": lambda: echelonize(ExactMatrix([[1, 2], [3, 4]])),
    "Subspace": lambda: span([[1, 2, 3], [2, 4, 7]]),
    "SeriesReport": lambda: central_series(heisenberg()),
    "DerivationSpace": lambda: derivation_space(heisenberg()),
    "DerivationSpace-read": _derivations_read,
    "HomLieSpace": lambda: homlie_space(ns1_family(1, "2/3", -1, 0, 5)),
    # full rank, so no elimination and an empty kernel; HL is square, so a determinant
    "DerivationSpace-empty": lambda: derivation_space(random_algebra(SampleConfig(4, 1, 0), 0)),
    "HomLieSpace-det": lambda: homlie_space(random_algebra(SampleConfig(4, 1, 0), 0)),
    "ClassificationResult": lambda: classify(ns1_family(1, "2/3", -1, 0, 5)),
    "LieTypeSolution": lambda: lie_type_constants(heisenberg()),
    "SampleConfig": lambda: SampleConfig(3, 4, 0),
    "GenericityReport": lambda: run_experiment(SampleConfig(3, 4, 0)),
}
UNHASHABLE = {"ClassificationResult", "GenericityReport"}  # they hold a dict


def test_every_public_result_type_is_covered():
    assert {type(make()).__name__ for make in RECORDS.values()} == {
        "EchelonResult", "Subspace", "SeriesReport", "DerivationSpace", "HomLieSpace",
        "ClassificationResult", "LieTypeSolution", "SampleConfig", "GenericityReport"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_and_new_attributes_cannot_be_set(name):
    value = RECORDS[name]()
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_round_trips_give_an_equal_record(name, how):
    value = RECORDS[name]()
    other = ROUND_TRIPS[how](value)
    assert type(other) is type(value) and other == value
    if name not in UNHASHABLE:
        assert hash(other) == hash(value)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_hashable_unless_it_holds_a_dict(name):
    value = RECORDS[name]()
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="dict"):
            hash(value)
    else:
        assert hash(value) == hash(tuple(value))


def test_a_record_is_a_tuple_of_its_fields():
    report = central_series(heisenberg())
    kind, dims = report
    assert report == ("central", (3, 1, 0)) == (kind, dims) and report[1] is dims
    assert report._fields == ("kind", "dims")
    assert report._asdict() == {"kind": "central", "dims": (3, 1, 0)}


@pytest.mark.parametrize("build", [
    lambda cfg: cfg._replace(trials=0),
    lambda cfg: cfg._replace(seed=1 << 64),
    lambda cfg: SampleConfig._make([3, 0, 0, 2]),
    lambda cfg: SampleConfig(3, 0, 0),
], ids=["replace-trials", "replace-seed", "make", "constructor"])
def test_sample_config_checks_every_way_in(build):
    with pytest.raises(ValueError, match="trials|seed"):
        build(SampleConfig(3, 1, 0))


@pytest.mark.parametrize("build", [
    lambda cfg: cfg._replace(height=2.0),
    lambda cfg: SampleConfig._make([3, 1, True, 2]),
    lambda cfg: SampleConfig(3, 1, True),
], ids=["replace", "make", "constructor"])
def test_sample_config_type_checks_every_way_in(build):
    with pytest.raises(TypeError, match="must be an int"):
        build(SampleConfig(3, 1, 0))


@pytest.mark.parametrize("build", [
    lambda s: Subspace._make([ExactMatrix([[2, 0]]), 1]),
    lambda s: s._replace(basis=ExactMatrix([[1, 2], [0, 1]])),
    lambda s: Subspace(ExactMatrix([[2, 0]]), 1),
], ids=["make", "replace", "constructor"])
def test_subspace_checks_its_rref_every_way_in(build):
    with pytest.raises(ValueError, match="RREF"):
        build(span([[1, 0], [0, 1]]))


@pytest.mark.parametrize("build", [
    lambda s: s._replace(dim=3),
    lambda s: Subspace._make([s.basis, 3]),
    lambda s: Subspace(s.basis, 3),
], ids=["replace", "make", "constructor"])
def test_subspace_checks_its_dim_every_way_in(build):
    with pytest.raises(ValueError, match="dim 3 against"):
        build(span([[1, 0], [0, 1]]))


def test_valid_replace_and_make_build_the_same_record():
    cfg = SampleConfig(3, 1, 0)
    assert cfg._replace(trials=5) == SampleConfig(3, 5, 0) == SampleConfig._make([3, 5, 0])
    s = span([[1, 0], [0, 1]])
    assert s._replace(dim=2) == s == Subspace._make(s)
