import pytest

from lgmirror.catalog import (
    BoundTooSmall,
    NoInvertibleRepresentative,
    WeightSystemRecord,
    enumerate_k3_systems,
    filter_bv,
    filter_bv_invertible,
    genericity_spot_check,
    quasismooth_general,
    representable,
    sample_polynomial,
)
from lgmirror.polyring import (
    WeightSystem,
    check_cy,
    is_bv_form,
    is_invertible,
    parse_polynomial,
    weight_system,
)


def elliptic_systems():
    """The two elliptic-curve weight systems with their Fermat samples."""
    return [
        WeightSystemRecord((3, 2, 1), 6, True, True, "x0^2+x1^3+x2^6"),
        WeightSystemRecord((2, 1, 1), 4, True, True, "x0^2+x1^4+x2^4"),
    ]


@pytest.fixture(scope="module")
def records():
    return enumerate_k3_systems()


def test_record_value_semantics():
    r = elliptic_systems()[0]
    shown = (
        "WeightSystemRecord(weights=(3, 2, 1), degree=6, quasismooth=True, "
        "bv_admissible=True, sample_poly='x0^2+x1^3+x2^6')"
    )
    assert repr(r) == str(r) == shown
    fields = ((3, 2, 1), 6, True, True, "x0^2+x1^3+x2^6")
    assert r == WeightSystemRecord(*fields) != WeightSystemRecord(*fields[:4], "")
    assert hash(r) == hash(fields)
    # the field order of the CLI's JSON records
    assert r.__slots__ == ("weights", "degree", "quasismooth", "bv_admissible", "sample_poly")
    assert r.fields() == fields


def test_elliptic_systems():
    recs = elliptic_systems()
    assert [(r.weights, r.degree) for r in recs] == [((3, 2, 1), 6), ((2, 1, 1), 4)]
    for r in recs:
        assert check_cy(r.weight_system)
        assert 2 * r.weights[0] == r.degree
        p = parse_polynomial(r.sample_poly)
        assert weight_system(p) == r.weight_system


def test_representable():
    assert representable(6, (3, 2))
    assert representable(0, (3,))
    assert not representable(5, (3,))
    assert not representable(7, (2, 4))


def test_quasismooth_examples():
    assert quasismooth_general((1, 1, 1, 3), 6)
    assert quasismooth_general((1, 1, 1, 1), 4)
    assert quasismooth_general((1, 1, 2, 4), 8)
    # triple sharing a factor can never be quasismooth at CY degree
    assert not quasismooth_general((1, 2, 2, 2), 7)
    assert not quasismooth_general((1, 1, 1, 6), 9)


def test_enumeration_count_95(records):
    assert len(records) == 95
    for r in records:
        assert sum(r.weights) == r.degree
        import math

        assert math.gcd(*r.weights) == 1


def test_known_members(records):
    keys = {(r.weights, r.degree) for r in records}
    for w, d in [
        ((1, 1, 1, 1), 4),
        ((3, 1, 1, 1), 6),
        ((4, 2, 1, 1), 8),
        ((5, 2, 2, 1), 10),
        ((21, 14, 6, 1), 42),
        ((33, 22, 6, 5), 66),
    ]:
        assert (tuple(sorted(w, reverse=True)), d) in keys


def test_bound_too_small():
    with pytest.raises(BoundTooSmall):
        enumerate_k3_systems(max_weight=10)


def test_half_degree_filter(records):
    bv = filter_bv(records)
    assert len(bv) == 48
    keys = {(r.weights, r.degree) for r in bv}
    assert ((3, 1, 1, 1), 6) in keys
    assert ((1, 1, 1, 1), 4) not in keys


def test_invertible_bv_count_is_44(records):
    assert len(filter_bv_invertible(records)) == 44


def test_bv_discrepancy_set(records):
    half = filter_bv(records)
    invertible = filter_bv_invertible(half)
    gap = [r for r in half if r not in invertible]
    assert (len(half), len(invertible), len(gap)) == (48, 44, 4)
    assert {(r.weights, r.degree) for r in gap} == {
        ((11, 5, 4, 2), 22),
        ((17, 7, 6, 4), 34),
        ((17, 10, 4, 3), 34),
        ((19, 8, 6, 5), 38),
    }


def test_sample_polynomials_valid(records):
    for r in filter_bv_invertible(records):
        poly = sample_polynomial(r.weight_system)
        ok, idx = is_bv_form(poly)
        assert ok and idx == 0
        assert weight_system(poly) == r.weight_system
        assert check_cy(weight_system(poly))
        assert is_invertible(poly)


def test_sample_fermat_cases():
    p = sample_polynomial(WeightSystem((3, 1, 1, 1), 6))
    assert p == parse_polynomial("y0^2+y1^6+y2^6+y3^6")
    e = sample_polynomial(WeightSystem((3, 2, 1), 6))
    assert e == parse_polynomial("y0^2+y1^3+y2^6")


def test_sample_no_invertible():
    with pytest.raises(NoInvertibleRepresentative):
        sample_polynomial(WeightSystem((11, 5, 4, 2), 22))


def test_sample_chain_emitted_when_fermat_impossible():
    # (7,3,2,2;14): the weight-3 variable admits no pure power of degree 14,
    # so the sample must contain a chain block, verified nondegenerate
    from lgmirror.polyring import atomic_decomposition

    poly = sample_polynomial(WeightSystem((7, 3, 2, 2), 14))
    kinds = [b.kind for b in atomic_decomposition(poly)]
    assert "chain" in kinds
    assert is_invertible(poly)


def test_genericity_spot_check(records):
    import random

    rng = random.Random(2024)
    small = [r for r in filter_bv_invertible(records) if r.degree <= 12]
    picks = rng.sample(small, 3)
    for r in picks:
        rec = type(r)(
            r.weights, r.degree, r.quasismooth, r.bv_admissible,
            str(sample_polynomial(r.weight_system)),
        )
        assert genericity_spot_check(rec, seed=7)
