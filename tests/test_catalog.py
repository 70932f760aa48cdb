import pytest

from lgmirror.catalog import (
    BoundTooSmall,
    NoInvertibleRepresentative,
    WeightSystemRecord,
    enumerate_k3_systems,
    filter_bv,
    filter_bv_invertible,
    quasismooth_general,
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


def test_screen_leaves_275_systems_for_the_subset_sweep(monkeypatch):
    """At the default bound the single-variable screen and the gcd test pass
    exactly 275 quadruples to the full subset sweep, which keeps 95; a weaker
    screen sweeps more of them."""
    from lgmirror import catalog

    swept = []
    sweep = catalog.quasismooth_general

    def counted(weights, degree):
        swept.append((weights, degree))
        return sweep(weights, degree)

    monkeypatch.setattr(catalog, "quasismooth_general", counted)
    assert len(enumerate_k3_systems(40)) == 95
    assert len(swept) == len(set(swept)) == 275


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


def test_census_setup_builds_no_groebner_basis(monkeypatch):
    """Invertibility is decided by the Kreuzer-Skarke classification, so
    the census set-up (the invertible filter and one sample per kept
    system) runs no Buchberger."""
    from lgmirror import milnor

    calls = []
    groebner = milnor.groebner
    monkeypatch.setattr(milnor, "groebner", lambda *a: calls.append(a) or groebner(*a))
    kept = filter_bv_invertible(enumerate_k3_systems())
    samples = [sample_polynomial(r.weight_system) for r in kept]
    assert (len(kept), len(samples), len(calls)) == (44, 44, 0)


@pytest.mark.parametrize("module", ["polyring", "catalog"])
def test_module_imports_nothing_from_milnor(module):
    import ast
    import pathlib

    import lgmirror

    path = pathlib.Path(lgmirror.__file__).parent / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [name for name in imported if name.rsplit(".", 1)[-1] == "milnor"]
