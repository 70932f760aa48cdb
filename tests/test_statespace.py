import importlib.util
import pathlib
import sys
from fractions import Fraction

import pytest

import lgmirror.bvlg as bvlg
import lgmirror.frobenius as frobenius
import lgmirror.milnor as milnor
import lgmirror.statespace as statespace
from lgmirror.bvlg import block_j_elements, build_bv, verify_theorem1
from lgmirror.chenruan import verify_bv_mirror, verify_lgcy
from lgmirror.milnor import DegenerateSingularity, milnor_ring
from lgmirror.polyring import WeightSystem, direct_sum, parse_polynomial, transpose, weight_system
from lgmirror.statespace import (
    Invariants,
    NotAdmissible,
    build_state_space,
    poincare_table,
    state_name,
    table_to_json,
)
from lgmirror.symmetry import (
    GroupElement,
    gmax,
    j_element,
    sl_subgroup,
    span,
    transpose_group,
)
from test_oracles import (
    EagerSpace,
    _census_models,
    action_weight,
    balanced_join,
    build_sector,
    krawitz_dimension_check,
)
from test_symmetry import count_walks

E1 = parse_polynomial("x0^2+x1^3+x2^6")
K3 = parse_polynomial("y0^2+y1^6+y2^6+y3^6")
WS1 = weight_system(E1)
WS2 = weight_system(K3)
J1 = span(3, [j_element(WS1)])
J2 = span(4, [j_element(WS2)])


def test_action_weight_examples():
    j = j_element(WS1)
    e = ((0, 0, 0), (0, 1, 4))
    assert action_weight(j, e) == 0  # 2*(1/3) + 5*(1/6) + 1*(1/2) = 2
    assert action_weight(GroupElement([0] * 3), e) == 0
    unit = ((0, 0, 0), (0, 0, 0))
    assert action_weight(j, unit) == 0  # age j = 1 for CY


def test_state_name_is_the_printed_state():
    """A state prints as <m; g>flavor, g in lowest terms whatever the
    denominator of its int vector."""
    assert state_name((3, 2, 1), 6, (0, 1, 4), "A") == "<(0, 1, 4); 1/2,1/3,1/6>A"
    assert state_name((6, 0, 6), 12, [0, 0, 0], "B") == "<(0, 0, 0); 1/2,0,1/2>B"
    assert state_name((0,) * 3, 1, (0, 0, 0), "B") == "<(0, 0, 0); 0,0,0>B"


def test_build_sector_identity():
    rings = {}
    got = build_sector(E1, J1, (0, 0, 0), WS1, rings)
    assert sorted(m for _, m in got) == [(0, 0, 0), (0, 1, 4)]


def test_build_sector_narrow():
    rings = {}
    got = build_sector(E1, J1, (3, 2, 1), WS1, rings)  # j over L = 6
    assert got == [((3, 2, 1), (0, 0, 0))]


def test_build_sector_empty():
    rings = {}
    got = build_sector(E1, J1, (3, 0, 3), WS1, rings)  # j^3 = (1/2, 0, 1/2)
    assert got == []


def test_elliptic_a_table():
    space = build_state_space(E1, J1, "A")
    table = poincare_table(space)
    assert table == {
        (Fraction(0), Fraction(0)): 1,
        (Fraction(1), Fraction(0)): 1,
        (Fraction(0), Fraction(1)): 1,
        (Fraction(1), Fraction(1)): 1,
    }


def test_k3_a_table():
    space = build_state_space(K3, J2, "A")
    table = poincare_table(space)
    assert space.dim == 24
    assert table[(Fraction(1), Fraction(1))] == 20
    assert table[(Fraction(2), Fraction(0))] == 1
    assert table[(Fraction(0), Fraction(2))] == 1
    assert table[(Fraction(0), Fraction(0))] == 1
    assert table[(Fraction(2), Fraction(2))] == 1


def test_b_requires_sl():
    with pytest.raises(NotAdmissible):
        build_state_space(E1, gmax(E1), "B")


def test_a_requires_j():
    triv = span(3, [])
    with pytest.raises(NotAdmissible):
        build_state_space(E1, triv, "A")


def test_a_b_same_total_dim():
    # J1 is both A- and B-admissible for the CY elliptic curve
    a = build_state_space(E1, J1, "A")
    b = build_state_space(E1, J1, "B")
    assert a.dim == b.dim


def test_b_bidegree_identity_broad():
    b = EagerSpace(build_state_space(E1, J1, "B"))
    unit = ((0, 0, 0), (0, 0, 0))
    assert unit in b.basis_set
    assert b.bidegree(unit) == (Fraction(0), Fraction(0))


def test_b_bidegree_inverse_swap():
    b = EagerSpace(build_state_space(E1, J1, "B"))
    for e in b.basis:
        (v, m), L = e, b.L
        inv = (tuple([-a % L for a in v]), m)
        assert inv in b.basis_set
        p, q = b.bidegree(e)
        assert b.bidegree(inv) == (q, p)


def test_kuenneth_tensor_dims():
    # sector bases of a disjoint sum factor through the blockwise invariants
    w = direct_sum(E1, K3)
    ws = weight_system(w)
    j1 = GroupElement(list(j_element(WS1).components) + [0] * 4)
    j2 = GroupElement([0] * 3 + list(j_element(WS2).components))
    g = span(7, [j1, j2])
    space = build_state_space(w, g, "A")
    a1 = build_state_space(E1, J1, "A")
    a2 = build_state_space(K3, J2, "A")
    assert space.dim == a1.dim * a2.dim
    # bidegrees add under the product of sectors
    t = poincare_table(space)
    t1 = poincare_table(a1)
    t2 = poincare_table(a2)
    expected = {}
    for (p1, q1), d1 in t1.items():
        for (p2, q2), d2 in t2.items():
            key = (p1 + p2, q1 + q2)
            expected[key] = expected.get(key, 0) + d1 * d2
    assert t == expected


def test_krawitz_bigraded_dimension_check():
    # A(W, G) and B(W^T, G^T) have equal bigraded tables
    cases = [
        (E1, J1),
        (E1, sl_subgroup(gmax(E1))),
        (K3, J2),
        (parse_polynomial("x^3*y+y^4"), None),
    ]
    for poly, grp in cases:
        ws = weight_system(poly)
        if grp is None:
            grp = span(poly.nvars, [j_element(ws)])
        a = build_state_space(poly, grp, "A")
        dual = transpose_group(grp, poly)
        b = build_state_space(transpose(poly), dual, "B")
        assert poincare_table(a) == poincare_table(b)


def test_table_json_shapes():
    space = build_state_space(E1, J1, "A")
    data = table_to_json(poincare_table(space), "A")
    assert data["flavor"] == "A"
    assert data["total"] == 4
    assert {e["p"] for e in data["entries"]} == {"0/1", "1/1"}


def test_deterministic_basis_order():
    """The states of a sector are kept[Fix g] in order, the sectors counted
    by class in the order of the walk: both come out the same each time."""
    s1 = build_state_space(K3, J2, "A")
    s2 = build_state_space(K3, J2, "A")
    assert list(s1.classes.items()) == list(s2.classes.items())
    assert list(s1.kept.items()) == list(s2.kept.items())


def test_sector_dims_record_empty_sectors():
    space = build_state_space(E1, J1, "A")
    assert len(space.sector_dims) == J1.order
    assert sum(space.sector_dims.values()) == space.dim
    assert 0 in space.sector_dims.values()  # e.g. the j^2 sector is empty


def test_krawitz_check_helper():
    checked, lhs, rhs = krawitz_dimension_check(E1, J1)
    assert checked and lhs == rhs


def test_krawitz_check_skips_half_weight_chain():
    import warnings

    # chain x^2 y + y^2: weights (1,2;4), so the chain variable y has q = 1/2
    chain = parse_polynomial("x^2*y+y^2")
    ws = weight_system(chain)
    assert ws.weights == (1, 2) and ws.degree == 4
    grp = span(2, [j_element(ws)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        checked, _, _ = krawitz_dimension_check(chain, grp)
    assert not checked
    assert any("weight 1/2" in str(w.message) for w in caught)


def test_locus_with_a_variable_in_no_monomial_raises():
    """(0, 1/3, 0) is no symmetry of W, which the sweep does not check: it
    fixes x0 and x2, and W restricted to them is x2^2, with x0 in no
    monomial, so the Milnor ring of that locus is infinite dimensional."""
    poly = parse_polynomial("x0^2*x1+x1^3+x2^2")
    ws = weight_system(poly)
    g = GroupElement([0, Fraction(1, 3), 0])
    group = span(3, [j_element(ws), g])
    with pytest.raises(DegenerateSingularity):
        build_sector(poly, group, g.num, ws, {})  # over its own order 3
    with pytest.raises(DegenerateSingularity):
        build_state_space(poly, group, "A", ws=ws)


def test_one_invariants_keeps_the_buckets_of_each_ring_apart():
    """One `Invariants` read with rings of the block (x0,) from two
    polynomials and in two weight systems: each ring gets the listed and
    the counted leaves, and the kept monomials of their join, that a fresh
    `Invariants` gives it, not those of an earlier ring of the same block."""
    group = span(2, [GroupElement([Fraction(1, 2), Fraction(1, 2)])])
    cubic, quintic = parse_polynomial("x0^3+x1^3"), parse_polynomial("x0^5+x1^5")
    rings = [
        milnor_ring(cubic, (0,), weight_system(cubic), {}),
        milnor_ring(quintic, (0,), weight_system(quintic), {}),
        milnor_ring(cubic, (0,), WeightSystem((2, 1), 6), {}),
    ]
    invariant = Invariants(group)
    for ring in rings:
        assert invariant.monomials(ring) == Invariants(group).monomials(ring)
        assert invariant.counts(ring) == Invariants(group).counts(ring)
        assert balanced_join(invariant, ring, group) == balanced_join(Invariants(group), ring, group)
    assert len({str(invariant.monomials(ring)) for ring in rings}) == 3
    assert len({str(invariant.counts(ring)) for ring in rings}) == 3


def test_theorem1_walks_no_assembled_locus_basis(monkeypatch):
    """The sweeps read block rings only: after Theorem 1 on E1 x OCTIC no
    ring assembled from two or more blocks has walked its standard
    monomials (the walk over a whole locus is what the character join
    replaces).  The A sweep runs inside `BVModel.space("A")`, through
    `bvlg.build_state_space`, so both sweeps are recorded."""
    spaces = []

    def recording(*args, **kwargs):
        space = build_state_space(*args, **kwargs)
        spaces.append(space)
        return space

    monkeypatch.setattr(bvlg, "build_state_space", recording)
    octic = parse_polynomial("y0^2+y1^8+y2^8+y3^8+y4^8")
    model = build_bv(E1, octic, block_j_elements(WS1, weight_system(octic)))
    assert verify_theorem1(model).passed
    assert len(spaces) == 2
    for space in spaces:
        assembled = [ring for ring in space.rings.values() if ring.parts]
        assert assembled
        assert all(ring._basis is None for ring in assembled)


OCTIC = parse_polynomial("y0^2+y1^8+y2^8+y3^8+y4^8")
WS_OCTIC = weight_system(OCTIC)


def _allowed_elements(model):
    """The elements a sweep of either side may build: the generators of its
    groups and of the dual group its mirror is built from, sigma and the
    grading elements.  The BV coset representatives are int vectors."""
    out = set()
    for side in (model, model.mirror()):
        out.update(side.group.gens, side.sigma_group.gens)
        out.update(transpose_group(side.group, side.poly).gens)
        out.update([side.sigma, side.j1, side.j2])
        out.update(j_element(ws) for ws in (side.ws, side.ws1, side.ws2))
    return out


@pytest.mark.parametrize("verdict", [verify_theorem1, verify_lgcy, verify_bv_mirror])
def test_cold_verdicts_build_no_sector_elements(monkeypatch, verdict):
    """theorem1, lgcy and bvms on a fresh E1 x OCTIC model count sector
    classes: no state is named (`state_name`, wherever a module binds it),
    and the only `GroupElement`s built are generators and grading elements
    (the BV coset representatives stay int vectors, and the 12,288 members
    of the mirror's sigma G are never wrapped)."""
    sectors = []
    built = []
    canonical = GroupElement._canonical

    def counting_canonical(self, num, den):
        canonical(self, num, den)
        built.append(self)

    for name, module in list(sys.modules.items()):
        if (name == "lgmirror" or name.startswith("lgmirror.")) and hasattr(module, "state_name"):
            monkeypatch.setattr(module, "state_name", lambda *args: sectors.append(args))
    monkeypatch.setattr(GroupElement, "_canonical", counting_canonical)
    model = build_bv(E1, OCTIC, block_j_elements(WS1, WS_OCTIC))
    assert verdict(model).passed
    monkeypatch.undo()
    assert sectors == []
    allowed = _allowed_elements(build_bv(E1, OCTIC, block_j_elements(WS1, WS_OCTIC)))
    assert set(built) <= allowed
    assert len(built) <= 2 * len(allowed)


@pytest.mark.parametrize("verdict", [verify_theorem1, verify_bv_mirror, verify_lgcy])
def test_cold_verdicts_walk_no_group_in_full(monkeypatch, verdict):
    """theorem1, bvms and lgcy on a fresh E1 x OCTIC model count sector
    classes on the lattice and list only coset minima: every `_walk` they
    make is bounded, and the 12,288 elements of the mirror's sigma G are
    never listed."""
    walked = count_walks(monkeypatch)
    model = build_bv(E1, OCTIC, block_j_elements(WS1, WS_OCTIC))
    assert verdict(model).passed
    assert walked == []


def _load_tracer():
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_still_binds_the_sweep(monkeypatch):
    """The benchmark's tracer wraps `build_state_space` and `poincare_table`
    by name and reads `sector_dims`, `rings` and `dim` of every space; on
    Theorem 1 for E1 x K3A its counters keep the values they had when every
    sector was swept one by one."""
    tracer_module = _load_tracer()
    # let monkeypatch restore every binding the tracer replaces
    for name, module in list(sys.modules.items()):
        if name == "lgmirror" or name.startswith("lgmirror."):
            for var, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, var, value)
    for klass in (frobenius.BAlgebra, milnor.MilnorRing):
        for attr, value in list(vars(klass).items()):
            if callable(value):
                monkeypatch.setattr(klass, attr, value)
    tracer = tracer_module.Tracer()
    tracer.install()
    model = build_bv(E1, K3, block_j_elements(WS1, WS2))
    assert verify_theorem1(model).passed
    summary = tracer.summary()
    assert summary["bindings"]["statespace.build_state_space"] >= 1
    assert summary["bindings"]["statespace.poincare_table"] >= 1
    counts = summary["counts"]
    assert counts["statespace.sectors"] == 936
    assert counts["statespace.fixed_loci"] == 100
    assert counts["statespace.basis_dim"] == 272


def _unread(*args, **kwargs):
    raise AssertionError("this view is not the verdict's")


def test_table_verdicts_list_no_state(monkeypatch):
    """Theorem 1 and LG/CY on the census stride read the counted view only:
    no block ring's monomials are listed and no monomials are multiplied."""
    monkeypatch.setattr(statespace.Invariants, "monomials", _unread)
    monkeypatch.setattr(statespace, "convolve_monomials", _unread)
    for model in _census_models():
        assert verify_theorem1(model).passed and verify_lgcy(model).passed
        assert model.space("A")._kept is None


def test_state_verdicts_run_no_count_join(monkeypatch):
    """The twist isomorphism (A and B) on E1 x K3A reads the listed view
    only, its dimensions included: no block ring is counted and no counts
    are convolved.  Theorem 2 reads the model's A space only through
    property 1, on the counted view, so it lists no A state."""
    with monkeypatch.context() as patch:
        patch.setattr(statespace.Invariants, "counts", _unread)
        patch.setattr(statespace, "convolve_counts", _unread)
        for flavor in ("A", "B"):
            model = build_bv(E1, K3, block_j_elements(WS1, WS2))
            assert bvlg.verify_twist_iso(model, flavor).passed
            assert model.space(flavor)._degrees is None
    model = build_bv(E1, K3, block_j_elements(WS1, WS2))
    assert frobenius.verify_theorem2(model).passed
    assert model.space("A")._kept is None


def test_half_products_keyed_by_size_fail(monkeypatch, capsys):
    """A memo of half-locus count products keyed by the size of the
    half-locus, not the half-locus, lets loci share stale halves: Theorem 1
    on E1 x K3A, which reads counts only, must report a mismatch (exit 1),
    not a precondition."""
    from lgmirror.cli import main

    half_product = statespace.half_product

    def stale(products, invariant, leaf, convolve, parts):
        size = sum(len(part.active) for part in parts)
        if size not in products:
            products[size] = half_product(products, invariant, leaf, convolve, parts)
        return products[size]

    monkeypatch.setattr(statespace, "half_product", stale)
    argv = ["bv", "theorem1", "--w1", str(E1), "--w2", str(K3), "--json"]
    assert main(argv) == 1
    assert '"pass": false' in capsys.readouterr().out


def test_verdicts_sort_and_walk_no_assembled_ring(monkeypatch):
    """After Theorem 1 and bvms on E1 x OCTIC, no ring assembled from two or
    more blocks has walked its standard monomials or sorted the union of
    its blocks' reduced bases: neither is read by a count."""
    made = []
    init = milnor.MilnorRing.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(milnor.MilnorRing, "__init__", recording)
    model = build_bv(E1, OCTIC, block_j_elements(WS1, WS_OCTIC))
    assert verify_theorem1(model).passed
    assert verify_bv_mirror(model).passed
    assembled = [ring for ring in made if ring.parts]
    assert assembled
    assert all(ring._basis is None and ring._entries is None for ring in assembled)
