import random
from fractions import Fraction

import pytest

from lgmirror import symmetry
from lgmirror.polyring import WeightSystem, parse_polynomial, transpose, weight_system
from lgmirror.symmetry import (
    EnumerationCapExceeded,
    GroupElement,
    _greedy_group,
    age,
    bv_cosets,
    element_in_gmax,
    fixed_indices,
    gmax,
    int_vectors,
    is_b_admissible,
    j_element,
    minimal_generators,
    parse_group_elements,
    sl_subgroup,
    span,
    transpose_group,
)

E1 = parse_polynomial("x0^2+x1^3+x2^6")
K3 = parse_polynomial("y0^2+y1^6+y2^6+y3^6")
CHAIN = parse_polynomial("x^3+x*y^4")


def test_group_element_canonical():
    g = GroupElement([Fraction(3, 2), Fraction(-1, 3), 0])
    assert g.components == (Fraction(1, 2), Fraction(2, 3), 0)


def test_parse_group_elements():
    gens = parse_group_elements("1/2,1/3,1/6;0,1/3,1/3", 3)
    assert len(gens) == 2
    assert gens[0].components == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))


def test_gmax_orders():
    assert gmax(E1).order == 36
    assert gmax(K3).order == 432
    assert gmax(CHAIN).order == 12


def test_gmax_order_is_determinant():
    from lgmirror.polyring import exponent_matrix, _int_det

    for poly in (E1, K3, CHAIN):
        det = _int_det(exponent_matrix(poly))
        assert gmax(poly).order == abs(det)


def test_gmax_lattice_of_a_square_matrix_is_that_of_its_gram_matrix():
    """For a square A, Gmax taken modulo |det A| has the exponent and the
    echelon basis of Gmax taken modulo det(A^T A), on the ladder blocks, the
    stride of invertible K3 samples times E1 and E2, and their transposes."""
    from lgmirror.catalog import enumerate_k3_systems, filter_bv_invertible, sample_polynomial
    from lgmirror.polyring import _int_det, direct_sum, exponent_matrix

    from test_oracles import E2, OCTIC, OVERCAP

    polys = [E1, K3, CHAIN, direct_sum(E1, K3), direct_sum(E1, OCTIC), direct_sum(E2, OVERCAP)]
    for record in filter_bv_invertible(enumerate_k3_systems())[::3]:
        k3 = sample_polynomial(record.weight_system)
        polys += [direct_sum(E1, k3), direct_sum(E2, k3)]
    polys += [transpose(p) for p in polys]
    for poly in polys:
        rows, n = exponent_matrix(poly), poly.nvars
        assert len(rows) == n
        gram = abs(_int_det([[sum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]))
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert symmetry._gmax_lattice(poly) == symmetry._lattice(n, gram, identity, rows)


def test_gmax_membership_definition():
    # every enumerated element satisfies the defining integrality condition
    for poly in (E1, CHAIN):
        group = gmax(poly)
        for v in group.vectors:
            assert element_in_gmax(poly, GroupElement._raw(v, group.L))


def test_gmax_chain_example_element():
    g = GroupElement([Fraction(1, 3), Fraction(1, 6)])
    assert g in gmax(CHAIN)


def test_gmax_brute_force_small():
    # brute-force scan of denominators <= 12 agrees with the SNF route
    found = set()
    for a in range(12):
        for b in range(12):
            g = GroupElement([Fraction(a, 12), Fraction(b, 12)])
            if element_in_gmax(CHAIN, g):
                found.add(g)
    group = gmax(CHAIN)
    assert found == {GroupElement._raw(v, group.L) for v in group.vectors}


def test_j_element():
    assert j_element(WeightSystem((3, 2, 1), 6)).components == (
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 6),
    )
    assert j_element(WeightSystem((2, 1, 1), 4)).components == (
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 4),
    )


def test_j_in_gmax():
    for poly in (E1, K3, CHAIN):
        assert j_element(weight_system(poly)) in gmax(poly)


def test_age():
    ws = weight_system(E1)
    assert age(j_element(ws)) == 1
    assert age(GroupElement([0] * 3)) == 0
    assert age(GroupElement([Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)])) == 2


def test_sl_subgroup_index():
    sl = sl_subgroup(gmax(E1))
    assert sl.order == 6
    assert GroupElement([0] * 3) in sl
    assert all(sum(v) % sl.L == 0 for v in sl.vectors)


def test_span():
    ws = weight_system(E1)
    j = j_element(ws)
    assert span(3, [j]).order == 6
    assert span(3, []).order == 1
    g1 = GroupElement([Fraction(1, 2), 0, 0])
    g2 = GroupElement([0, Fraction(1, 3), 0])
    assert span(3, [g1, g2]).order == 6


def test_fixed_indices():
    assert fixed_indices(GroupElement([0] * 3)) == (0, 1, 2)
    ws = weight_system(E1)
    assert fixed_indices(j_element(ws)) == ()
    assert fixed_indices(GroupElement([Fraction(1, 2), 0, Fraction(1, 2)])) == (1,)


def test_transpose_group_j_is_sl():
    # (J_W)^T = SL(W^T)
    for poly in (E1, K3, CHAIN):
        ws = weight_system(poly)
        j_grp = span(poly.nvars, [j_element(ws)])
        dual = transpose_group(j_grp, poly)
        expected = sl_subgroup(gmax(transpose(poly)))
        assert (dual.L, dual.vectors) == (expected.L, expected.vectors)


def test_transpose_group_gmax_is_trivial():
    dual = transpose_group(gmax(E1), E1)
    assert dual.order == 1


def test_transpose_involution_on_random_subgroups():
    rng = random.Random(5)
    for poly in (E1, CHAIN):
        big = gmax(poly)
        ws = weight_system(poly)
        j = j_element(ws)
        for _ in range(8):
            gens = [j] + [GroupElement._raw(v, big.L) for v in rng.sample(big.vectors, 2)]
            sub = span(poly.nvars, gens)
            dual = transpose_group(sub, poly)
            back = transpose_group(dual, transpose(poly))
            assert (back.L, back.vectors) == (sub.L, sub.vectors)


def test_duality_exchanges_admissibility():
    # J subset G  <=>  G^T subset SL(W^T)
    rng = random.Random(9)
    for poly in (E1, K3):
        big = gmax(poly)
        ws = weight_system(poly)
        j = j_element(ws)
        sl_t = sl_subgroup(gmax(transpose(poly)))
        for _ in range(6):
            gens = [GroupElement._raw(v, big.L) for v in rng.sample(big.vectors, 2)]
            sub = span(poly.nvars, gens)
            dual = transpose_group(sub, poly)
            assert (j in sub) == dual.is_subgroup_of(sl_t)


def test_minimal_generators_respan():
    g = gmax(K3)
    gens = minimal_generators(g)
    respanned = span(4, gens)
    assert (respanned.L, respanned.vectors) == (g.L, g.vectors)
    assert len(gens) <= 5


def test_group_from_elements():
    sl = sl_subgroup(gmax(E1))
    rebuilt = _greedy_group(3, *int_vectors([GroupElement._raw(v, sl.L) for v in sl.vectors]))
    assert (rebuilt.L, rebuilt.vectors) == (sl.L, sl.vectors)
    respanned = span(3, rebuilt.gens)
    assert (respanned.L, respanned.vectors) == (sl.L, sl.vectors)


def test_admissibility_predicates():
    ws = weight_system(E1)
    j_grp = span(3, [j_element(ws)])
    assert j_element(ws) in j_grp
    assert is_b_admissible(j_grp)  # CY: age j = 1, all powers integral age
    assert not is_b_admissible(gmax(E1))


def test_membership_needs_the_same_variable_count():
    """An element or a group on a different number of variables is never a
    member or a subgroup, in either direction, and nothing raises."""
    half = Fraction(1, 2)
    short = span(2, [GroupElement([half, half])])
    long = span(3, [GroupElement([half, half, half])])
    assert GroupElement([half, half]) not in long
    assert GroupElement([half, half, half]) not in short
    assert GroupElement([half, half, half, 0]) not in long
    assert not short.is_subgroup_of(long)
    assert not long.is_subgroup_of(short)
    assert short.is_subgroup_of(short) and long.is_subgroup_of(long)


def test_bv_cosets_structure():
    # sigma-extension of J1 x J2 for the Fermat elliptic x K3 pair
    from lgmirror.polyring import direct_sum

    w = direct_sum(E1, K3)
    ws1 = weight_system(E1)
    ws2 = weight_system(K3)
    j1 = GroupElement(list(j_element(ws1).components) + [0] * 4)
    j2 = GroupElement([0] * 3 + list(j_element(ws2).components))
    j_grp = span(7, [j1, j2])
    sigma = GroupElement([Fraction(1, 2), 0, 0, Fraction(1, 2), 0, 0, 0])
    sg = span(7, [j1, j2, sigma])
    assert sg.order == 72
    reps = bv_cosets(sg, j_grp, (0, 3), sigma)
    assert sg.L == 6
    assert reps == [(0, 0, 0, 0, 0, 0, 0), (3, 0, 0, 3, 0, 0, 0)]
    m = len(reps) // 2
    shift = [a * (sg.L // sigma.den) for a in sigma.num]
    for r in reps[:m]:
        assert r[0] == 0 and r[3] == 0
    for a, b in zip(reps[:m], reps[m:]):
        assert b == tuple((x + y) % sg.L for x, y in zip(shift, a))
    assert 2 * m * j_grp.order == sg.order


def count_walks(monkeypatch):
    """Orders of the lattices walked in full (`_walk` without a bound, as
    `SymmetryGroup.vectors` does) from now on."""
    walked = []
    walk = symmetry._walk

    def counted(basis, L, bound=None):
        vecs = walk(basis, L, bound)
        if bound is None:
            walked.append(len(vecs))
        return vecs

    monkeypatch.setattr(symmetry, "_walk", counted)
    return walked


def test_cap_is_checked_on_the_order_before_any_walk(monkeypatch):
    """span, gmax and transpose_group pass at cap |G| and raise at |G| - 1,
    walking nothing when they raise."""
    ws = weight_system(K3)
    j_grp = span(4, [j_element(ws)])
    gens = gmax(K3).gens
    order = span(4, gens).order
    dual_order = transpose_group(j_grp, K3).order
    walked = count_walks(monkeypatch)
    monkeypatch.setenv("LGMIRROR_MAX_GROUP", str(order))
    assert span(4, gens).order == order
    assert gmax(K3).order == order
    monkeypatch.setenv("LGMIRROR_MAX_GROUP", str(order - 1))
    with pytest.raises(EnumerationCapExceeded, match=f"{order} exceeds cap {order - 1}"):
        span(4, gens)
    with pytest.raises(EnumerationCapExceeded, match=f"{order} exceeds cap {order - 1}"):
        gmax(K3)
    assert walked == []
    monkeypatch.setenv("LGMIRROR_MAX_GROUP", str(dual_order - 1))
    with pytest.raises(EnumerationCapExceeded, match=f"{dual_order} exceeds cap"):
        transpose_group(j_grp, K3)
    assert walked == []
    monkeypatch.setenv("LGMIRROR_MAX_GROUP", str(dual_order))
    assert transpose_group(j_grp, K3).order == dual_order
    assert walked == []


def test_mirror_walks_no_dual_lattice(monkeypatch):
    """E1 x OCTIC: the 6,144-element dual G^T gets its greedy generators
    from its lattice, and the mirror model spans them as sigma(G^T); no
    group is walked."""
    from lgmirror.bvlg import block_j_elements, build_bv

    octic = parse_polynomial("y0^2+y1^8+y2^8+y3^8+y4^8")
    model = build_bv(E1, octic, block_j_elements(weight_system(E1), weight_system(octic)))
    walked = count_walks(monkeypatch)
    mirror = model.mirror()
    assert (mirror.group.order, mirror.sigma_group.order) == (6144, 12288)
    assert walked == []
    assert len(mirror.sigma_group.vectors) == 12288
    assert walked == [12288]
    assert not hasattr(symmetry, "_close_int")
