"""The dual groups and Milnor bases against the filters they replaced.

`transpose_group` builds G^T from the kernel of its constraint lattice and
`MilnorRing` walks the staircase of its leading-term ideal.  The oracles
here are the enumerate-then-filter versions: G^T as the elements of an
enumerated Gmax(W^T) that pair integrally with every generator of G, and
the standard monomials as the monomials of the pure-power box that no
leading term divides.  Elements, generators and basis order must agree.
"""

import math
from fractions import Fraction
from itertools import product

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from lgmirror.bvlg import block_j_elements, build_bv
from lgmirror.catalog import _block_polynomials
from lgmirror.milnor import fermat_milnor_number, milnor_ring
from lgmirror.polyring import (
    Polynomial,
    WeightSystem,
    _head_aligned_rows,
    exponent_matrix,
    is_invertible,
    parse_polynomial,
    transpose,
    weight_system,
)
from lgmirror.symmetry import (
    GroupElement,
    fixed_indices,
    gmax,
    group_from_elements,
    j_element,
    parse_group_elements,
    sl_subgroup,
    smith_normal_form,
    span,
    transpose_group,
)

E1 = parse_polynomial("x0^2+x1^3+x2^6")
E2 = parse_polynomial("x0^2+x1^4+x2^4")
K3A = parse_polynomial("y0^2+y1^6+y2^6+y3^6")
NONPRODUCT = "1/2,1/4,1/4,0,0,0,0;0,0,0,1/2,1/6,1/6,1/6;0,1/4,3/4,0,1/6,5/6,0"


def enumerated_gmax(poly):
    """(L, int vectors mod L) of Gmax(W): the direct product of the cyclic
    groups of its Smith normal form generators."""
    n = poly.nvars
    diag, v = smith_normal_form(exponent_matrix(poly))
    L = math.lcm(*diag)
    elems = [(0,) * n]
    for i, d in enumerate(diag):
        vec = [v[j][i] * (L // d) for j in range(n)]
        elems = [
            tuple((a + k * b) % L for a, b in zip(base, vec))
            for base in elems
            for k in range(d)
        ]
    assert len(set(elems)) == math.prod(diag)
    return L, elems


def filtered_dual(group, poly):
    """{g in Gmax(W^T) : g A_W h integral for every generator h of G}."""
    aligned = _head_aligned_rows(poly, exponent_matrix(poly))
    L, vecs = enumerated_gmax(transpose(poly))
    constraints = []
    for h in group.gens:
        cnum = [sum(a * b for a, b in zip(row, h.num)) for row in aligned]
        constraints.append((cnum, L * h.den))
    kept = [
        GroupElement._raw(vec, L)
        for vec in vecs
        if all(sum(a * b for a, b in zip(vec, c)) % m == 0 for c, m in constraints)
    ]
    return group_from_elements(group.n, kept)


def box_basis(ring):
    """Monomials of the pure-power box not divided by any leading term,
    sorted by (weighted degree, monomial)."""
    n = ring.poly.nvars
    if not ring.active:
        return ((0,) * n,)
    lead = ring.lead_monomials
    ranges = []
    for i in ring.active:
        pure = [
            lt[i] for lt in lead
            if lt[i] and all(e == 0 for j, e in enumerate(lt) if j != i)
        ]
        ranges.append(range(min(pure)))
    out = []
    for exps in product(*ranges):
        m = [0] * n
        for i, e in zip(ring.active, exps):
            m[i] = e
        m = tuple(m)
        if not any(all(a <= b for a, b in zip(lt, m)) for lt in lead):
            out.append(m)
    out.sort(key=lambda m: (ring.wdeg(m), m))
    return tuple(out)


def assert_same_dual(group, poly):
    dual = transpose_group(group, poly)
    oracle = filtered_dual(group, poly)
    assert dual.elements == oracle.elements
    assert dual.gens == oracle.gens
    return dual


def assert_same_bases(poly, group, ws):
    """Every fixed locus of G: the walk's basis is the box's, in order."""
    for fixed in sorted({fixed_indices(g) for g in group}):
        ring = milnor_ring(poly, active=fixed, ws=ws)
        assert ring.basis == box_basis(ring)
        top = max(ring.wdeg(m) for m in ring.basis)
        assert [m for m in ring.basis if ring.wdeg(m) == top] == [ring.socle]


def fermat_mu(ws, fixed):
    """mu of a Fermat potential restricted to the fixed coordinates."""
    if not fixed:
        return 1
    sub = [ws.weights[i] for i in fixed]
    g = math.gcd(ws.degree, *sub)
    return fermat_milnor_number(WeightSystem(tuple(w // g for w in sub), ws.degree // g))


def _models():
    e1k3a = build_bv(E1, K3A, block_j_elements(weight_system(E1), weight_system(K3A)))
    nonproduct = build_bv(E2, K3A, parse_group_elements(NONPRODUCT, 7))
    return {"e1k3a": e1k3a, "nonproduct": nonproduct}


def test_dual_groups_match_filter_on_bv_models():
    for model in _models().values():
        for group in (model.group, model.sigma_group):
            dual = assert_same_dual(group, model.poly)
            back = assert_same_dual(dual, transpose(model.poly))
            assert back.elements == group.elements


def test_milnor_bases_match_box_on_every_fixed_locus():
    for model in _models().values():
        assert_same_bases(model.poly, model.sigma_group, model.ws)
        dual = transpose_group(model.sigma_group, model.poly)
        mirror_poly = transpose(model.poly)
        mirror_ws = weight_system(mirror_poly)
        assert_same_bases(mirror_poly, dual, mirror_ws)
        # both sides are Fermat: mu is the product formula on every locus
        for poly, group, ws in (
            (model.poly, model.sigma_group, model.ws),
            (mirror_poly, dual, mirror_ws),
        ):
            for fixed in {fixed_indices(g) for g in group}:
                ring = milnor_ring(poly, active=fixed, ws=ws)
                assert ring.mu == fermat_mu(ws, fixed)


def test_milnor_basis_chain_and_loop():
    for text in ("x^3+x*y^4", "x^2*y+y^3*z+z^4", "x^3*y+y^3*z+z^3*x"):
        poly = parse_polynomial(text)
        ring = milnor_ring(poly)
        assert ring.basis == box_basis(ring)


# Calabi-Yau weight systems (sum of weights = degree, every weight dividing
# the degree) on at most four variables, so J lies in SL and
# Gmax stays in the thousands
CY_WEIGHTS = sorted(
    (d, ws)
    for d in (4, 6, 8, 12)
    for n in (2, 3, 4)
    for ws in product([w for w in range(1, d // 2 + 1) if d % w == 0], repeat=n)
    if sum(ws) == d and list(ws) == sorted(ws, reverse=True) and math.gcd(*ws) == 1
)


@st.composite
def invertible_models(draw):
    """(W, G): W a sum of Fermat, chain and loop blocks of a CY weight
    system, G generated by J and up to two random elements of SL."""
    d, weights = draw(st.sampled_from(CY_WEIGHTS))
    n = len(weights)
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
    blocks = [sorted(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    terms = {}
    for block in blocks:
        options = list(_block_polynomials(weights, tuple(block), d))
        assume(options)
        _, block_terms = draw(st.sampled_from(options))
        for term in block_terms:
            mono = [0] * n
            for var, e in term.items():
                mono[var] = e
            assume(tuple(mono) not in terms)
            terms[tuple(mono)] = Fraction(1)
    poly = Polynomial(tuple(f"x{i}" for i in range(n)), terms)
    assume(is_invertible(poly))
    ws = weight_system(poly)
    sl = sl_subgroup(gmax(poly))
    extra = draw(st.lists(st.sampled_from(sl.elements), max_size=2))
    return poly, ws, span(n, [j_element(ws)] + extra)


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
@given(invertible_models())
def test_random_invertible_models_match_oracles(model):
    poly, ws, group = model
    assert group.is_subgroup_of(sl_subgroup(gmax(poly)))
    dual = assert_same_dual(group, poly)
    back = assert_same_dual(dual, transpose(poly))
    assert back.elements == group.elements
    assert_same_bases(poly, group, ws)
    assert_same_bases(transpose(poly), dual, weight_system(transpose(poly)))
