import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from sympy.polys.orderings import MonomialOrder

from lgmirror.milnor import (
    DegenerateSingularity,
    TermOrder,
    components,
    groebner,
    hessian,
    jacobian_ideal,
    milnor_ring,
)
from lgmirror.polyring import Polynomial, WeightSystem, parse_polynomial, weight_system
from test_oracles import fermat_milnor_number, residue_pairing


def ring(poly, active=None, ws=None):
    """The Milnor ring of `poly`, a Polynomial or its text, on `active`
    (every variable by default), graded by `ws` (its own weight system by
    default), in a fresh cache."""
    p = parse_polynomial(poly) if isinstance(poly, str) else poly
    return milnor_ring(p, range(p.nvars) if active is None else active, ws or weight_system(p), {})


def test_jacobian_fermat():
    p = parse_polynomial("x0^2+x1^3+x2^6")
    parts = jacobian_ideal(p, range(p.nvars))
    assert parts[0].terms == {(1, 0, 0): 2}
    assert parts[1].terms == {(0, 2, 0): 3}
    assert parts[2].terms == {(0, 0, 5): 6}


def test_jacobian_chain():
    p = parse_polynomial("x^3+x*y^4")
    parts = jacobian_ideal(p, range(p.nvars))
    assert parts[0].terms == {(2, 0): 3, (0, 4): 1}
    assert parts[1].terms == {(1, 3): 4}


def test_jacobian_constant():
    const = Polynomial(("x", "y"), {(0, 0): 5})
    parts = jacobian_ideal(const, range(const.nvars))
    assert len(parts) == 2
    assert all(q.is_zero() for q in parts)


def test_groebner_monomial_ideal_unchanged():
    p = parse_polynomial("x0^2+x1^3+x2^6")
    order = TermOrder(weight_system(p).weights)
    basis = groebner(jacobian_ideal(p, range(p.nvars)), order)
    assert sorted(lt for lt, _ in basis) == [(0, 0, 5), (0, 2, 0), (1, 0, 0)]


def test_groebner_hand_case():
    # {x^2 + y, y^2}: reducing the S-pair yields x^2 + y, y^2 (already a GB
    # under degrevlex with unit weights: S(x^2+y, y^2) -> y^3 -> 0)
    p1 = Polynomial(("x", "y"), {(2, 0): 1, (0, 1): 1})
    p2 = Polynomial(("x", "y"), {(0, 2): 1})
    basis = groebner([p1, p2], TermOrder((1, 1)))
    leads = sorted(lt for lt, _ in basis)
    assert leads == [(0, 2), (2, 0)]


def test_groebner_empty():
    assert groebner([], TermOrder((1,))) == []


def test_milnor_elliptic():
    r = ring("x0^2+x1^3+x2^6")
    assert r.mu == 10
    expected = {(0, a, b) for a in range(2) for b in range(5)}
    assert set(r.basis) == expected


def test_milnor_k3():
    r = ring("y0^2+y1^6+y2^6+y3^6")
    assert r.mu == 125


def test_milnor_degenerate():
    # x^2*y has no unique weights; (1, 1; 3) grades it
    with pytest.raises(DegenerateSingularity):
        ring("x^2*y", ws=WeightSystem((1, 1), 3))


def test_milnor_chain_matches_weight_formula():
    # quasihomogeneous isolated singularity: mu = prod (1 - q_i)/q_i
    for text in ("x^3*y+y^4", "x^3*y+y^5*z+z^4", "x^2*y+y^2*x"):
        p = parse_polynomial(text)
        ws = weight_system(p)
        expected = 1
        for w in ws.weights:
            expected_frac = expected
        mu = 1
        val = Fraction(1)
        for w in ws.weights:
            val *= Fraction(ws.degree - w, w)
        assert val.denominator == 1
        assert ring(text).mu == val.numerator


def test_milnor_restricted_active():
    r = ring("x0^2+x1^3+x2^6", active=(1,))
    assert r.mu == 2
    assert set(r.basis) == {(0, 0, 0), (0, 1, 0)}


def test_milnor_empty_active():
    r = ring("x0^2+x1^3+x2^6", active=())
    assert r.mu == 1
    assert r.basis == ((0, 0, 0),)
    assert r.socle == (0, 0, 0)


def test_mu_multiplicative_disjoint_sum():
    from lgmirror.polyring import direct_sum

    p = parse_polynomial("x0^2+x1^3+x2^6")
    q = parse_polynomial("y0^2+y1^6+y2^6+y3^6")
    assert ring(direct_sum(p, q)).mu == ring(p).mu * ring(q).mu


def test_components_split_on_shared_monomials():
    p = parse_polynomial("x0^2*x1+x1^3+x2^4+x3^3*x4+x4^3*x3")
    assert components(p, range(5)) == [(0, 1), (2,), (3, 4)]
    # x0^2*x1 is not a monomial on {x0, x2}: x0 is a block of its own
    assert components(p, (0, 2)) == [(0,), (2,)]
    assert components(p, ()) == []


def test_block_rings_go_to_the_cache():
    p = parse_polynomial("x0^2*x1+x1^3+x2^4")
    rings = {}
    ws = weight_system(p)
    r = milnor_ring(p, range(p.nvars), ws, rings)
    assert sorted(rings) == [(0, 1), (0, 1, 2), (2,)]
    assert rings[(0, 1, 2)] is r
    assert [part.active for part in r.parts] == [(0, 1), (2,)]
    assert r.mu == rings[(0, 1)].mu * rings[(2,)].mu == 4 * 3
    assert r.socle == (0, 2, 2)  # x1^2 times x2^2
    assert len(r.basis) == r.mu
    # a second call is served from the cache, a block ring too
    assert milnor_ring(p, range(p.nvars), ws, rings) is r
    assert milnor_ring(p, (2,), ws, rings) is rings[(2,)]
    # a different weight system is not: the ring and its blocks are rebuilt
    flat = WeightSystem((1, 1, 1), 2)
    other = milnor_ring(p, range(p.nvars), flat, rings)
    assert other is not r and other.weights == flat.weights
    assert all(part.weights == flat.weights for part in other.parts)
    assert other.mu == r.mu
    with pytest.raises(DegenerateSingularity):
        milnor_ring(p, (0, 2), weight_system(p), rings)


def test_cache_hit_restricts_nothing(monkeypatch):
    import lgmirror.milnor as milnor

    p = parse_polynomial("x0^2*x1+x1^3+x2^4")
    ws = weight_system(p)
    rings = {}
    r = milnor_ring(p, range(p.nvars), ws, rings)
    calls = []
    original = milnor.restrict

    def counting(poly, fixed):
        calls.append(tuple(fixed))
        return original(poly, fixed)

    monkeypatch.setattr(milnor, "restrict", counting)
    assert milnor_ring(p, range(p.nvars), ws, rings) is r
    assert milnor_ring(p, (2,), ws, rings) is rings[(2,)]
    assert calls == []
    # a miss still restricts
    milnor_ring(p, (1,), ws, rings)
    assert calls


def test_fermat_formula():
    assert fermat_milnor_number(weight_system(parse_polynomial("x0^2+x1^3+x2^6"))) == 10
    assert fermat_milnor_number(weight_system(parse_polynomial("y0^2+y1^6+y2^6+y3^6"))) == 125


def test_normal_form_examples():
    r = ring("x^3")
    assert r.normal_form(parse_polynomial("x^4")).is_zero()
    r2 = ring("x0^2+x1^3+x2^6")
    m = Polynomial(("x0", "x1", "x2"), {(0, 1, 4): 1})
    assert r2.normal_form(m) == m
    p = parse_polynomial("x0^2+x1^3+x2^6")
    for gen in jacobian_ideal(p, range(p.nvars)):
        assert r2.normal_form(gen).is_zero()


def test_normal_form_rejects_an_inactive_variable():
    """A ring on some of the variables reduces only polynomials in those:
    x0 is inactive on the ring of x0^2+x1^3+x2^6 on (x1, x2)."""
    r = ring("x0^2+x1^3+x2^6", active=(1, 2))
    variables = ("x0", "x1", "x2")
    assert r.normal_form(Polynomial(variables, {(0, 1, 4): 1})).terms == {(0, 1, 4): 1}
    for mono in ((1, 0, 0), (1, 1, 0)):
        with pytest.raises(ValueError, match="outside the ring"):
            r.normal_form(Polynomial(variables, {mono: 1, (0, 0, 1): 1}))


def test_monomial_normal_form_remembered_per_ring():
    # the same exponent tuple reduces differently in different rings
    cube, quintic = ring("x^3"), ring("x^5")
    for _ in range(2):
        assert cube.monomial_normal_form((2,)) == {}
        assert quintic.monomial_normal_form((2,)) == {(2,): 1}
    r = ring("x^3*y+y^4")
    for _ in range(2):
        for mono in product(range(5), repeat=2):
            expected = r.normal_form(Polynomial(r.poly.variables, {mono: 1}))
            assert r.monomial_normal_form(mono) == expected.terms


def test_normal_form_idempotent_and_graded():
    r = ring("x^3*y+y^4")
    p = parse_polynomial("x^4+x*y^3")
    nf = r.normal_form(p)
    assert r.normal_form(nf) == nf
    # weighted-degree preservation on quasihomogeneous input
    degrees = {r.wdeg(m) for m in p.terms}
    assert len(degrees) == 1
    deg = degrees.pop()
    assert nf.is_zero() or all(r.wdeg(m) == deg for m in nf.terms)


def test_socle_degree_matches_sum_rule():
    # weighted socle degree equals sum(d - 2 w_i) in w-units
    for text in ("x0^2+x1^3+x2^6", "y0^2+y1^6+y2^6+y3^6", "x^3*y+y^4"):
        ws = weight_system(parse_polynomial(text))
        r = ring(text)
        assert r.wdeg(r.socle) == sum(ws.degree - 2 * w for w in ws.weights)


def test_hessian_one_variable():
    p = parse_polynomial("x^3")
    assert hessian(p, range(p.nvars)).terms == {(1,): 6}


def test_hessian_fermat_diagonal():
    p = parse_polynomial("x0^2+x1^3+x2^6")
    assert hessian(p, range(p.nvars)).terms == {(0, 1, 4): 360}


def test_hessian_empty_convention():
    p = parse_polynomial("x0^2+x1^3+x2^6")
    h = hessian(p, ())
    assert h.terms == {(0, 0, 0): 1}


def test_hessian_offdiagonal_block():
    # W = x^2 y + y^2 x: H = [[2y, 2x+2y],[2x+2y, 2x]]
    p = parse_polynomial("x^2*y+y^2*x")
    h = hessian(p, range(p.nvars))
    direct = p.diff(0).diff(0) * p.diff(1).diff(1) - p.diff(0).diff(1) * p.diff(1).diff(0)
    assert h == direct


def test_residue_pairing_x3():
    r = ring("x^3")
    one = Polynomial(("x",), {(0,): 1})
    x = Polynomial(("x",), {(1,): 1})
    assert residue_pairing(one, x, r) == Fraction(1, 3)
    assert residue_pairing(one, one, r) == 0
    assert residue_pairing(x, one, r) == Fraction(1, 3)


def test_residue_pairing_symmetric_random():
    import random

    rng = random.Random(11)
    r = ring("x0^2+x1^3+x2^6")
    basis = list(r.basis)
    for _ in range(10):
        a = Polynomial(("x0", "x1", "x2"), {rng.choice(basis): 1})
        b = Polynomial(("x0", "x1", "x2"), {rng.choice(basis): 1})
        assert residue_pairing(a, b, r) == residue_pairing(b, a, r)


def gram_matrix(r):
    basis = [Polynomial(r.poly.variables, {m: 1}) for m in r.basis]
    return [[residue_pairing(a, b, r) for b in basis] for a in basis]


def exact_det(mat):
    m = [row[:] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def test_gram_nondegenerate():
    for text in ("x^3", "x0^2+x1^3+x2^6", "x^3*y+y^4"):
        r = ring(text)
        assert exact_det(gram_matrix(r)) != 0


def test_monomial_normal_form_matches_polynomial_normal_form():
    """Every ring of the E1 x K3A state spaces, the A model and the two
    B models Theorem 2 compares: the normal form on exponent tuples is that
    of the one-term Polynomial, on random monomials of the ring's variables."""
    import random

    from lgmirror.bvlg import block_j_elements, build_bv
    from lgmirror.statespace import build_state_space
    from lgmirror.symmetry import transpose_group

    e1 = parse_polynomial("x0^2+x1^3+x2^6")
    k3a = parse_polynomial("y0^2+y1^6+y2^6+y3^6")
    model = build_bv(e1, k3a, block_j_elements(weight_system(e1), weight_system(k3a)))
    mirror = model.mirror()
    rings = list(build_state_space(model.poly, model.sigma_group, "A").rings.values())
    for group in (mirror.sigma_group, transpose_group(model.sigma_group, model.poly)):
        rings += build_state_space(mirror.poly, group, "B").rings.values()
    assert len(rings) > 10
    rng = random.Random(7)
    for r in rings:
        for _ in range(30):
            mono = tuple(rng.randint(0, 8) if k in r.active else 0 for k in range(r.poly.nvars))
            want = r.normal_form(Polynomial(r.poly.variables, {mono: 1})).terms
            assert r.monomial_normal_form(mono) == want


def test_a_locus_on_one_side_is_that_sides_ring(block_ring_calls):
    """A locus that lies on one side of the split and is one block gets its
    ring built once, and the call returns the cached ring of that side."""
    p = parse_polynomial("x0^2+x1^3+x2^6+y0^2+y1^4*y2+y2^7+y3^7")
    ws, rings = weight_system(p), {}
    r = milnor_ring(p, (4, 5), ws, rings, [(4, 5), ()])
    assert r is rings[(4, 5)]
    assert sum(block_ring_calls.values()) == 1
    assert r.basis == ring(p, (4, 5)).basis


class WeightedRevlex(MonomialOrder):
    """`TermOrder.key` as a sympy monomial order: (weighted degree, reversed
    negated exponents).  Equal and hashed by its weights, as sympy caches its
    polynomial rings by their order."""

    alias = "wdegrevlex"
    is_global = True

    def __init__(self, weights):
        self.weights = tuple(weights)

    def __call__(self, mono):
        return (sum(w * e for w, e in zip(self.weights, mono)), tuple(-e for e in reversed(mono)))

    def __eq__(self, other):
        return isinstance(other, WeightedRevlex) and self.weights == other.weights

    def __hash__(self):
        return hash((WeightedRevlex, self.weights))


def sympy_reduced_basis(gens, block, weights):
    """The reduced Groebner basis of the ideal of `gens`, Polynomials in the
    variables of `block` only, computed by sympy in its order of decreasing
    leading term, as {ambient exponent tuple: Fraction} dicts."""
    symbols = sympy.symbols([f"v{i}" for i in block])
    exprs = []
    for g in gens:
        terms = {tuple(m[i] for i in block): sympy.Rational(c.numerator, c.denominator) for m, c in g.terms.items()}
        exprs.append(sympy.Poly.from_dict(terms, *symbols, domain="QQ").as_expr())
    order = WeightedRevlex([weights[i] for i in block])
    out = []
    for poly in sympy.groebner(exprs, *symbols, order=order, domain="QQ").polys:
        terms = {}
        for mono, c in poly.as_dict().items():
            full = [0] * len(weights)
            for i, e in zip(block, mono):
                full[i] = e
            terms[tuple(full)] = Fraction(int(c.p), int(c.q))
        out.append(terms)
    return out


def _block_ideals(monkeypatch):
    """(restricted W, block, weights) of every block ring built by one census
    pass at seed 1 (Theorem 1 and LG/CY on the 15 models of the stride, in
    the benchmark's order), and of every block of the ladder models E1 x K3A,
    E1 x OCTIC and E2 x the over-cap block and their BHK mirrors, once each;
    and the D4 block x^2*y + x*y^2, whose basis needs its tails reduced."""
    import lgmirror.milnor as milnor
    from lgmirror.bvlg import block_j_elements, build_bv, verify_theorem1
    from lgmirror.catalog import enumerate_k3_systems, filter_bv_invertible, sample_polynomial
    from lgmirror.chenruan import verify_lgcy
    from lgmirror.polyring import direct_sum, restrict, transpose
    from test_oracles import E1, E2, K3A, OCTIC, OVERCAP

    ideals = {}
    original = milnor._block_ring

    def recording(poly, block, weights, order):
        if block:  # the empty locus has no ideal
            ideals.setdefault((restrict(poly, block), block, weights), None)
        return original(poly, block, weights, order)

    monkeypatch.setattr(milnor, "_block_ring", recording)
    records = filter_bv_invertible(enumerate_k3_systems())[::3]
    rng = random.Random(1)
    pairs = [(rng.randrange(2), i) for i in range(len(records))]
    rng.shuffle(pairs)
    for c, i in pairs:
        curve, k3 = (E1, E2)[c], sample_polynomial(records[i].weight_system)
        model = build_bv(curve, k3, block_j_elements(weight_system(curve), weight_system(k3)))
        assert verify_theorem1(model).passed and verify_lgcy(model).passed
    census = len(ideals)
    for curve, k3 in ((E1, K3A), (E1, OCTIC), (E2, OVERCAP)):
        for w in (direct_sum(curve, k3), transpose(direct_sum(curve, k3))):
            ws = weight_system(w).weights
            for block in components(w, range(w.nvars)):
                ideals.setdefault((restrict(w, block), block, ws), None)
    d4 = parse_polynomial("x^2*y+x*y^2")
    ideals[d4, (0, 1), weight_system(d4).weights] = None
    assert census >= 30 and len(ideals) > census
    return list(ideals)


def test_groebner_matches_sympy_on_the_census_and_ladder_blocks(monkeypatch):
    """`groebner` on the Jacobian ideal of every block a census pass builds,
    and of every ladder block, is the reduced basis sympy computes in the
    same weighted-degrevlex order, term for term; and with one generator
    dropped it is not (the negative control)."""
    for poly, block, weights in _block_ideals(monkeypatch):
        gens = jacobian_ideal(poly, block)
        want = sympy_reduced_basis(gens, block, weights)
        got = [terms for _, terms in groebner(gens, TermOrder(weights))]
        assert got[::-1] == want, (str(poly), block)
        for k in range(len(gens)):
            dropped = [terms for _, terms in groebner(gens[:k] + gens[k + 1 :], TermOrder(weights))]
            assert dropped[::-1] != want
