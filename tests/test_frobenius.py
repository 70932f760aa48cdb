from fractions import Fraction

import pytest

import lgmirror.bvlg as bvlg
from lgmirror.bvlg import build_bv, mirror_pair, verify_theorem1
from lgmirror.cli import main
import lgmirror.frobenius as frobenius
from lgmirror.frobenius import (
    BAlgebra,
    MixedSpaces,
    MultiTermProduct,
    NotBasisElement,
    OddElement,
    gamma_lemma_cases,
    identity_failures,
    phi_bar,
    verify_theorem2,
)
from lgmirror.milnor import MilnorRing
from lgmirror.polyring import parse_polynomial, restrict, transpose, weight_system
import lgmirror.statespace as statespace
from lgmirror.statespace import build_state_space
from lgmirror.symmetry import GroupElement, j_element, span, transpose_group
from test_oracles import (
    EagerSpace,
    action_weight,
    add,
    as_vector,
    check_property1,
    even_basis,
    neg,
    phi_map,
    unscaled_phi_bar,
    z2_grading,
)

E1 = parse_polynomial("x0^2+x1^3+x2^6")
K3 = parse_polynomial("y0^2+y1^6+y2^6+y3^6")
CHAIN_K3 = parse_polynomial("y0^2+y1^3*y2+y2^10+y3^10")  # a census sample, weights (5,3,1,1;10)
MINI = parse_polynomial("y0^2+y1^2")
X3 = parse_polynomial("x^3")


def jgens(w1, w2):
    ws1, ws2 = weight_system(w1), weight_system(w2)
    j1 = GroupElement([Fraction(w, ws1.degree) for w in ws1.weights] + [0] * w2.nvars)
    j2 = GroupElement([0] * w1.nvars + [Fraction(w, ws2.degree) for w in ws2.weights])
    return [j1, j2]


def x3_algebra():
    space = build_state_space(X3, span(1, []), "B")
    return space, BAlgebra(space)


def test_z2_grading_examples():
    narrow = ((3, 2, 1), (0, 0, 0))  # (1/2, 1/3, 1/6) over 6
    assert z2_grading(narrow, 3, "A") == 0  # N_g = 0
    broad = ((0, 0, 0), (0, 0, 0))
    assert z2_grading(broad, 3, "A") == 1  # N = 3
    b_identity = ((0,) * 5, (0,) * 5)
    assert z2_grading(b_identity, 5, "B") == 0  # N - N_g = 0


def test_gamma_identity_is_one():
    space, alg = x3_algebra()
    e = (0,)
    assert alg.gamma(e, e) == 1

    m = build_bv(E1, K3, jgens(E1, K3))
    mirror = m.mirror()
    b0 = build_state_space(mirror.poly, mirror.sigma_group, "B")
    alg0 = BAlgebra(b0)
    ident = (0,) * 7
    for g in sorted({v for v, _ in EagerSpace(b0).basis})[:6]:
        assert alg0.gamma(ident, g) == 1


def test_gamma_condition_fails_to_zero():
    m = build_bv(E1, K3, jgens(E1, K3))
    mirror = m.mirror()
    b0 = build_state_space(mirror.poly, mirror.sigma_group, "B")
    alg0 = BAlgebra(b0)
    L = alg0.L
    narrow = [v for v, _ in EagerSpace(b0).basis if all(v)]
    g = narrow[0]
    h = next(h for h in narrow if any(add(g, h, L)))
    # both narrow and gh narrow: the union of fixed sets misses everything
    if all(add(g, h, L)):
        assert alg0.gamma(g, h) == 0


def test_product_unit_and_nilpotent():
    space, alg = x3_algebra()
    d, rows = alg.products((0,), (0,))
    u = alg.unit()
    x = alg.at[(0,), (1,)]
    assert d == 1
    assert (x, x, 1) in rows[u]
    assert (u, x, 1) in rows[x]
    assert x not in [k2 for k2, _, _ in rows[x]]  # nf(x^2) = 0 in Q(x^3)


def test_pairing_examples():
    space, alg = x3_algebra()
    d, rows = alg.pairings((0,))
    one = alg.at[(0,), (0,)]
    x = alg.at[(0,), (1,)]
    assert (rows[one], d) == ([(x, 1)], 3)  # 1/3
    assert one not in [k2 for k2, _ in rows[one]]


def test_pairing_sector_orthogonality():
    m = build_bv(E1, MINI, jgens(E1, MINI))
    mirror = m.mirror()
    b0 = build_state_space(mirror.poly, mirror.sigma_group, "B")
    alg = BAlgebra(b0)
    nonzero = alg.nonzero_products()
    pairings = [alg.row(i, nonzero)[1] for i in range(alg.dim)]
    assert any(pairings)
    even = list(alg.at)
    for i, row in enumerate(pairings):
        for j, _, _ in row:
            assert even[j][0] == neg(even[i][0], alg.L)


def test_even_gram_nondegenerate():
    m = build_bv(E1, K3, jgens(E1, K3))
    mirror = m.mirror()
    b0 = build_state_space(mirror.poly, mirror.sigma_group, "B")
    alg = BAlgebra(b0)
    nonzero = alg.nonzero_products()
    n = alg.dim
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j, p, d in alg.row(i, nonzero)[1]:
            gram[i][j] = Fraction(p, d)
    # exact determinant via fraction Gaussian elimination
    det = Fraction(1)
    mat = [row[:] for row in gram]
    for c in range(n):
        piv = next((i for i in range(c, n) if mat[i][c] != 0), None)
        assert piv is not None
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c]:
                f = mat[i][c] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    assert det != 0


def test_odd_operands_rejected(monkeypatch):
    m = build_bv(E1, MINI, jgens(E1, MINI))
    mirror = m.mirror()
    b0 = build_state_space(mirror.poly, mirror.sigma_group, "B")
    alg = BAlgebra(b0)
    odd = [e for e in EagerSpace(b0).basis if z2_grading(e, 5, "B")]
    assert odd
    assert not any(e in alg.at for e in odd)
    # a rescaling map onto an element outside the even basis stops Theorem
    # 2: here the BV algebra of E1 x K3A leaves out every sigma-shifted one
    m = build_bv(E1, K3, jgens(E1, K3))
    mirror_group = m.mirror().sigma_group
    bhk = transpose_group(m.sigma_group, m.poly)

    class OddShifts(BAlgebra):
        def __init__(self, space):
            super().__init__(space)
            group = space.group  # Theorem 2 builds its own mirror: match by value
            if group.is_subgroup_of(mirror_group) and mirror_group.is_subgroup_of(group):
                for g, mono in list(self.at):
                    if GroupElement._raw(g, self.L) not in bhk:
                        del self.at[g, mono]

    monkeypatch.setattr(frobenius, "BAlgebra", OddShifts)
    with pytest.raises(OddElement, match="to the odd element"):
        verify_theorem2(m)


def test_phi_bar_without_sigma_leaves_the_basis():
    """With the identity for sigma, an element that the two mirrors do not
    share has no image."""
    m = build_bv(E1, K3, jgens(E1, K3))
    mirror = m.mirror()
    alg2 = BAlgebra(build_state_space(mirror.poly, transpose_group(m.sigma_group, m.poly), "B"))
    alg0 = BAlgebra(build_state_space(mirror.poly, mirror.sigma_group, "B"))
    assert phi_bar(alg2, alg0, mirror.sigma)
    with pytest.raises(NotBasisElement, match="nor its sigma-shift"):
        phi_bar(alg2, alg0, GroupElement([0] * 7))


def test_mixed_spaces_rejected():
    space = build_state_space(E1, span(3, [j_element(weight_system(E1))]), "A")
    with pytest.raises(MixedSpaces):
        BAlgebra(space)


def test_z2_additive_on_products():
    m = build_bv(E1, K3, jgens(E1, K3))
    mirror = m.mirror()
    b0 = build_state_space(mirror.poly, mirror.sigma_group, "B")
    alg = BAlgebra(b0)
    # a product landing outside the even basis raises NotBasisElement
    nonzero = alg.nonzero_products()
    targets = {t for i in range(alg.dim) for _, t, _, _ in alg.row(i, nonzero)[0]}
    assert targets
    even = list(alg.at)
    for k in targets:
        assert z2_grading(even[k], 7, "B") == 0


def test_phi_map_cases():
    m = build_bv(E1, K3, jgens(E1, K3))
    mirror = m.mirror()
    shared = {}
    L = mirror.sigma_group.L
    bhk = EagerSpace(build_state_space(mirror.poly, transpose_group(m.sigma_group, m.poly), "B", rings=shared), L)
    bv = EagerSpace(build_state_space(mirror.poly, mirror.sigma_group, "B", rings=shared))
    half = Fraction(1, 2)
    saw = set()
    for e in bhk.basis:
        k, image = phi_map(e, bhk, bv, mirror.sigma)
        v, mono = e
        if image == e:
            assert k == 1
            saw.add("shared")
        else:
            slots_zero = v[mirror.slot1] == 0 and v[mirror.slot2] == 0
            assert k == (half if slots_zero else 2)
            assert image == (add(as_vector(mirror.sigma, L), v, L), mono)
            saw.add("half" if slots_zero else "double")
    assert "shared" in saw and ("half" in saw or "double" in saw)


def test_phi_membership_criterion():
    # <m; g> lies in the BV mirror exactly when j of W1^T fixes m
    m = build_bv(E1, K3, jgens(E1, K3))
    mirror = m.mirror()
    shared = {}
    L = mirror.sigma_group.L
    bhk = EagerSpace(build_state_space(mirror.poly, transpose_group(m.sigma_group, m.poly), "B", rings=shared), L)
    bv = EagerSpace(build_state_space(mirror.poly, mirror.sigma_group, "B", rings=shared))
    for e in bhk.basis:
        fixes = action_weight(mirror.j1, e) == 0
        assert fixes == (e in bv.basis_set)


def nonproduct_model():
    mixer = GroupElement(
        [0, Fraction(1, 4), Fraction(3, 4), 0, Fraction(1, 6), Fraction(5, 6), 0]
    )
    e2 = parse_polynomial("x0^2+x1^4+x2^4")
    return build_bv(e2, K3, jgens(e2, K3) + [mixer])


def test_phi_map_all_three_cases_on_nonproduct_model():
    m = nonproduct_model()
    mirror = m.mirror()
    shared = {}
    L = mirror.sigma_group.L
    bhk = EagerSpace(build_state_space(mirror.poly, transpose_group(m.sigma_group, m.poly), "B", rings=shared), L)
    bv = EagerSpace(build_state_space(mirror.poly, mirror.sigma_group, "B", rings=shared))
    saw = set()
    for e in bhk.basis:
        k, image = phi_map(e, bhk, bv, mirror.sigma)
        if image == e:
            saw.add("shared")
        elif k == Fraction(1, 2):
            saw.add("half")
        elif k == 2:
            saw.add("double")
    assert saw == {"shared", "half", "double"}


def test_theorem2_nonproduct_model():
    # exercises the doubling branch of the rescaling map
    report = verify_theorem2(nonproduct_model())
    assert report.passed, report.mismatches


def test_phi_not_basis_element():
    m = build_bv(E1, MINI, jgens(E1, MINI))
    mirror = m.mirror()
    shared = {}
    L = mirror.sigma_group.L
    bhk = EagerSpace(build_state_space(mirror.poly, transpose_group(m.sigma_group, m.poly), "B", rings=shared), L)
    bv = EagerSpace(build_state_space(mirror.poly, mirror.sigma_group, "B", rings=shared))
    fake = ((0,) * 5, (4, 4, 4, 4, 4))
    with pytest.raises(NotBasisElement):
        phi_map(fake, bhk, bv, mirror.sigma)


def test_property1_fermat_models():
    for text in ("x0^2+x1^3+x2^6", "y0^2+y1^6+y2^6+y3^6"):
        p = parse_polynomial(text)
        g = span(p.nvars, [j_element(weight_system(p))])
        assert check_property1(p, g).passed


def test_property1_bv_model():
    m = build_bv(E1, K3, jgens(E1, K3))
    assert check_property1(m.poly, m.sigma_group, ws=m.ws).passed


def test_property1_chain_counterexample():
    # the j^9 sector (1/3, 0, 0) fixes the chain tail {x2, x3} but not x1
    w = parse_polynomial("x1^3*x2+x2^3*x3+x3^3")
    grp = span(3, [j_element(weight_system(w))])
    report = check_property1(w, grp)
    assert not report.passed
    assert any(v["sector"] == "1/3,0,0" for v in report.mismatches)


def test_theorem2_mini():
    m = build_bv(E1, MINI, jgens(E1, MINI))
    report = verify_theorem2(m)
    assert report.passed, report.mismatches


def test_theorem2_fermat_k3_and_negative_control(monkeypatch):
    m = build_bv(E1, K3, jgens(E1, K3))
    report = verify_theorem2(m)
    assert report.passed, report.mismatches
    assert report.details["associativity_failures"] == 0
    assert report.details["frobenius_failures"] == 0
    monkeypatch.setattr(frobenius, "phi_bar", unscaled_phi_bar)
    bad = verify_theorem2(m)
    assert not bad.passed
    assert bad.details["product_failures"] or bad.details["pairing_failures"]


def test_mirror_polynomial_is_the_transpose_in_equal_weights():
    """Theorem 2 sweeps (sigma G)^T on the mirror's polynomial and weights,
    which are those of W^T."""
    for m in (build_bv(E1, K3, jgens(E1, K3)), nonproduct_model()):
        mirror = m.mirror()
        assert transpose(m.poly) == mirror.poly
        assert weight_system(transpose(m.poly)) == mirror.ws


def test_theorem2_builds_each_mirror_block_ring_once(block_ring_calls):
    """Within one Theorem 2 on E1 x K3A and on E1 x the chain K3, the
    (sigma G)^T sweep and the mirror's B sweep read one mirror ring cache,
    which starts with the model's block rings that the mirror adopts.  So
    once the model's A space is swept, each mirror block ring is built at
    most once, and only where the model has no ring of W^T restricted to
    the block: none on E1 x K3A, where W^T = W, and the chain blocks on the
    chain model.  A mirror is built per verdict and not kept on the model,
    so Theorem 1 before it builds those again: that reuse across verdicts
    is given up to free the mirror's sweeps when each verdict returns."""
    for k3 in (K3, CHAIN_K3):
        m = build_bv(E1, k3, jgens(E1, k3))
        m.space("A")
        assert verify_theorem1(m).passed
        block_ring_calls.clear()
        assert verify_theorem2(m).passed
        assert set(block_ring_calls.values()) <= {1}
        mirror_poly = transpose(m.poly)
        lacking = [b for _, b in block_ring_calls if b not in m.rings or m.rings[b].poly != restrict(mirror_poly, b)]
        assert len(lacking) == len(block_ring_calls)
        assert bool(lacking) == (k3 == CHAIN_K3)


def test_theorem2_joins_the_bhk_mirror_space_once(monkeypatch):
    """Theorem 2 lists the B space of (sigma G)^T once, before property 1
    reads it, and never counts it; the model's A space is counted only.  On
    E1 x the chain K3 y0^2 + y1^4*y2 + y2^7 + y3^7, which lacks property 1,
    the HypothesisFailed message is that of property 1 on spaces built
    afresh (`check_property1`)."""
    built, joins = [], []
    build, join = frobenius.build_state_space, statespace._join

    def recording_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def recording_join(space, leaf, convolve):
        joins.append((space, leaf))
        return join(space, leaf, convolve)

    monkeypatch.setattr(frobenius, "build_state_space", recording_build)
    monkeypatch.setattr(statespace, "_join", recording_join)
    for m in (build_bv(E1, K3, jgens(E1, K3)), nonproduct_model()):
        built.clear()
        assert verify_theorem2(m).passed
        (b2_space,) = built
        assert b2_space._degrees is None and b2_space._kept is not None
        assert [leaf for space, leaf in joins if space is b2_space] == [statespace.Invariants.monomials]
        assert m.space("A")._kept is None
    chain = parse_polynomial("y0^2+y1^4*y2+y2^7+y3^7")
    m = build_bv(E1, chain, jgens(E1, chain))
    with pytest.raises(frobenius.HypothesisFailed) as failed:
        verify_theorem2(m)
    expected = check_property1(m.poly, m.sigma_group, ws=m.ws)
    assert not expected.passed
    assert str(failed.value) == str(frobenius.HypothesisFailed(expected.mismatches))


def test_gamma_lemma_factors():
    m = build_bv(E1, K3, jgens(E1, K3))
    mirror = m.mirror()
    b0 = build_state_space(mirror.poly, mirror.sigma_group, "B")
    alg = BAlgebra(b0)
    sectors = sorted({v for v, _ in even_basis(EagerSpace(b0))})
    checked, failures = gamma_lemma_cases(alg, mirror.sigma)
    assert checked == len(sectors) ** 2
    assert not failures


E1K3A_ARGV = ("bv", "theorem2", "--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y1^6+y2^6+y3^6")


def test_two_term_product_raises(monkeypatch, capsys):
    """A normal form with a second term (here the constant 1, added to every
    nonzero one) names the pair and exits 3."""
    original = MilnorRing.monomial_normal_form

    def two_terms(self, mono):
        nf = original(self, mono)
        zero = (0,) * len(mono)
        return {**nf, zero: Fraction(1)} if nf and zero not in nf else nf

    monkeypatch.setattr(MilnorRing, "monomial_normal_form", two_terms)
    m = build_bv(E1, K3, jgens(E1, K3))
    with pytest.raises(MultiTermProduct, match=r"the product of <.*>B and <.*>B has 2 terms"):
        verify_theorem2(m)
    assert main(list(E1K3A_ARGV)) == 3
    assert "has 2 terms" in capsys.readouterr().err


def corrupt_one_entry(monkeypatch):
    """Double, in every `BAlgebra`, the numerator of the first product off
    the unit's row and column on the locus triple (everything, everything,
    everything) of the identity sector with itself."""
    original = BAlgebra.products

    def corrupted(self, g, h):
        d, rows = original(self, g, h)
        zero = (0,) * self.nvars
        if g == h == zero:
            u = self.unit()
            k1 = next(k for k, row in enumerate(rows) if k != u and any(k2 != u for k2, _, _ in row))
            e = next(e for e, (k2, _, _) in enumerate(rows[k1]) if k2 != u)
            rows = [list(row) for row in rows]
            k2, p, n = rows[k1][e]
            rows[k1][e] = (k2, p, 2 * n)
        return d, rows

    monkeypatch.setattr(BAlgebra, "products", corrupted)


def test_corrupted_single_term_entry_fails_the_contraction(monkeypatch, capsys):
    m = build_bv(E1, K3, jgens(E1, K3))
    mirror = m.mirror()
    alg = BAlgebra(build_state_space(mirror.poly, mirror.sigma_group, "B"))
    assert alg.unit() == 0
    assert identity_failures(alg, alg.nonzero_products()) == (0, 0)
    corrupt_one_entry(monkeypatch)
    alg = BAlgebra(alg.space)
    assoc, frob = identity_failures(alg, alg.nonzero_products())
    assert assoc > 0 and frob > 0

    report = verify_theorem2(m)
    assert not report.passed
    assert report.details["associativity_failures"] > 0
    assert main([*E1K3A_ARGV, "--json"]) == 1
    capsys.readouterr()


def test_product_outside_the_even_basis_raises(monkeypatch, capsys):
    """A product that normalizes to a monomial its locus does not keep, or
    that lands on a locus that is not even, raises NotBasisElement: Theorem 2
    stops (exit 3)."""
    space, alg = x3_algebra()
    alg.nvars += 1  # every locus odd
    with pytest.raises(NotBasisElement, match="lands outside the even basis"):
        alg.products((0,), (0,))
    original = MilnorRing.monomial_normal_form

    def off_basis(self, mono):
        return {tuple([e + 100 for e in b]): c for b, c in original(self, mono).items()}

    monkeypatch.setattr(MilnorRing, "monomial_normal_form", off_basis)
    with pytest.raises(NotBasisElement, match="lands outside the even basis"):
        verify_theorem2(build_bv(E1, K3, jgens(E1, K3)))
    assert main(list(E1K3A_ARGV)) == 3
    assert "lands outside the even basis" in capsys.readouterr().err


def test_passing_theorem2_builds_no_sector_element(monkeypatch):
    """A passing Theorem 2, with the mirror (served by the patched
    `mirror_pair`) and the A space prebuilt, names no state (`state_name`)
    and builds only the generators of the BHK dual group (sigma G)^T as
    `GroupElement`s: 4 on E1 x K3A, 3 on the nonproduct model."""
    named, built = [], []
    canonical = GroupElement._canonical

    def counting_canonical(self, num, den):
        canonical(self, num, den)
        built.append(self)

    for module in (statespace, frobenius):
        monkeypatch.setattr(module, "state_name", lambda *args: named.append(args))
    for model, count in ((build_bv(E1, K3, jgens(E1, K3)), 4), (nonproduct_model(), 3)):
        mirror = mirror_pair(model)
        monkeypatch.setattr(bvlg, "mirror_pair", lambda _, mirror=mirror: mirror)
        model.space("A")
        built.clear()
        monkeypatch.setattr(GroupElement, "_canonical", counting_canonical)
        assert verify_theorem2(model).passed
        monkeypatch.setattr(GroupElement, "_canonical", canonical)
        assert named == []
        assert len(built) == count
        assert set(built) == set(transpose_group(model.sigma_group, model.poly).gens)
