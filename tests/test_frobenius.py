from fractions import Fraction

import pytest

from lgmirror.bvlg import build_bv
from lgmirror.cli import main
import lgmirror.frobenius as frobenius
from lgmirror.frobenius import (
    BAlgebra,
    MixedSpaces,
    MultiTermProduct,
    NotBasisElement,
    OddElement,
    associativity_and_frobenius,
    gamma_lemma_cases,
    phi_bar,
    verify_theorem2,
)
from lgmirror.milnor import MilnorRing
from lgmirror.polyring import parse_polynomial, weight_system
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
    z2_grading,
)

E1 = parse_polynomial("x0^2+x1^3+x2^6")
K3 = parse_polynomial("y0^2+y1^6+y2^6+y3^6")
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
    C = alg.structure_constants()
    u = alg.unit()
    x = alg.at[(0,), (1,)]
    assert C[u][x] == (x, 1)
    assert C[x][u] == (x, 1)
    assert x not in C[x]  # nf(x^2) = 0 in Q(x^3)


def test_pairing_examples():
    space, alg = x3_algebra()
    P = alg.pairing_table()
    one = alg.at[(0,), (0,)]
    x = alg.at[(0,), (1,)]
    assert P[one][x] == Fraction(1, 3)
    assert one not in P[one]


def test_pairing_sector_orthogonality():
    m = build_bv(E1, MINI, jgens(E1, MINI))
    mirror = m.mirror()
    b0 = build_state_space(mirror.poly, mirror.sigma_group, "B")
    alg = BAlgebra(b0)
    P = alg.pairing_table()
    assert any(P)
    even = list(alg.at)
    for i, row in enumerate(P):
        for j in row:
            assert even[j][0] == neg(even[i][0], alg.L)


def test_even_gram_nondegenerate():
    m = build_bv(E1, K3, jgens(E1, K3))
    mirror = m.mirror()
    b0 = build_state_space(mirror.poly, mirror.sigma_group, "B")
    alg = BAlgebra(b0)
    P = alg.pairing_table()
    n = alg.dim
    gram = [[P[i].get(j, Fraction(0)) for j in range(n)] for i in range(n)]
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
    mirror = m.mirror()
    bhk = transpose_group(m.sigma_group, m.poly)

    class OddShifts(BAlgebra):
        def __init__(self, space):
            super().__init__(space)
            if space.group is mirror.sigma_group:
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
    C = alg.structure_constants()
    targets = {k for row in C for k, _ in row.values()}
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


def test_theorem2_fermat_k3_and_negative_control():
    m = build_bv(E1, K3, jgens(E1, K3))
    report = verify_theorem2(m)
    assert report.passed, report.mismatches
    assert report.details["associativity_failures"] == 0
    assert report.details["frobenius_failures"] == 0
    bad = verify_theorem2(m, rescaled=False)
    assert not bad.passed
    assert bad.details["product_failures"] or bad.details["pairing_failures"]


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


def corrupt_one_entry(C):
    """C with the first entry off the unit row and column doubled."""
    for i, row in enumerate(C[1:], 1):
        for j, (k, c) in row.items():
            if j:
                C[i] = {**row, j: (k, 2 * c)}
                return C
    raise AssertionError("no entry off the unit")


def test_corrupted_single_term_entry_fails_the_contraction(monkeypatch, capsys):
    m = build_bv(E1, K3, jgens(E1, K3))
    mirror = m.mirror()
    alg = BAlgebra(build_state_space(mirror.poly, mirror.sigma_group, "B"))
    assert alg.unit() == 0
    C, P = alg.structure_constants(), alg.pairing_table()
    assert associativity_and_frobenius(C, P) == (0, 0)
    assoc, frob = associativity_and_frobenius(corrupt_one_entry(C), P)
    assert assoc > 0 and frob > 0

    original = BAlgebra.structure_constants
    monkeypatch.setattr(BAlgebra, "structure_constants", lambda self: corrupt_one_entry(original(self)))
    report = verify_theorem2(m)
    assert not report.passed
    assert report.details["associativity_failures"] > 0
    assert main([*E1K3A_ARGV, "--json"]) == 1
    capsys.readouterr()


def test_passing_theorem2_builds_no_sector_element(monkeypatch):
    """A passing Theorem 2, with the mirror and the A space prebuilt, names
    no state (`state_name`) and builds only the generators of the BHK dual
    group (sigma G)^T as `GroupElement`s: 4 on E1 x K3A, 3 on the
    nonproduct model."""
    named, built = [], []
    canonical = GroupElement._canonical

    def counting_canonical(self, num, den):
        canonical(self, num, den)
        built.append(self)

    for module in (statespace, frobenius):
        monkeypatch.setattr(module, "state_name", lambda *args: named.append(args))
    for model, count in ((build_bv(E1, K3, jgens(E1, K3)), 4), (nonproduct_model(), 3)):
        model.mirror()
        model.space("A")
        built.clear()
        monkeypatch.setattr(GroupElement, "_canonical", counting_canonical)
        assert verify_theorem2(model).passed
        monkeypatch.setattr(GroupElement, "_canonical", canonical)
        assert named == []
        assert len(built) == count
        assert set(built) == set(transpose_group(model.sigma_group, model.poly).gens)
