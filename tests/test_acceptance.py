"""Acceptance gate: every criterion runs exactly, printing one PASS line."""

import math
import random
import time
from fractions import Fraction

import pytest

from lgmirror.bvlg import (
    build_bv,
    verify_group_lemma,
    verify_theorem1,
    verify_twist_iso,
)
from lgmirror.catalog import (
    enumerate_k3_systems,
    filter_bv,
    filter_bv_invertible,
    sample_polynomial,
)
from lgmirror.chenruan import verify_bv_mirror, verify_lgcy
from lgmirror.frobenius import verify_theorem2
from lgmirror.milnor import milnor_ring
from lgmirror.polyring import (
    Polynomial,
    atomic_decomposition,
    direct_sum,
    parse_polynomial,
    transpose,
    weight_system,
)
from lgmirror.statespace import build_state_space, poincare_table
from lgmirror.symmetry import (
    EnumerationCapExceeded,
    GroupElement,
    gmax,
    j_element,
    sl_subgroup,
    span,
    transpose_group,
)
from test_oracles import fermat_milnor_number, fermat_total, residue_pairing

E1 = parse_polynomial("x0^2+x1^3+x2^6")        # (3,2,1;6)
E2 = parse_polynomial("x0^2+x1^4+x2^4")        # (2,1,1;4)
K3A = parse_polynomial("y0^2+y1^6+y2^6+y3^6")  # (3,1,1,1;6)
K3C = parse_polynomial("y0^2+y1^4+y2^8+y3^8")  # (4,2,1,1;8)
K3D = parse_polynomial("y0^2+y1^5+y2^5+y3^10") # (5,2,2,1;10)
K3E = parse_polynomial("y0^2+y1^4*y2+y2^7+y3^7")  # (7,3,2,2;14), chain block
OCTIC = parse_polynomial("y0^2+y1^8+y2^8+y3^8+y4^8")  # (4,1,1,1,1;8), CY 3-fold block
OVERCAP = parse_polynomial("y0^2+y1^3+y2^12+y3^24+y4^24")  # (12,8,2,1,1;24)


def j_blocks(w1, w2):
    ws1, ws2 = weight_system(w1), weight_system(w2)
    j1 = GroupElement([Fraction(w, ws1.degree) for w in ws1.weights] + [0] * w2.nvars)
    j2 = GroupElement([0] * w1.nvars + [Fraction(w, ws2.degree) for w in ws2.weights])
    return [j1, j2]


def nonproduct_gens():
    # order-12 mixer between the blocks of E2 x K3A: blockwise ages integral,
    # the span is strictly between J1 x J2 and SL x SL and is not a product
    mixer = GroupElement(
        [0, Fraction(1, 4), Fraction(3, 4), 0, Fraction(1, 6), Fraction(5, 6), 0]
    )
    return j_blocks(E2, K3A) + [mixer]


@pytest.fixture(scope="module")
def models():
    built = [
        ("E1xK3A/J", build_bv(E1, K3A, j_blocks(E1, K3A))),
        ("E1xK3C/J", build_bv(E1, K3C, j_blocks(E1, K3C))),
        ("E2xK3A/J", build_bv(E2, K3A, j_blocks(E2, K3A))),
        ("E2xK3C/J", build_bv(E2, K3C, j_blocks(E2, K3C))),
        ("E1xK3D/J", build_bv(E1, K3D, j_blocks(E1, K3D))),
        ("E1xK3E/J", build_bv(E1, K3E, j_blocks(E1, K3E))),
        ("E2xK3A/nonprod", build_bv(E2, K3A, nonproduct_gens())),
    ]
    return built


@pytest.fixture(scope="module")
def octic_model():
    return build_bv(E1, OCTIC, j_blocks(E1, OCTIC))


def test_criterion_01_elliptic_sanity():
    start = time.perf_counter()
    ws = weight_system(E1)
    space = build_state_space(E1, span(3, [j_element(ws)]), "A")
    table = poincare_table(space)
    expected = {
        (Fraction(0), Fraction(0)): 1,
        (Fraction(1), Fraction(0)): 1,
        (Fraction(0), Fraction(1)): 1,
        (Fraction(1), Fraction(1)): 1,
    }
    elapsed = time.perf_counter() - start
    assert table == expected
    assert elapsed < 1.0
    print(f"PASS criterion 1: elliptic A-table exact ({elapsed:.3f}s)")


def test_criterion_02_k3_sanity():
    start = time.perf_counter()
    ws = weight_system(K3A)
    space = build_state_space(K3A, span(4, [j_element(ws)]), "A")
    table = poincare_table(space)
    elapsed = time.perf_counter() - start
    assert space.dim == 24
    assert table[(Fraction(1), Fraction(1))] == 20
    assert table[(Fraction(2), Fraction(0))] == 1
    assert table[(Fraction(0), Fraction(2))] == 1
    assert elapsed < 5.0
    print(f"PASS criterion 2: K3 A-table total 24, (1,1)=20 ({elapsed:.3f}s)")


def test_criterion_03_theorem1_model_set(models):
    deltas = set()
    elliptics = set()
    k3s = set()
    nonproduct = 0
    for name, model in models:
        elliptics.add(model.ws1)
        k3s.add(model.ws2)
        deltas.add(model.twist().delta)
        proj1 = {v[: model.n1] for v in model.group.vectors}
        proj2 = {v[model.n1 :] for v in model.group.vectors}
        if model.group.order < len(proj1) * len(proj2):
            nonproduct += 1
            assert model.j1 in model.group and model.j2 in model.group
            # strictly between J1 x J2 and SL(W1) x SL(W2)
            j_order = model.ws1.degree * model.ws2.degree
            sl_order = (
                sl_subgroup(gmax(model.w1)).order * sl_subgroup(gmax(model.w2)).order
            )
            assert j_order < model.group.order < sl_order
        start = time.perf_counter()
        report = verify_theorem1(model)
        elapsed = time.perf_counter() - start
        assert report.passed, (name, report.mismatches)
        assert elapsed < 60.0, (name, elapsed)
        print(
            f"PASS criterion 3: theorem 1 on {name} "
            f"(total {report.details['lhs_total']}, {elapsed:.2f}s)"
        )
    assert len(models) >= 6
    assert len(elliptics) == 2
    assert len(k3s) >= 3
    assert 3 in deltas and 1 in deltas
    assert nonproduct >= 1


def test_criterion_04_twist_theorem(models):
    for name, model in models:
        for flavor in ("A", "B"):
            start = time.perf_counter()
            report = verify_twist_iso(model, flavor)
            elapsed = time.perf_counter() - start
            assert report.passed, (name, flavor, report.mismatches)
            assert elapsed < 60.0
        print(f"PASS criterion 4: twist bijection A/B on {name}")
    # negative control: corrupt tw G down to its exponential-grading subgroup
    model = models[0][1]
    tw = model.twist()
    smaller = span(tw.group.n, [j_element(tw.ws)])
    assert smaller.order < tw.group.order
    bad = verify_twist_iso(model, "A", tw_group_override=smaller)
    assert not bad.passed
    print("PASS criterion 4: corrupted twist group fails")


def test_criterion_05_group_lemma(models):
    for name, model in models:
        report = verify_group_lemma(model)
        assert report.passed, (name, report.mismatches)
        print(
            f"PASS criterion 5: tw(G^T) = (tw G)^T on {name} "
            f"(order {report.details['lhs_order']})"
        )


def test_criterion_06_lgcy(models):
    for name, model in models:
        start = time.perf_counter()
        report = verify_lgcy(model)
        elapsed = time.perf_counter() - start
        assert report.passed, (name, report.mismatches)
        print(
            f"PASS criterion 6: CR table = A table on {name} "
            f"(total {report.details['cr_total']}, {elapsed:.2f}s)"
        )


def test_criterion_07_bv_mirror_symmetry(models, octic_model):
    cases = list(models) + [("E1xOCTIC/J", octic_model)]
    saw_big = False
    for name, model in cases:
        start = time.perf_counter()
        report = verify_bv_mirror(model)
        elapsed = time.perf_counter() - start
        assert report.passed, (name, report.mismatches)
        n = report.details["N"]
        saw_big = saw_big or n > 3
        print(f"PASS criterion 7: Hodge rotation (N={n}) on {name} ({elapsed:.2f}s)")
    assert saw_big


def test_criterion_08_theorem2(models):
    model = models[0][1]  # Fermat E x K3
    start = time.perf_counter()
    report = verify_theorem2(model)
    elapsed = time.perf_counter() - start
    assert report.passed, report.mismatches
    assert report.details["product_failures"] == 0
    assert report.details["pairing_failures"] == 0
    assert report.details["associativity_failures"] == 0
    assert report.details["frobenius_failures"] == 0
    assert report.details["gamma_pairs_checked"] >= 1
    bad = verify_theorem2(model, rescaled=False)
    assert not bad.passed
    assert bad.details["product_failures"] or bad.details["pairing_failures"]
    print(
        "PASS criterion 8: phi-bar preserves products/pairings; star is "
        f"associative, unital, Frobenius; gamma factors checked on "
        f"{report.details['gamma_pairs_checked']} pairs; unscaled control fails "
        f"({elapsed:.2f}s)"
    )


def test_criterion_09_duality_properties():
    rng = random.Random(20240808)
    polys = [E1, E2, K3A, K3C, parse_polynomial("x^3+x*y^4"),
             parse_polynomial("x^2*y+y^2*x")]
    checked = 0
    for poly in polys:
        big = gmax(poly)
        ws = weight_system(poly)
        j = j_element(ws)
        sl_t = sl_subgroup(gmax(transpose(poly)))
        for _ in range(10):
            gens = [GroupElement._raw(v, big.L) for v in rng.sample(big.vectors, min(2, big.order))]
            if rng.random() < 0.5:
                gens.append(j)
            sub = span(poly.nvars, gens)
            dual = transpose_group(sub, poly)
            back = transpose_group(dual, transpose(poly))
            assert (back.L, back.vectors) == (sub.L, sub.vectors)
            assert (j in sub) == dual.is_subgroup_of(sl_t)
            checked += 1
    assert checked >= 50
    print(f"PASS criterion 9: (G^T)^T = G and admissibility exchange on {checked} subgroups")


def test_criterion_10_milnor_engine():
    records = filter_bv_invertible(enumerate_k3_systems())
    fermat_checked = 0
    for record in records:
        poly = sample_polynomial(record.weight_system)
        blocks = atomic_decomposition(poly)
        if all(b.kind == "fermat" for b in blocks):
            ws = weight_system(poly)
            assert milnor_ring(poly).mu == fermat_milnor_number(ws)
            fermat_checked += 1
    assert fermat_checked >= 5
    # multiplicativity across disjoint sums
    for w1, w2 in ((E1, K3A), (E2, K3C)):
        assert (
            milnor_ring(direct_sum(w1, w2)).mu
            == milnor_ring(w1).mu * milnor_ring(w2).mu
        )
    # nondegenerate residue Gram matrices on three rings
    for text in ("x^3", "x0^2+x1^3+x2^6", "x^3*y+y^4"):
        ring = milnor_ring(parse_polynomial(text))
        basis = [Polynomial(ring.poly.variables, {m: 1}) for m in ring.basis]
        gram = [[residue_pairing(a, b, ring) for b in basis] for a in basis]
        det = _exact_det(gram)
        assert det != 0
    print(
        f"PASS criterion 10: Fermat mu formula on {fermat_checked} catalog samples, "
        "mu multiplicativity, 3 nondegenerate Gram matrices"
    )


def _exact_det(mat):
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
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - b * f for a, b in zip(m[i], m[c])]
    return det


def test_criterion_11_catalog_counts():
    records = enumerate_k3_systems()
    assert len(records) == 95
    half = filter_bv(records)
    invertible = filter_bv_invertible(half)
    gap = [r for r in half if r not in invertible]
    # d = 2 w_i is necessary for the z0^2 + f shape (48 systems); exactly 44
    # of those carry an invertible representative, and the 4-element
    # discrepancy set is reported, not hidden
    assert len(invertible) == 44
    assert len(half) == 48
    assert len(gap) == 4
    print(
        "PASS criterion 11: 95 K3 systems; 44 admit an invertible z0^2+f "
        f"(d=2w_i alone keeps {len(half)}; gap: "
        + ", ".join(f"{r.weights};{r.degree}" for r in gap)
        + ")"
    )


def test_criterion_13_overcap_rung():
    """E2 x OVERCAP: |Gmax(W1 + W2)| = 1,327,104 is over the group cap, and
    |sigma G^T| = 27,648; both totals come from the Fermat character count."""
    model = build_bv(E2, OVERCAP, j_blocks(E2, OVERCAP))
    with pytest.raises(EnumerationCapExceeded):
        gmax(model.poly)
    mirror = model.mirror()
    assert mirror.sigma_group.order == 27648
    lhs = fermat_total(model.poly, model.sigma_group)
    rhs = fermat_total(mirror.poly, mirror.sigma_group)
    assert lhs == rhs == 2976
    start = time.perf_counter()
    report = verify_theorem1(model)
    elapsed = time.perf_counter() - start
    assert report.passed, report.mismatches
    assert report.details == {"lhs_total": lhs, "rhs_total": rhs}
    print(f"PASS criterion 13: theorem 1 on the over-cap rung, total {lhs} ({elapsed:.2f}s)")
