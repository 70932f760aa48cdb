from collections import Counter
from fractions import Fraction

import pytest

import lgmirror.chenruan as chenruan
from lgmirror.bvlg import build_bv, verify_theorem1
from lgmirror.chenruan import (
    age_share,
    cr_table,
    lambda_set,
    scaled_element,
    verify_bv_mirror,
    verify_lgcy,
    verify_twist_corollary,
)
from lgmirror.polyring import parse_polynomial, weight_system
from lgmirror.symmetry import GroupElement
from test_oracles import age_shift, ambient_classes, hodge_diamond, primitive_hodge

E1 = parse_polynomial("x0^2+x1^3+x2^6")
E2 = parse_polynomial("x0^2+x1^4+x2^4")
K3 = parse_polynomial("y0^2+y1^6+y2^6+y3^6")
MINI = parse_polynomial("y0^2+y1^2")
WS1 = weight_system(E1)
WS2 = weight_system(K3)


def jgens(w1, w2):
    ws1, ws2 = weight_system(w1), weight_system(w2)
    j1 = GroupElement([Fraction(w, ws1.degree) for w in ws1.weights] + [0] * w2.nvars)
    j2 = GroupElement([0] * w1.nvars + [Fraction(w, ws2.degree) for w in ws2.weights])
    return [j1, j2]


def model(w1=E1, w2=K3):
    return build_bv(w1, w2, jgens(w1, w2))


def test_lambda_set_identity():
    D, got = lambda_set((0,) * 3, 1, WS1)
    assert {Fraction(t, D) for t in got} == {
        Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)
    }


def test_lambda_set_counting_bound():
    for num, den in (((0,) * 3, 1), ((3, 2, 5), 6)):  # 0 and (1/2, 1/3, 5/6)
        assert len(lambda_set(num, den, WS1)[1]) <= sum(WS1.weights)


def test_lambda_set_membership_criterion():
    num, den = (3, 2, 5), 6  # (1/2, 1/3, 5/6)
    D, angles = lambda_set(num, den, WS1)
    for t in angles:
        s = scaled_element(num, den, t, D, WS1)
        assert any(a == 0 for a in s)


@pytest.mark.parametrize("num, den", [((0, 0, 0), 1), ((3, 2, 5), 6), ((1, 0, 7), 12)])
def test_int_angles_match_fraction_angles(num, den):
    """The int angles and scaled elements are the Fraction formulas
    (t - g_k) / w_k mod 1 and g + t * w."""
    comps = [Fraction(a, den) for a in num]
    want = sorted(
        {(Fraction(t) - g) / w % 1 for g, w in zip(comps, WS1.weights) for t in range(w)}
    )
    D, angles = lambda_set(num, den, WS1)
    assert [Fraction(t, D) for t in angles] == want
    for t, theta in zip(angles, want):
        s = scaled_element(num, den, t, D, WS1)
        assert GroupElement._raw(s, D) == GroupElement(
            c + theta * w for c, w in zip(comps, WS1.weights)
        )


def test_primitive_hodge_k3():
    table = primitive_hodge(K3)
    assert table[(1, 1)] == 19
    assert table[(2, 0)] == 1
    assert table[(0, 2)] == 1


def test_primitive_hodge_elliptic():
    table = primitive_hodge(E1)
    assert table == {(1, 0): 1, (0, 1): 1}


def test_ambient_classes():
    assert ambient_classes(2) == [(0, 0), (1, 1), (2, 2)]
    assert ambient_classes(0) == [(0, 0)]
    assert ambient_classes(1) == [(0, 0), (1, 1)]
    assert ambient_classes(-1) == []


def test_age_shift_sigma():
    s1 = (1, 0, 0)  # (1/2, 0, 0) over 2
    s2 = (1, 0, 0, 0)
    assert Fraction(age_share(s1, 0, 2, 6), 2) + Fraction(age_share(s2, 0, 2, 6), 2) == 1


def test_age_shift_identity():
    assert age_share((0, 0, 0), 0, 1, 6) == 0
    assert age_share((0, 0, 0, 0), 0, 1, 6) == 0


def test_age_shift_additive_over_blocks():
    # a(g) = a(g1) + a(g2): the two factors contribute independently, one
    # share each, and the shares sum to the two-factor age of the oracle
    s1 = (1, 2, 0)  # (1/3, 2/3, 0) over 3
    s2 = (0, 1, 1, 0)  # (0, 1/2, 1/2, 0) over 2
    zero1 = (0, 0, 0)
    zero2 = (0, 0, 0, 0)
    # angles 1/3 and 1/2, as numerators over 3 and 2
    total = age_shift(s1, s2, 1, 3, 1, 2, 6, 6)
    left = age_shift(s1, zero2, 1, 3, 0, 2, 6, 6)
    right = age_shift(zero1, s2, 0, 3, 1, 2, 6, 6)
    assert total == left + right
    assert left == Fraction(age_share(s1, 1, 3, 6), 3)
    assert right == Fraction(age_share(s2, 1, 2, 6), 2)
    assert total == Fraction(age_share(s1, 1, 3, 6), 3) + Fraction(age_share(s2, 1, 2, 6), 2)


def test_hodge_diamond_k3():
    table = hodge_diamond(K3)
    as_int = {(int(p), int(q)): d for (p, q), d in table.items()}
    assert as_int == {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1}
    assert sum(table.values()) == 24


def test_hodge_diamond_elliptic():
    table = hodge_diamond(E1)
    assert sum(table.values()) == 4
    as_int = {(int(p), int(q)): d for (p, q), d in table.items()}
    assert as_int == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}


def test_cr_equals_fjrw_small():
    for m in (model(E1, MINI), model(E2, MINI)):
        report = verify_lgcy(m)
        assert report.passed, report.mismatches


def test_cr_equals_fjrw_fermat_k3():
    report = verify_lgcy(model())
    assert report.passed, report.mismatches
    assert report.details["cr_total"] == report.details["fjrw_total"]


def test_classical_double_sextic_hodge_numbers():
    # [E x S]/involution for S the double plane branched in a sextic: the
    # invariant lattice has rank 1 and discriminant group of order 2, so the
    # classical count gives h^{1,1} = 5 + 3r - 2a = 6 and
    # h^{2,1} = 65 - 3r - 2a = 60
    table = cr_table(model()).table
    as_int = {(int(p), int(q)): d for (p, q), d in table.items()}
    assert as_int == {
        (0, 0): 1,
        (1, 1): 6,
        (2, 2): 6,
        (3, 3): 1,
        (1, 2): 60,
        (2, 1): 60,
        (3, 0): 1,
        (0, 3): 1,
    }


def test_twist_corollary_small():
    for m in (model(E1, MINI), model(E2, MINI)):
        report = verify_twist_corollary(m)
        assert report.passed, report.mismatches


def test_bv_mirror_rotation_small():
    m = model(E1, MINI)
    report = verify_bv_mirror(m)
    assert report.passed, report.mismatches
    assert report.details["N"] == 1


def test_twist_corollary_negative_control(monkeypatch):
    from lgmirror.bvlg import TwistModel
    from lgmirror.symmetry import j_element, span

    m = model()
    tw = m.twist()
    smaller = span(tw.group.n, [j_element(tw.ws)])
    assert smaller.order < tw.group.order
    monkeypatch.setattr(m, "_twist", TwistModel(tw.poly, tw.ws, tw.delta, smaller, tw.keep, m))
    report = verify_twist_corollary(m)
    assert not report.passed
    assert report.mismatches


def chain_model_with_extended_group():
    # chain K3 block plus G = J1 x SL2: its Chen-Ruan table has summands where
    # the restricted polynomial vanishes (weighted-projective-space classes)
    # and the scaling character is nontrivial
    from lgmirror.symmetry import gmax, sl_subgroup

    chain_k3 = parse_polynomial("y0^2+y1^4*y2+y2^7+y3^7")
    j1, j2 = jgens(E1, chain_k3)
    sl2 = sl_subgroup(gmax(chain_k3))
    lift = [GroupElement([0] * 3 + list(g.components)) for g in sl2.gens]
    return build_bv(E1, chain_k3, [j1, j2] + lift)


def test_chain_model_lgcy():
    report = verify_lgcy(chain_model_with_extended_group())
    assert report.passed, report.mismatches


def test_corrupted_age_shift_fails(monkeypatch):
    # drop the normal-direction correction from each factor's age share:
    # the LG/CY match must break
    def bad_share(s, t, D, d):
        return sum(s)

    m = chain_model_with_extended_group()
    monkeypatch.setattr(chenruan, "age_share", bad_share)
    report = verify_lgcy(m)
    assert not report.passed
    assert report.mismatches


E1K3A_ARGS = ("--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y1^6+y2^6+y3^6")


@pytest.mark.parametrize("verb", ["lgcy", "bvms"])
def test_corrupted_block_counts_fail(monkeypatch, capsys, verb):
    """One class of the first locus whose classes `cr_table` counts moves
    to a shifted character: lgcy and bvms must report a mismatch (exit 1),
    not a precondition, also on a model whose A space Theorem 1 has
    already swept and the model holds.  Only the CR side reads these
    counts; the block counts that the A-model sweep shares stay intact."""
    from lgmirror.cli import main

    original = chenruan.locus_classes
    corrupted_loci = []

    def corrupted(m, locus, invariant, products):
        classes = original(m, locus, invariant, products)
        if classes and not corrupted_loci:
            ch, hist = next(iter(classes.items()))
            key = next(iter(hist))
            hist[key] -= 1
            if not hist[key]:
                del hist[key]
            if not hist:
                del classes[ch]
            shift = invariant.chars.pack([1] * len(m.sigma_group.gens))
            classes.setdefault(invariant.chars.add(ch, shift), Counter())[key] += 1
            corrupted_loci.append(locus)
        return classes

    monkeypatch.setattr(chenruan, "locus_classes", corrupted)
    assert main(["bv", verb, *E1K3A_ARGS, "--json"]) == 1
    out = capsys.readouterr().out
    assert '"pass": false' in out
    assert len(corrupted_loci) == 1
    corrupted_loci.clear()
    m = model()
    assert verify_theorem1(m).passed
    report = (verify_lgcy if verb == "lgcy" else verify_bv_mirror)(m)
    assert not report.passed and report.mismatches


def test_cr_table_reads_the_angles_of_each_factor_part_once(monkeypatch):
    """On the E1 x OCTIC mirror, 256 J-coset representatives with 2 distinct
    first-factor parts and 256 distinct second-factor parts, one `cr_table`
    reads the angles of each family's first part once and of each second
    part once: `lambda_set` runs 2 + 256 times, not twice per
    representative."""
    from lgmirror.symmetry import bv_cosets, span

    octic = parse_polynomial("y0^2+y1^8+y2^8+y3^8+y4^8")
    mirror = model(E1, octic).mirror()
    reps = bv_cosets(mirror.sigma_group, span(mirror.poly.nvars, [mirror.j1, mirror.j2]), mirror.slots, mirror.sigma)
    n1 = mirror.n1
    assert len(reps) == 256
    assert len({r[:n1] for r in reps}) == 2 and len({r[n1:] for r in reps}) == 256
    calls = Counter()
    original = chenruan.lambda_set

    def counting(num, den, ws):
        calls[tuple(num), ws.weights] += 1
        return original(num, den, ws)

    monkeypatch.setattr(chenruan, "lambda_set", counting)
    cr_table(mirror)
    assert set(calls.values()) == {1}
    assert sum(calls.values()) == 2 + 256


def test_cr_table_builds_each_block_ring_once(block_ring_calls):
    """One `cr_table` builds the ring of each block of each factor once,
    however many loci share it, and one `verify_lgcy` on an equal model
    with an empty ring cache builds each block ring once across the CR
    table and the A-model sweep; on a model and on its mirror."""
    calls = block_ring_calls
    octic = parse_polynomial("y0^2+y1^8+y2^8+y3^8+y4^8")
    for base in (chain_model_with_extended_group(), model(E1, octic)):
        for m in (base, base.mirror()):
            factors = [set(range(m.n1)), set(range(m.n1, m.poly.nvars))]
            calls.clear()
            cr_table(m)
            assert calls and set(calls.values()) == {1}
            assert {variables for variables, _ in calls} == {m.poly.variables}
            for factor in factors:
                assert any(set(block) <= factor for _, block in calls)
            cr_blocks = set(calls)
            calls.clear()
            assert verify_lgcy(build_bv(m.w1, m.w2, m.group.gens)).passed
            assert set(calls.values()) == {1}
            assert cr_blocks <= set(calls)
