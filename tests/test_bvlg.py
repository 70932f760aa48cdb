import gc
import math
import random
import tracemalloc
import types
from collections import Counter
from fractions import Fraction

import pytest

import lgmirror.bvlg as bvlg
import lgmirror.chenruan as chenruan
import lgmirror.cli as cli
import lgmirror.milnor as milnor
import lgmirror.statespace as statespace
from lgmirror.bvlg import (
    BadForm,
    BVModel,
    GroupOutOfRange,
    MalformedSector,
    NotCY,
    TwistModel,
    build_bv,
    mirror_pair,
    twist_polynomial,
    verify_group_lemma,
    verify_theorem1,
    verify_twist_iso,
)
from lgmirror.catalog import enumerate_k3_systems, filter_bv_invertible, sample_polynomial
from lgmirror.chenruan import verify_lgcy
from lgmirror.polyring import VariableCollision, is_bv_form, parse_polynomial, restrict, weight_system
from lgmirror.statespace import build_state_space, poincare_table
from lgmirror.symmetry import GroupElement, span, transpose_group
from test_oracles import EagerSpace, _models, add, members, tw_a_map

E1 = parse_polynomial("x0^2+x1^3+x2^6")
E2 = parse_polynomial("x0^2+x1^4+x2^4")
K3 = parse_polynomial("y0^2+y1^6+y2^6+y3^6")
MINI = parse_polynomial("y0^2+y1^2")
CHAIN_K3 = parse_polynomial("y0^2+y1^3*y2+y2^10+y3^10")  # a census sample, weights (5,3,1,1;10)


def jgens(w1, w2):
    ws1, ws2 = weight_system(w1), weight_system(w2)
    j1 = GroupElement(
        [Fraction(w, ws1.degree) for w in ws1.weights] + [0] * w2.nvars
    )
    j2 = GroupElement(
        [0] * w1.nvars + [Fraction(w, ws2.degree) for w in ws2.weights]
    )
    return [j1, j2]


def model(w1=E1, w2=K3, extra=()):
    return build_bv(w1, w2, jgens(w1, w2) + list(extra))


def test_build_bv_sigma_group_order():
    m = model()
    assert m.group.order == 36
    assert m.sigma_group.order == 72
    assert m.sigma not in m.group


def test_build_bv_j_sum_in_sigma_group():
    m = model()
    # J1 and J2 have disjoint supports, so J1 J2 joins their components
    j = GroupElement(m.j1.components[: m.n1] + m.j2.components[m.n1 :])
    assert j in m.sigma_group


def test_build_bv_bad_form():
    with pytest.raises(BadForm):
        build_bv(parse_polynomial("x1^3+x2^6"), K3, [])


def test_build_bv_not_cy():
    # x^2 + y^5: weights (5,2;10), sum 7 != 10
    bad = parse_polynomial("x0^2+x1^5")
    with pytest.raises(NotCY):
        build_bv(bad, K3, [])


def test_build_bv_group_out_of_range_missing_j():
    with pytest.raises(GroupOutOfRange):
        build_bv(E1, K3, [jgens(E1, K3)[0]])  # J2 missing


def test_build_bv_group_out_of_range_age():
    # an age-1/2 block element outside SL x SL
    bad = GroupElement([Fraction(1, 2), 0, 0, 0, 0, 0, 0])
    with pytest.raises(GroupOutOfRange):
        build_bv(E1, K3, jgens(E1, K3) + [bad])


def test_twist_polynomial_delta3():
    poly, ws, delta = twist_polynomial(E1, K3)
    assert delta == 3
    assert ws.weights == (2, 1, 1, 1, 1) and ws.degree == 6
    assert poly.coefficient((3, 0, 0, 0, 0)) == 1
    assert poly.coefficient((0, 0, 6, 0, 0)) == -1


def test_twist_polynomial_delta2():
    k3c = parse_polynomial("y0^2+y1^4+y2^8+y3^8")
    poly, ws, delta = twist_polynomial(E2, k3c)
    assert delta == 2


def test_twist_polynomial_delta1():
    poly2, ws2, delta2 = twist_polynomial(E2, K3)
    assert delta2 == 1
    assert ws2.weights == (3, 3, 2, 2, 2) and ws2.degree == 12


def test_twist_cy_preserved():
    for w2 in (K3, MINI):
        _, ws, _ = twist_polynomial(E1, w2)
        assert sum(ws.weights) == ws.degree


def test_twist_group_order_and_j():
    m = model()
    tw = m.twist()
    assert tw.group.order == 18
    # the twist grading operator lives in the projected group
    from lgmirror.symmetry import j_element

    assert j_element(tw.ws) in tw.group


def test_twist_group_identity_present():
    m = model()
    assert GroupElement([0] * 5) in m.twist().group


def test_all_or_nothing_lemma():
    # nonempty sectors of A(W, sigma G) fix both distinguished slots or neither
    m = model()
    space = EagerSpace(build_state_space(m.poly, m.sigma_group, "A"))
    seen = set()
    for v, _ in space.basis:
        pair = (Fraction(v[m.slot1], space.L), Fraction(v[m.slot2], space.L))
        assert pair in {(0, 0), (Fraction(1, 2), Fraction(1, 2))}
        seen.add(pair)
    assert len(seen) == 2


def test_tw_map_factor_and_sector():
    m = model()
    tw = m.twist()
    space = EagerSpace(build_state_space(m.poly, m.sigma_group, "A"))
    for e in space.basis:
        coeff, image = tw_a_map(e, m, tw, space.L)
        v = e[0]
        eps_zero = v[m.slot1] == 0
        assert coeff == (2 if eps_zero else 1)
        assert len(image[1]) == 5
        assert image[0] == tuple(v[k] for k in tw.keep)


def test_tw_map_malformed_sector():
    m = model()
    tw = m.twist()
    bad = ((1, 0, 0, 0, 0, 0, 0), (0,) * 7)  # (1/2, 0, ..., 0) over L = 2
    with pytest.raises(MalformedSector):
        tw_a_map(bad, m, tw, 2)


def test_twist_iso_small_models():
    for m in (model(E1, MINI), model(E2, MINI)):
        assert verify_twist_iso(m, "A").passed
        assert verify_twist_iso(m, "B").passed


def test_twist_iso_negative_control(monkeypatch):
    # corrupt tw G down to its J subgroup (still A-admissible, strictly smaller)
    from lgmirror.symmetry import j_element

    m = model()
    tw = m.twist()
    smaller = span(tw.group.n, [j_element(tw.ws)])
    assert smaller.order < tw.group.order
    monkeypatch.setattr(m, "_twist", TwistModel(tw.poly, tw.ws, tw.delta, smaller, tw.keep, m))
    report = verify_twist_iso(m, "A")
    assert not report.passed
    assert report.mismatches


def test_group_lemma_small():
    for m in (model(E1, MINI), model(E2, MINI)):
        assert verify_group_lemma(m).passed


# the members of tw(G^T) on E1 x K3A outside the corrupted (tw G)^T of
# `test_corrupted_dual_of_twist_fails_group_lemma`, as the group-lemma
# verdict printed them when it still iterated group elements
MISSING_FROM_CORRUPTED_DUAL = (
    "0,0,0,1/2,1/2 0,0,0,1/3,2/3 0,0,0,1/6,5/6 0,0,0,2/3,1/3 0,0,0,5/6,1/6 0,0,1/2,1/2,0 "
    "0,0,1/2,1/3,1/6 0,0,1/2,1/6,1/3 0,0,1/2,2/3,5/6 0,0,1/2,5/6,2/3 0,0,1/3,1/2,1/6 "
    "0,0,1/3,1/3,1/3 0,0,1/3,1/6,1/2 0,0,1/3,2/3,0 0,0,1/3,5/6,5/6 0,0,1/6,1/2,1/3 "
    "0,0,1/6,1/3,1/2 0,0,1/6,1/6,2/3 0,0,1/6,2/3,1/6 0,0,1/6,5/6,0 0,0,2/3,1/2,5/6 0,0,2/3,1/3,0 "
    "0,0,2/3,1/6,1/6 0,0,2/3,2/3,2/3 0,0,2/3,5/6,1/2 0,0,5/6,1/2,2/3 0,0,5/6,1/3,5/6 "
    "0,0,5/6,1/6,0 0,0,5/6,2/3,1/2 0,0,5/6,5/6,1/3 0,1/2,0,1/2,0 0,1/2,0,1/3,1/6 0,1/2,0,1/6,1/3 "
    "0,1/2,0,2/3,5/6 0,1/2,0,5/6,2/3 0,1/2,1/2,1/2,1/2 0,1/2,1/2,1/3,2/3 0,1/2,1/2,1/6,5/6 "
    "0,1/2,1/2,2/3,1/3 0,1/2,1/2,5/6,1/6 0,1/2,1/3,1/2,2/3 0,1/2,1/3,1/3,5/6 0,1/2,1/3,1/6,0 "
    "0,1/2,1/3,2/3,1/2 0,1/2,1/3,5/6,1/3 0,1/2,1/6,1/2,5/6 0,1/2,1/6,1/3,0 0,1/2,1/6,1/6,1/6 "
    "0,1/2,1/6,2/3,2/3 0,1/2,1/6,5/6,1/2 0,1/2,2/3,1/2,1/3 0,1/2,2/3,1/3,1/2 0,1/2,2/3,1/6,2/3 "
    "0,1/2,2/3,2/3,1/6 0,1/2,2/3,5/6,0 0,1/2,5/6,1/2,1/6 0,1/2,5/6,1/3,1/3 0,1/2,5/6,1/6,1/2 "
    "0,1/2,5/6,2/3,0 0,1/2,5/6,5/6,5/6 1/3,1/6,0,1/2,0 1/3,1/6,0,1/3,1/6 1/3,1/6,0,1/6,1/3 "
    "1/3,1/6,0,2/3,5/6 1/3,1/6,0,5/6,2/3 1/3,1/6,1/2,1/2,1/2 1/3,1/6,1/2,1/3,2/3 "
    "1/3,1/6,1/2,1/6,5/6 1/3,1/6,1/2,2/3,1/3 1/3,1/6,1/2,5/6,1/6 1/3,1/6,1/3,1/2,2/3 "
    "1/3,1/6,1/3,1/3,5/6 1/3,1/6,1/3,1/6,0 1/3,1/6,1/3,2/3,1/2 1/3,1/6,1/3,5/6,1/3 "
    "1/3,1/6,1/6,1/2,5/6 1/3,1/6,1/6,1/3,0 1/3,1/6,1/6,1/6,1/6 1/3,1/6,1/6,2/3,2/3 "
    "1/3,1/6,1/6,5/6,1/2 1/3,1/6,2/3,1/2,1/3 1/3,1/6,2/3,1/3,1/2 1/3,1/6,2/3,1/6,2/3 "
    "1/3,1/6,2/3,2/3,1/6 1/3,1/6,2/3,5/6,0 1/3,1/6,5/6,1/2,1/6 1/3,1/6,5/6,1/3,1/3 "
    "1/3,1/6,5/6,1/6,1/2 1/3,1/6,5/6,2/3,0 1/3,1/6,5/6,5/6,5/6 1/3,2/3,0,1/2,1/2 "
    "1/3,2/3,0,1/3,2/3 1/3,2/3,0,1/6,5/6 1/3,2/3,0,2/3,1/3 1/3,2/3,0,5/6,1/6 1/3,2/3,1/2,1/2,0 "
    "1/3,2/3,1/2,1/3,1/6 1/3,2/3,1/2,1/6,1/3 1/3,2/3,1/2,2/3,5/6 1/3,2/3,1/2,5/6,2/3 "
    "1/3,2/3,1/3,1/2,1/6 1/3,2/3,1/3,1/3,1/3 1/3,2/3,1/3,1/6,1/2 1/3,2/3,1/3,2/3,0 "
    "1/3,2/3,1/3,5/6,5/6 1/3,2/3,1/6,1/2,1/3 1/3,2/3,1/6,1/3,1/2 1/3,2/3,1/6,1/6,2/3 "
    "1/3,2/3,1/6,2/3,1/6 1/3,2/3,1/6,5/6,0 1/3,2/3,2/3,1/2,5/6 1/3,2/3,2/3,1/3,0 "
    "1/3,2/3,2/3,1/6,1/6 1/3,2/3,2/3,2/3,2/3 1/3,2/3,2/3,5/6,1/2 1/3,2/3,5/6,1/2,2/3 "
    "1/3,2/3,5/6,1/3,5/6 1/3,2/3,5/6,1/6,0 1/3,2/3,5/6,2/3,1/2 1/3,2/3,5/6,5/6,1/3 "
    "2/3,1/3,0,1/2,1/2 2/3,1/3,0,1/3,2/3 2/3,1/3,0,1/6,5/6 2/3,1/3,0,2/3,1/3 2/3,1/3,0,5/6,1/6 "
    "2/3,1/3,1/2,1/2,0 2/3,1/3,1/2,1/3,1/6 2/3,1/3,1/2,1/6,1/3 2/3,1/3,1/2,2/3,5/6 "
    "2/3,1/3,1/2,5/6,2/3 2/3,1/3,1/3,1/2,1/6 2/3,1/3,1/3,1/3,1/3 2/3,1/3,1/3,1/6,1/2 "
    "2/3,1/3,1/3,2/3,0 2/3,1/3,1/3,5/6,5/6 2/3,1/3,1/6,1/2,1/3 2/3,1/3,1/6,1/3,1/2 "
    "2/3,1/3,1/6,1/6,2/3 2/3,1/3,1/6,2/3,1/6 2/3,1/3,1/6,5/6,0 2/3,1/3,2/3,1/2,5/6 "
    "2/3,1/3,2/3,1/3,0 2/3,1/3,2/3,1/6,1/6 2/3,1/3,2/3,2/3,2/3 2/3,1/3,2/3,5/6,1/2 "
    "2/3,1/3,5/6,1/2,2/3 2/3,1/3,5/6,1/3,5/6 2/3,1/3,5/6,1/6,0 2/3,1/3,5/6,2/3,1/2 "
    "2/3,1/3,5/6,5/6,1/3 2/3,5/6,0,1/2,0 2/3,5/6,0,1/3,1/6 2/3,5/6,0,1/6,1/3 2/3,5/6,0,2/3,5/6 "
    "2/3,5/6,0,5/6,2/3 2/3,5/6,1/2,1/2,1/2 2/3,5/6,1/2,1/3,2/3 2/3,5/6,1/2,1/6,5/6 "
    "2/3,5/6,1/2,2/3,1/3 2/3,5/6,1/2,5/6,1/6 2/3,5/6,1/3,1/2,2/3 2/3,5/6,1/3,1/3,5/6 "
    "2/3,5/6,1/3,1/6,0 2/3,5/6,1/3,2/3,1/2 2/3,5/6,1/3,5/6,1/3 2/3,5/6,1/6,1/2,5/6 "
    "2/3,5/6,1/6,1/3,0 2/3,5/6,1/6,1/6,1/6 2/3,5/6,1/6,2/3,2/3 2/3,5/6,1/6,5/6,1/2 "
    "2/3,5/6,2/3,1/2,1/3 2/3,5/6,2/3,1/3,1/2 2/3,5/6,2/3,1/6,2/3 2/3,5/6,2/3,2/3,1/6 "
    "2/3,5/6,2/3,5/6,0 2/3,5/6,5/6,1/2,1/6 2/3,5/6,5/6,1/3,1/3 2/3,5/6,5/6,1/6,1/2 "
    "2/3,5/6,5/6,2/3,0 2/3,5/6,5/6,5/6,5/6"
).split()


def test_corrupted_dual_of_twist_fails_group_lemma(monkeypatch, capsys):
    """(tw G)^T loses a generator: group-lemma must exit 1 and name the
    elements of tw(G^T) that the corrupted side lacks."""
    import json

    import lgmirror.bvlg as bvlg
    from lgmirror.cli import main

    m = model()
    tw = m.twist()

    def corrupted(group, poly):
        dual = transpose_group(group, poly)
        if poly.nvars != tw.poly.nvars:
            return dual  # the mirror's dual group stays intact
        return span(dual.n, dual.gens[1:])

    monkeypatch.setattr(bvlg, "transpose_group", corrupted)
    lhs = m.mirror().twist().group
    rhs = corrupted(tw.group, tw.poly)
    assert rhs.order < lhs.order
    assert len(MISSING_FROM_CORRUPTED_DUAL) == lhs.order - rhs.order == 180
    report = verify_group_lemma(m)
    assert not report.passed
    assert report.mismatches == [{"only_in_tw_of_dual": MISSING_FROM_CORRUPTED_DUAL, "only_in_dual_of_tw": []}]
    argv = ["bv", "group-lemma", "--w1", "x0^2+x1^3+x2^6", "--w2", "y0^2+y1^6+y2^6+y3^6", "--json"]
    assert main(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is False
    assert out["mismatches"] == report.mismatches


def test_theorem1_small():
    report = verify_theorem1(model(E1, MINI))
    assert report.passed
    assert report.details["lhs_total"] == report.details["rhs_total"]


def test_theorem1_negative_control_drop_sigma():
    # removing sigma from the mirror group genuinely changes the table
    m = model()
    mirror = m.mirror()
    a = poincare_table(build_state_space(m.poly, m.sigma_group, "A"))
    gt = transpose_group(m.group, m.poly)
    b = poincare_table(build_state_space(mirror.poly, gt, "B"))
    assert a != b


def test_bhk_vs_bv_mirror_groups_differ():
    # (sigma G)^T is a proper subgroup of sigma(G^T): the BHK mirror of a
    # BVLG model is not a BVLG model (it misses the mirror J1 x J2)...
    m = model()
    mirror = m.mirror()
    sgt = transpose_group(m.sigma_group, m.poly)
    assert sgt.is_subgroup_of(mirror.sigma_group)
    assert sgt.order < mirror.sigma_group.order
    assert mirror.j1 not in sgt or mirror.j2 not in sgt
    # ...yet both B-models carry the same bigraded table (multiple mirrors)
    a = poincare_table(build_state_space(m.poly, m.sigma_group, "A"))
    b_bhk = poincare_table(build_state_space(mirror.poly, sgt, "B"))
    assert a == b_bhk


def test_mirror_group_of_j_product_is_sl_product():
    # blockwise duality: (J1 x J2)^T = SL(W1^T) x SL(W2^T)
    from lgmirror.symmetry import gmax, sl_subgroup
    from lgmirror.polyring import transpose

    m = model()
    mirror = m.mirror()
    sl1 = sl_subgroup(gmax(transpose(E1)))
    sl2 = sl_subgroup(gmax(transpose(K3)))
    L = math.lcm(sl1.L, sl2.L, mirror.group.L)
    expected = {a + b for a in members(sl1, L) for b in members(sl2, L)}
    assert set(members(mirror.group, L)) == expected


def test_mirror_pair_is_valid_model_and_involutive_table():
    m = model(E1, MINI)
    mirror = mirror_pair(m)
    back = mirror_pair(mirror)
    t1 = poincare_table(build_state_space(m.poly, m.sigma_group, "A"))
    t2 = poincare_table(build_state_space(back.poly, back.sigma_group, "A"))
    assert t1 == t2


def test_delta_lcm_identity():
    # delta * lcm(d1, d2) = d1 d2 / 2
    for w1, w2 in ((E1, K3), (E2, K3), (E1, MINI)):
        ws1, ws2 = weight_system(w1), weight_system(w2)
        _, _, delta = twist_polynomial(w1, w2)
        assert delta * math.lcm(ws1.degree, ws2.degree) == ws1.degree * ws2.degree // 2


def test_colliding_variable_names_rejected():
    """Shared variable names are malformed input (a `PolyError`, exit 2),
    not a precondition on the model."""
    clash = parse_polynomial("x0^2+x1^2")
    with pytest.raises(VariableCollision, match="collide: x0, x1$"):
        build_bv(E1, clash, [])


def test_distinguished_variable_not_first():
    # the squared variable sits at index 1 of the second block
    from lgmirror.bvlg import verify_theorem1
    from lgmirror.chenruan import verify_lgcy

    w2 = parse_polynomial("y1^6+y0^2+y2^6+y3^6")
    ok, idx = is_bv_form(w2)
    assert ok and idx == 1
    m = build_bv(E1, w2, jgens(E1, w2))
    assert m.slot2 == 3 + 1
    assert m.sigma.components[4] == Fraction(1, 2)
    tw = m.twist()
    assert tw.delta == 3
    assert verify_twist_iso(m, "A").passed
    assert verify_theorem1(m).passed
    assert verify_lgcy(m).passed


def test_random_intermediate_groups_theorem1_and_lgcy():
    # seeded random groups strictly between J1 x J2 and SL x SL
    import random

    from lgmirror.bvlg import verify_theorem1
    from lgmirror.chenruan import verify_lgcy
    from lgmirror.symmetry import gmax, sl_subgroup

    rng = random.Random(424242)
    w1, w2 = E2, K3
    sl1 = sl_subgroup(gmax(w1))
    sl2 = sl_subgroup(gmax(w2))
    base = jgens(w1, w2)
    L = math.lcm(sl1.L, sl2.L)
    lifted = [v + (0,) * 4 for v in members(sl1, L)] + [(0,) * 3 + v for v in members(sl2, L)]
    checked = 0
    while checked < 2:
        extra = rng.sample(lifted, 2)
        mixed = [add(a, b, L) for a, b in zip(extra, reversed(extra))]
        try:
            m = build_bv(w1, w2, base + [GroupElement._raw(v, L) for v in extra + mixed])
        except Exception:
            continue
        if m.group.order <= 24:
            continue
        assert 24 < m.group.order < sl1.order * sl2.order
        assert verify_theorem1(m).passed
        assert verify_lgcy(m).passed
        checked += 1


@pytest.mark.parametrize("curve, k3", [(E1, K3), (E2, CHAIN_K3)])
def test_theorem1_and_lgcy_share_one_a_space(monkeypatch, block_ring_calls, curve, k3):
    """Theorem 1 and then LG/CY on one model sweep A(W, sigma G) once: the
    A side calls `build_state_space` once, and across the two verdicts each
    block ring of the model's polynomial is built once.  The mirror's B
    sweep builds only the block rings its model lacks, those whose
    restricted polynomial the model has no ring of (the chain block on the
    chain model); it adopts the others.  Twist-iso after them reads the
    same A space and sweeps only the twist."""
    spaces = []

    def recording(*args, **kwargs):
        spaces.append(build_state_space(*args, **kwargs))
        return spaces[-1]

    monkeypatch.setattr(bvlg, "build_state_space", recording)
    m = model(curve, k3)
    mirror = m.mirror()
    assert verify_theorem1(m).passed
    assert verify_lgcy(m).passed
    assert [space.flavor for space in spaces] == ["A", "B"]
    assert spaces[0] is m.space("A") and spaces[0].rings is m.rings
    built = Counter(block_ring_calls)
    block_ring_calls.clear()
    build_state_space(mirror.poly, mirror.sigma_group, "B", ws=mirror.ws)
    b_side = Counter(block_ring_calls)
    a_side = Counter({(m.poly.variables, k): 1 for k, ring in m.rings.items() if not ring.parts})
    lacks = Counter(
        {key: n for key, n in b_side.items() if key[1] not in m.rings or m.rings[key[1]].poly != restrict(mirror.poly, key[1])}
    )
    assert a_side and built == a_side + lacks
    assert lacks != b_side  # some block ring was adopted
    assert bool(lacks) == (k3 == CHAIN_K3)  # only the chain block changes under transposition
    assert verify_twist_iso(m, "A").passed
    assert [(space.poly, space.flavor) for space in spaces[2:]] == [(m.twist().poly, "A")]


@pytest.mark.parametrize("curve, k3", [(E1, K3), (E2, CHAIN_K3)])
def test_sweeps_restrict_no_assembled_locus_and_bucket_each_block_once(monkeypatch, curve, k3):
    """After Theorem 1 and LG/CY on one model, no ring assembled from two or
    more blocks, in the cache of either Theorem 1 sweep, has built its
    restricted polynomial, and the Chen-Ruan table counts by character no
    block ring that the A sweep counted (both read `BVModel.invariants`)."""
    spaces = []

    def recording(*args, **kwargs):
        spaces.append(build_state_space(*args, **kwargs))
        return spaces[-1]

    read = []  # (Invariants, block ring, counted afresh) for every lookup
    counts = statespace.Invariants.counts

    def recording_counts(self, part):
        read.append((self, part, part not in self.counted))
        return counts(self, part)

    monkeypatch.setattr(bvlg, "build_state_space", recording)
    monkeypatch.setattr(statespace.Invariants, "counts", recording_counts)
    m = model(curve, k3)
    assert verify_theorem1(m).passed
    by_a_sweep = {id(part) for inv, part, fresh in read if fresh and inv is m.invariants}
    assert by_a_sweep
    read.clear()
    assert verify_lgcy(m).passed
    assert by_a_sweep & {id(part) for _, part, _ in read}  # the table reads them
    assert not by_a_sweep & {id(part) for _, part, fresh in read if fresh}
    assert [space.flavor for space in spaces] == ["A", "B"]
    for rings in (spaces[0].rings, spaces[1].rings, m.rings):
        assembled = [ring for ring in rings.values() if ring.parts]
        assert assembled
        assert all(ring._poly is None for ring in assembled)


BV_VERBS = [
    "mirror",
    "twist",
    "twist-iso",
    "twist-iso-b",
    "group-lemma",
    "theorem1",
    "theorem2",
    "lgcy",
    "bvms",
    "twist-corollary",
]


@pytest.mark.parametrize("name", ["e1k3a", "nonproduct", "chain"])
def test_every_verb_keeps_only_the_model_rings(monkeypatch, capsys, name):
    """Every `bv` verb passes on one model object, and after them the ring
    caches of the model and of each mirror the verbs built (recorded from
    `mirror_pair`) hold rings of their own polynomial in their own weights
    only.  So no ring of the twist (other variables) enters, and on the
    chain model, whose transpose differs, no ring of the transposed or
    mirror polynomial where it differs from the model's.  A mirror built
    after the model's first sweep starts with the block rings it adopts
    from the model; of the others, theorem1, theorem2 and bvms build only
    block rings the model lacked then, and group-lemma, which sweeps
    nothing, none."""
    m = model(E2, CHAIN_K3) if name == "chain" else _models()[name]
    monkeypatch.setattr(cli, "_build_model", lambda args: m)
    mirrors = []  # (verb, the model's rings when the mirror was built, mirror)
    verb = None

    def recording(model):
        donor = dict(model.rings)
        mirrors.append((verb, donor, mirror_pair(model)))
        return mirrors[-1][2]

    monkeypatch.setattr(bvlg, "mirror_pair", recording)
    for verb in BV_VERBS:
        assert cli.main(["bv", verb, "--w1", str(m.w1), "--w2", str(m.w2), "--json"]) == 0, verb
    capsys.readouterr()
    tw = m.twist()
    assert [verb for verb, _, _ in mirrors] == ["mirror", "group-lemma", "theorem1", "theorem2", "bvms"]
    assert not mirrors[0][1] and not mirrors[0][2].rings  # nothing to adopt yet
    for verb, donor, mirror in mirrors[1:]:
        adopted = {a for a, ring in mirror.rings.items() if a in donor and ring.basis_entries is donor[a].basis_entries}
        built = {a: ring for a, ring in mirror.rings.items() if a not in adopted}
        assert adopted
        assert bool(built) == (verb != "group-lemma")
        for active, ring in built.items():
            assert ring.parts or active not in donor or donor[active].poly != ring.poly
    for side in (m, *(mirror for _, _, mirror in mirrors[1:])):
        assert side.rings
        for active, ring in side.rings.items():
            assert ring.active == active
            assert ring.poly == restrict(side.poly, active)
            assert ring.poly.variables != tw.poly.variables
            assert ring.weights == side.ws.weights


# what a reachability walk does not enter: these lead to module globals and
# from there to every object of the process
OPAQUE = (type, types.ModuleType, types.FunctionType, types.MethodType, types.BuiltinFunctionType, types.CodeType)


def reachable_models(root):
    """The `BVModel`s other than `root` that `root` holds, directly or not."""
    seen, stack, found = {id(root)}, [root], []
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if isinstance(ref, OPAQUE) or id(ref) in seen:
                continue
            seen.add(id(ref))
            stack.append(ref)
            if isinstance(ref, BVModel):
                found.append(ref)
    return found


def test_every_verb_leaves_no_mirror_on_the_model(monkeypatch, capsys):
    """A mirror is built per verdict: after every `bv` verb has run on one
    model object, the model holds no other `BVModel`, so the mirrors that
    theorem1, theorem2, bvms and group-lemma built, with their ring caches
    and B spaces, were freed when each verdict returned."""
    m = model()
    monkeypatch.setattr(cli, "_build_model", lambda args: m)
    for verb in BV_VERBS:
        assert cli.main(["bv", verb, "--w1", str(m.w1), "--w2", str(m.w2), "--json"]) == 0, verb
    capsys.readouterr()
    assert m.rings and m.space("A").dim
    assert reachable_models(m) == []
    assert reachable_models(m.twist()) == [m]  # the walk does find a held model


def test_census_verdicts_retain_a_bounded_share_per_model():
    """Theorem 1 and LG/CY on the 15 models of a census stride (every third
    of the 44 invertible K3 samples, paired with E1 and E2 in turn), all
    held until the end as a census pass holds them, leave at most 69 kB
    traced per model once collected: the model's rings, block counts and A
    space with its degree histograms and graded table, and no mirror and no
    listed state.  About 64.3 kB is measured (py 3.11), 62.8 kB before the
    A space kept its table; with every swept locus's states listed it was
    about 77 kB, and a model that kept its mirror held about 171 kB."""
    records = filter_bv_invertible(enumerate_k3_systems())[::3]
    models = [model((E1, E2)[i % 2], sample_polynomial(r.weight_system)) for i, r in enumerate(records)]
    warm = model()  # first-call costs of the interpreter are not the model's
    assert verify_theorem1(warm).passed and verify_lgcy(warm).passed
    del warm
    gc.collect()
    tracemalloc.start()
    try:
        for m in models:
            assert verify_theorem1(m).passed and verify_lgcy(m).passed
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(models) == 15
    assert retained / len(models) < 69_000


def test_census_pass_splits_its_loci_along_one_split_of_w(monkeypatch):
    """One census pass as the benchmark runs it at seed 1: Theorem 1 and
    LG/CY on the 15 models of the stride, each K3 sample paired with E1 or
    E2 in the order the seed picks.  Each sweep splits W's blocks once, so
    loci get their blocks from their half-loci: at most 620
    `milnor.components` calls (955 with a split per locus), and at most 580
    half-products multiplied out by the sweeps (696 per-locus halves).
    Each block ring is counted by character once per `Invariants`, and the
    pass lists no state."""
    records = filter_bv_invertible(enumerate_k3_systems())[::3]
    rng = random.Random(1)
    pairs = [(rng.randrange(2), i) for i in range(len(records))]
    rng.shuffle(pairs)
    models = [model((E1, E2)[c], sample_polynomial(records[i].weight_system)) for c, i in pairs]
    calls, tables, counted = Counter(), [], Counter()
    components, half_product, counts = milnor.components, statespace.half_product, statespace.Invariants.counts

    def counted_components(poly, active):
        calls["components"] += 1
        return components(poly, active)

    def counted_half_product(products, invariant, leaf, convolve, parts):
        if parts and not any(products is table for table in tables):
            calls["half-products"] += tuple(sorted(i for part in parts for i in part.active)) not in products
        return half_product(products, invariant, leaf, convolve, parts)

    def table_half_product(products, invariant, leaf, convolve, parts):
        tables.append(products)  # a Chen-Ruan table's memo, held so its id stays its own
        return counted_half_product(products, invariant, leaf, convolve, parts)

    def counted_counts(self, part):
        counted[self, part] += part not in self.counted  # held, so no id is reused
        return counts(self, part)

    def unlisted(self, part):
        raise AssertionError("a census verdict listed a block's monomials")

    monkeypatch.setattr(milnor, "components", counted_components)
    monkeypatch.setattr(statespace, "half_product", counted_half_product)
    monkeypatch.setattr(chenruan, "half_product", table_half_product)
    monkeypatch.setattr(statespace.Invariants, "counts", counted_counts)
    monkeypatch.setattr(statespace.Invariants, "monomials", unlisted)
    for m in models:
        assert verify_theorem1(m).passed and verify_lgcy(m).passed
    assert len(models) == 15
    assert calls["components"] <= 620
    assert 0 < calls["half-products"] <= 580
    assert tables and set(counted.values()) == {1}
