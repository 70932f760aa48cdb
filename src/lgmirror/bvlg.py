"""Borcea-Voisin Landau-Ginzburg models: sigma extensions, mirror pairs,
the twist construction, and the state-space theorem verifiers."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

from .polyring import (
    Polynomial,
    WeightSystem,
    check_cy,
    direct_sum,
    is_bv_form,
    is_invertible,
    transpose,
    weight_system,
)
from .report import PreconditionError, Report
from .statespace import (
    _degree,
    build_state_space,
    diff_tables,
    frac_str,
    poincare_table,
    state_name,
)
from .symmetry import (
    GroupElement,
    SymmetryGroup,
    element_in_gmax,
    j_element,
    span,
    subgroup_on,
    transpose_group,
    vector_locus,
)


class BVError(PreconditionError):
    pass


class BadForm(BVError):
    pass


class NotCY(BVError):
    pass


class GroupOutOfRange(BVError):
    pass


class MalformedSector(BVError):
    """A nonempty sector fixes exactly one distinguished variable."""


class BVModel:
    """(W1 + W2, sigma*G) with J1 x J2 <= G <= SL(W1) x SL(W2).  `rings` is
    the subset-keyed Milnor cache of `poly` (see `milnor_ring`); `mirror()`,
    `twist()` and each flavor's `space()` are built on first call and kept."""

    __slots__ = (
        "w1",
        "w2",
        "poly",
        "ws",
        "ws1",
        "ws2",
        "n1",
        "n2",
        "slot1",
        "slot2",
        "group",
        "sigma",
        "sigma_group",
        "j1",
        "j2",
        "rings",
        "_mirror",
        "_twist",
        "_spaces",
    )

    def __init__(self, w1, w2, poly, ws, ws1, ws2, slot1, slot2, group, sigma, sigma_group, j1, j2):
        self.w1 = w1
        self.w2 = w2
        self.poly = poly
        self.ws = ws
        self.ws1 = ws1
        self.ws2 = ws2
        self.n1 = w1.nvars
        self.n2 = w2.nvars
        self.slot1 = slot1
        self.slot2 = slot2  # index in the combined variable list
        self.group = group
        self.sigma = sigma
        self.sigma_group = sigma_group
        self.j1 = j1
        self.j2 = j2
        self.rings = {}
        self._mirror = None
        self._twist = None
        self._spaces = {}

    @property
    def slots(self):
        return (self.slot1, self.slot2)

    def mirror(self) -> "BVModel":
        if self._mirror is None:
            self._mirror = mirror_pair(self)
        return self._mirror

    def twist(self) -> "TwistModel":
        if self._twist is None:
            self._twist = twist_model(self)
        return self._twist

    def space(self, flavor: str):
        """The state space of (W, sigma G) of `flavor`, swept over `rings`."""
        if flavor not in self._spaces:
            space = build_state_space(self.poly, self.sigma_group, flavor, ws=self.ws, rings=self.rings)
            self._spaces[flavor] = space
        return self._spaces[flavor]

    def __repr__(self):
        return f"BVModel({self.w1} | {self.w2}, |sigmaG|={self.sigma_group.order})"


def block_j_elements(ws1: WeightSystem, ws2: WeightSystem):
    """J1 = (j(W1), 0) and J2 = (0, j(W2)) over the combined variables."""
    j1, j2 = j_element(ws1), j_element(ws2)
    return [
        GroupElement._raw(j1.num + (0,) * len(j2.num), j1.den),
        GroupElement._raw((0,) * len(j1.num) + j2.num, j2.den),
    ]


def build_bv(w1: Polynomial, w2: Polynomial, gens) -> BVModel:
    """Validate the two potentials and the group, build sigma*G.

    gens are group elements over the combined variable list; the spanned
    group must satisfy J1 x J2 <= G <= SL(W1) x SL(W2).
    """
    ok1, i1 = is_bv_form(w1)
    if not ok1:
        raise BadForm(f"{w1} is not of the form z0^2 + f")
    ok2, i2 = is_bv_form(w2)
    if not ok2:
        raise BadForm(f"{w2} is not of the form z0^2 + f")
    ws1 = weight_system(w1)
    ws2 = weight_system(w2)
    if not check_cy(ws1):
        raise NotCY(f"{w1} fails the Calabi-Yau condition")
    if not check_cy(ws2):
        raise NotCY(f"{w2} fails the Calabi-Yau condition")
    try:
        poly = direct_sum(w1, w2)
    except ValueError as exc:
        raise BadForm(str(exc)) from exc
    ws = weight_system(poly)
    n1 = w1.nvars
    n = poly.nvars
    slot1, slot2 = i1, n1 + i2
    j1, j2 = block_j_elements(ws1, ws2)
    group = span(n, list(gens))
    if j1 not in group or j2 not in group:
        raise GroupOutOfRange("J1 x J2 is not contained in G")
    for h in group.gens:
        if sum(h.num[:n1]) % h.den or sum(h.num[n1:]) % h.den:
            raise GroupOutOfRange(f"generator {h} leaves SL(W1) x SL(W2)")
        if not element_in_gmax(poly, h):
            raise GroupOutOfRange(f"generator {h} is not a symmetry of W1 + W2")
    sigma = GroupElement._raw([int(k in (slot1, slot2)) for k in range(n)], 2)
    if sigma in group:
        raise GroupOutOfRange("sigma already lies in G")
    sigma_group = span(n, group.gens + (sigma,))
    return BVModel(w1, w2, poly, ws, ws1, ws2, slot1, slot2, group, sigma, sigma_group, j1, j2)


def mirror_pair(model: BVModel) -> BVModel:
    """(W1^T, W2^T) with group sigma * (G^T); re-validated from scratch."""
    dual = transpose_group(model.group, model.poly)
    return build_bv(transpose(model.w1), transpose(model.w2), dual.gens)


class TwistModel:
    """tw W = f1 - f2 with its weight system and slot-projected group."""

    __slots__ = ("poly", "ws", "delta", "group", "keep", "source")

    def __init__(self, poly, ws, delta, group, keep, source):
        self.poly = poly
        self.ws = ws
        self.delta = delta
        self.group = group
        self.keep = keep  # combined-model indices kept by the projection
        self.source = source

    def __repr__(self):
        return f"TwistModel({self.poly}, delta={self.delta}, |twG|={self.group.order})"


def twist_polynomial(w1: Polynomial, w2: Polynomial):
    """f1 - f2 with the rescaled weight system; returns (poly, ws, delta).

    The computed weight system of f1 - f2 is checked against the closed-form
    rescaling of the two input systems.
    """
    ok1, i1 = is_bv_form(w1)
    ok2, i2 = is_bv_form(w2)
    if not (ok1 and ok2):
        raise BadForm("both potentials must be z0^2 + f")
    ws1 = weight_system(w1)
    ws2 = weight_system(w2)
    u0 = ws1.weights[i1]
    v0 = ws2.weights[i2]
    delta = math.gcd(u0, v0)
    keep1 = [k for k in range(w1.nvars) if k != i1]
    keep2 = [k for k in range(w2.nvars) if k != i2]
    variables = tuple(w1.variables[k] for k in keep1) + tuple(
        w2.variables[k] for k in keep2
    )
    terms = {}
    for m, c in w1.terms.items():
        if m[i1]:
            continue
        terms[tuple(m[k] for k in keep1) + (0,) * len(keep2)] = c
    for m, c in w2.terms.items():
        if m[i2]:
            continue
        terms[(0,) * len(keep1) + tuple(m[k] for k in keep2)] = -c
    poly = Polynomial(variables, terms)
    formula = WeightSystem(
        tuple(v0 * ws1.weights[k] // delta for k in keep1)
        + tuple(u0 * ws2.weights[k] // delta for k in keep2),
        math.lcm(ws1.degree, ws2.degree),
    )
    ws = weight_system(poly)
    if ws != formula:
        raise BVError(f"twist weight formula mismatch: solved {ws}, formula {formula}")
    if sum(ws.weights) != ws.degree:
        raise NotCY("twist polynomial lost the Calabi-Yau condition")
    if not is_invertible(poly):
        warnings.warn(f"twist polynomial {poly} is not invertible", stacklevel=2)
    return poly, ws, delta


def twist_group(model: BVModel, tw_poly: Polynomial, keep) -> SymmetryGroup:
    """Elements of sigma*G vanishing on both distinguished slots, projected."""
    group = subgroup_on(model.sigma_group, keep)
    for h in group.gens:
        if not element_in_gmax(tw_poly, h):
            raise BVError(f"projected element {h} is not a symmetry of {tw_poly}")
    tw_ws = weight_system(tw_poly)
    if j_element(tw_ws) not in group:
        raise BVError("exponential grading operator of tw W missing from tw G")
    return group


def twist_model(model: BVModel) -> TwistModel:
    poly, ws, delta = twist_polynomial(model.w1, model.w2)
    keep = [k for k in range(model.poly.nvars) if k not in model.slots]
    group = twist_group(model, poly, keep)
    return TwistModel(poly, ws, delta, group, keep, model)


def _sector_epsilon(model: BVModel, v, L: int) -> int:
    """1 when the sector v / L acts by -1 on both distinguished slots, 0
    when it fixes both."""
    pair = (2 * v[model.slot1], 2 * v[model.slot2])
    if pair == (0, 0):
        return 0
    if pair == (L, L):
        return 1
    raise MalformedSector(f"sector {GroupElement._raw(v, L)} fixes exactly one distinguished variable")


def verify_twist_iso(model: BVModel, flavor: str, tw_group_override=None) -> Report:
    """tw maps the (W, sigma G) basis bijectively onto the twist basis,
    preserving bidegrees; a corrupted twist group makes this fail.

    The map runs on int vectors and monomials, sector by sector of the
    source group, and bidegrees are compared as `StateSpace._grade`
    numerators; states are named (`state_name`) for mismatch records only.
    The source is the model's own space of `flavor`."""
    tw = model.twist()
    group = tw_group_override if tw_group_override is not None else tw.group
    source = model.space(flavor)
    target = build_state_space(tw.poly, group, flavor, ws=tw.ws)
    L, Lt, D, Dt = source.group.L, target.group.L, source.D, target.D
    weights, tw_weights = source.ws.weights, target.ws.weights
    kept = {locus: set(ms) for locus, ms in target.kept.items()}
    mismatches = []
    images = set()
    for v in source.group.vectors:
        locus = vector_locus(v)
        if not source.kept[locus]:
            continue
        _sector_epsilon(model, v, L)
        image_v = tuple([v[k] for k in tw.keep])
        image_g = GroupElement._raw(image_v, L)
        image_locus = vector_locus(image_v)
        image_kept = kept[image_locus] if image_g in target.group else ()
        age, image_age = sum(v), sum(image_v) * Lt // L
        # the distinguished slots are z^2 blocks: no kept monomial touches them
        for m in source.kept[locus]:
            mono = tuple([m[k] for k in tw.keep])
            if mono not in image_kept or (image_v, mono) in images:
                reason = "image duplicated" if mono in image_kept else "image not in twist basis"
                mismatches.append({"element": state_name(v, L, m, flavor), "reason": reason})
                continue
            images.add((image_v, mono))
            p, q = source._grade(_degree(m, locus, weights), age, len(locus))
            pt, qt = target._grade(_degree(mono, image_locus, tw_weights), image_age, len(image_locus))
            if p * Dt != pt * D or q * Dt != qt * D:
                mismatches.append(
                    {
                        "element": state_name(v, L, m, flavor),
                        "reason": "bidegree changed",
                        "source": [frac_str(Fraction(x, D)) for x in (p, q)],
                        "target": [frac_str(Fraction(x, Dt)) for x in (pt, qt)],
                    }
                )
    unmatched = target.dim - len(images)
    if unmatched:
        mismatches.append({"reason": f"{unmatched} twist basis elements unmatched"})
    return Report(
        f"twist-iso-{flavor}",
        not mismatches,
        {
            "flavor": flavor,
            "source_dim": source.dim,
            "target_dim": target.dim,
            "delta": tw.delta,
        },
        mismatches,
    )


def verify_group_lemma(model: BVModel) -> Report:
    """tw(G^T) = (tw G)^T as exact element sets: the two lattices are
    compared by inclusion both ways, and the members on one side only are
    listed, from `vectors`, when they differ."""
    mirror = model.mirror()
    tw = model.twist()
    mirror_tw = mirror.twist()
    lhs = mirror_tw.group  # tw(G^T)
    rhs = transpose_group(tw.group, tw.poly)  # (tw G)^T
    mismatches = []
    if not (lhs.is_subgroup_of(rhs) and rhs.is_subgroup_of(lhs)):
        only_l, only_r = _only_in(lhs, rhs), _only_in(rhs, lhs)
        mismatches = [{"only_in_tw_of_dual": only_l, "only_in_dual_of_tw": only_r}]
    return Report(
        "group-lemma",
        not mismatches,
        {"lhs_order": lhs.order, "rhs_order": rhs.order},
        mismatches,
    )


def _only_in(group: SymmetryGroup, other: SymmetryGroup) -> list:
    """The printed members of `group` outside `other`, sorted as strings."""
    members = (GroupElement._raw(v, group.L) for v in group.vectors)
    return sorted(str(g) for g in members if g not in other)


def verify_theorem1(model: BVModel) -> Report:
    """Exact bigraded equality of A(W, sigma G) and B(W^T, sigma(G^T))."""
    a_space = model.space("A")
    mirror = model.mirror()
    b_space = build_state_space(mirror.poly, mirror.sigma_group, "B", ws=mirror.ws)
    lhs = poincare_table(a_space)
    rhs = poincare_table(b_space)
    mismatches = diff_tables(lhs, rhs, "lhs", "rhs")
    return Report(
        "theorem1",
        not mismatches,
        {"lhs_total": a_space.dim, "rhs_total": b_space.dim},
        mismatches,
    )
