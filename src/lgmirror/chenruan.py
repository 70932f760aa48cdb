"""Chen-Ruan orbifold Hodge tables of [X_{W1} x X_{W2} / sigma G~].

The table is assembled from the coset decomposition of sigma*G: for each
representative and each pair of scaling angles with nontrivial fixed locus,
the summand is (ambient + primitive) x (ambient + primitive) cohomology of
the two restricted hypersurfaces, group invariants taken on the tensor
product, everything shifted by the tangent-space age of the sector.

Primitive pieces come from the graded dimensions of the Milnor ring
(monodromy-invariant Milnor-fiber cohomology); ambient pieces are the
(i, i) ladder of the ambient weighted projective space.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bvlg import BVModel
from .milnor import milnor_ring
from .polyring import Polynomial, WeightSystem, restrict, weight_system
from .report import Report
from .statespace import build_state_space, diff_tables, frac_str, poincare_table
from .symmetry import bv_cosets, int_vectors, span, vector_locus

AMBIENT = "ambient"
PRIMITIVE = "primitive"


def lambda_set(num, den: int, ws: WeightSystem):
    """Angles t in [0, 1) with w_k * t + g_k integral for some coordinate k,
    for g = num / den: (D, sorted numerators of t over D = den * lcm(w))."""
    D = den * math.lcm(*ws.weights)
    out = set()
    for a, w in zip(num, ws.weights):
        scale = D // (w * den)
        for t in range(w):
            out.add((t * den - a) * scale % D)
    return D, sorted(out)


def scaled_element(num, den: int, t: int, D: int, ws: WeightSystem) -> tuple:
    """g = num / den composed with the scaling of angle t / D (acting by
    t * w_k / D), as int numerators over D in [0, D); den divides D."""
    scale = D // den
    return tuple([(a * scale + t * w) % D for a, w in zip(num, ws.weights)])


def ambient_classes(dim: int):
    """One (i, i) class for i = 0..dim; empty when dim < 0."""
    return [(i, i) for i in range(dim + 1)]


def primitive_hodge(poly: Polynomial, active=None, ws: WeightSystem | None = None):
    """Primitive Hodge numbers of the degree-d hypersurface on the active
    coordinates: h^{D-q, q} = dim of the Milnor-ring graded piece whose
    monomial-plus-form weight is the integer q + 1 (Griffiths-Steenbrink)."""
    if ws is None:
        ws = weight_system(poly)
    if active is None:
        active = tuple(range(poly.nvars))
    active = tuple(sorted(active))
    table: dict = {}
    for p, q, _ in _primitive_classes(poly, active, ws):
        table[(p, q)] = table.get((p, q), 0) + 1
    return table


def _primitive_classes(poly: Polynomial, active, ws: WeightSystem):
    """(p, q, monomial) for each primitive class of the restricted hypersurface."""
    d = ws.degree
    dim = len(active) - 2
    if dim < 0:
        return []
    ring = milnor_ring(poly, active=active, ws=ws)
    form_weight = sum(ws.weights[k] for k in active)
    out = []
    for m in ring.basis:
        total = ring.wdeg(m) + form_weight
        if total % d:
            continue
        q = total // d - 1
        if not 0 <= q <= dim:
            raise ValueError(
                f"Griffiths-Steenbrink grade {q} outside 0..{dim} for {poly}"
            )
        out.append((dim - q, q, m))
    return out


def _block_classes(poly: Polynomial, fixed, ws: WeightSystem):
    """Cohomology classes of X_{W | fixed}: list of (p, q, kind, monomial)."""
    fixed = tuple(sorted(fixed))
    if not fixed:
        return []
    restricted = restrict(poly, fixed)
    if restricted.is_zero():
        # the polynomial vanishes on the fixed locus: ambient cohomology of
        # the weighted projective space of dimension |fixed| - 1
        return [(i, i, AMBIENT, None) for i, _ in ambient_classes(len(fixed) - 1)]
    dim = len(fixed) - 2
    if dim < 0:
        return []  # z^a = 0 inside a weighted point: empty hypersurface
    classes = [(i, i, AMBIENT, None) for i, _ in ambient_classes(dim)]
    classes.extend(
        (p, q, PRIMITIVE, m) for p, q, m in _primitive_classes(poly, fixed, ws)
    )
    return classes


def age_shift(s1, s2, t1: int, D1: int, t2: int, D2: int, d1: int, d2: int) -> Fraction:
    """Tangent-space age: ambient age of (s1 / D1, s2 / D2), the int
    numerators of `scaled_element`, minus the angles t1 / D1 and t2 / D2 by
    which the two defining polynomials are scaled (one normal direction per
    factor)."""
    M = math.lcm(D1, D2)
    total = (sum(s1) - d1 * t1 % D1) * (M // D1) + (sum(s2) - d2 * t2 % D2) * (M // D2)
    return Fraction(total, M)


class CRTable:
    __slots__ = ("table", "sectors")

    def __init__(self, table, sectors):
        self.table = dict(table)
        self.sectors = list(sectors)

    @property
    def total(self) -> int:
        return sum(self.table.values())

    def to_json(self) -> dict:
        entries = [
            {"p": frac_str(p), "q": frac_str(q), "dim": d}
            for (p, q), d in sorted(self.table.items())
        ]
        return {
            "flavor": "CR",
            "total": self.total,
            "entries": entries,
            "sectors": self.sectors,
        }


def cr_table(model: BVModel) -> CRTable:
    """Bigraded Chen-Ruan table of the model's orbifold, with provenance."""
    n1 = model.n1
    j_group = span(model.poly.nvars, [model.j1, model.j2])
    decomposition = bv_cosets(model.sigma_group, j_group, model.slots, model.sigma)
    gens = model.sigma_group.gens
    L, gen_vecs = int_vectors(gens)
    gen_blocks1 = [v[:n1] for v in gen_vecs]
    gen_blocks2 = [v[n1:] for v in gen_vecs]

    cls_cache: dict = {}

    def classes_with_weights(block: int, fixed):
        key = (block, fixed)
        hit = cls_cache.get(key)
        if hit is not None:
            return hit
        poly = model.w1 if block == 1 else model.w2
        ws = model.ws1 if block == 1 else model.ws2
        gen_blocks = gen_blocks1 if block == 1 else gen_blocks2
        out = []
        for p, q, kind, mono in _block_classes(poly, fixed, ws):
            if kind == AMBIENT:
                sig = (0,) * len(gens)
            else:
                sig = tuple(
                    sum((mono[k] + 1) * h[k] for k in fixed) % L for h in gen_blocks
                )
            out.append((p, q, kind, sig))
        cls_cache[key] = out
        return out

    table: dict = {}  # (p, q) as int numerators over T, a multiple of every age's denominator
    T = model.sigma_group.L * math.lcm(*model.ws1.weights, *model.ws2.weights)
    sectors = []
    ws1, ws2 = model.ws1, model.ws2
    for rep in decomposition.representatives:
        rep_str = str(rep)
        g1, g2 = rep.num[:n1], rep.num[n1:]
        D1, thetas1 = lambda_set(g1, rep.den, ws1)
        D2, thetas2 = lambda_set(g2, rep.den, ws2)
        side2 = []
        for t2 in thetas2:
            s2 = scaled_element(g2, rep.den, t2, D2, ws2)
            cls2 = classes_with_weights(2, vector_locus(s2))
            if cls2:
                buckets: dict = {}
                for p2, q2, kind2, sig2 in cls2:
                    buckets.setdefault(sig2, []).append((p2, q2, kind2))
                side2.append((t2, s2, buckets))
        for t1 in thetas1:
            s1 = scaled_element(g1, rep.den, t1, D1, ws1)
            cls1 = classes_with_weights(1, vector_locus(s1))
            if not cls1:
                continue
            for t2, s2, buckets in side2:
                shift = age_shift(s1, s2, t1, D1, t2, D2, ws1.degree, ws2.degree)
                over_t = shift.numerator * (T // shift.denominator)
                count = 0
                tags = set()
                for p1, q1, kind1, sig1 in cls1:
                    want = tuple((-s) % L for s in sig1)
                    for p2, q2, kind2 in buckets.get(want, ()):
                        key = ((p1 + p2) * T + over_t, (q1 + q2) * T + over_t)
                        table[key] = table.get(key, 0) + 1
                        count += 1
                        tags.add((kind1, kind2))
                if count:
                    sectors.append(
                        {
                            "rep": rep_str,
                            "lambda1": frac_str(Fraction(t1, D1)),
                            "lambda2": frac_str(Fraction(t2, D2)),
                            "age": frac_str(shift),
                            "dim": count,
                            "tags": sorted(f"{k1}*{k2}" for k1, k2 in tags),
                        }
                    )
    return CRTable({(Fraction(p, T), Fraction(q, T)): c for (p, q), c in table.items()}, sectors)


def hodge_diamond(poly: Polynomial, ws: WeightSystem | None = None):
    """Hodge table of the single quasismooth hypersurface X_W (no quotient):
    ambient (i, i) ladder plus the Griffiths-Steenbrink primitive part."""
    if ws is None:
        ws = weight_system(poly)
    table: dict = {}
    for p, q, kind, _ in _block_classes(poly, tuple(range(poly.nvars)), ws):
        key = (Fraction(p), Fraction(q))
        table[key] = table.get(key, 0) + 1
    return table


def verify_lgcy(model: BVModel) -> Report:
    """State-space isomorphism: the CR table equals the A-model table."""
    cr = cr_table(model)
    a_space = build_state_space(model.poly, model.sigma_group, "A")
    a_table = poincare_table(a_space)
    mismatches = diff_tables(cr.table, a_table, "cr", "fjrw")
    return Report(
        "lgcy",
        not mismatches,
        {"cr_total": cr.total, "fjrw_total": a_space.dim},
        mismatches,
    )


def verify_bv_mirror(model: BVModel) -> Report:
    """Hodge-diamond rotation: CR^{p,q}(M) = CR^{N-p,q}(mirror), N = n+m-2."""
    n = model.n1 + model.n2 - 4
    cr = cr_table(model)
    mirror_cr = cr_table(model.mirror())
    rotated = {(n - p, q): d for (p, q), d in mirror_cr.table.items()}
    mismatches = diff_tables(cr.table, rotated, "cr", "rotated_mirror")
    return Report(
        "bvms",
        not mismatches,
        {"N": n, "lhs_total": cr.total, "rhs_total": mirror_cr.total},
        mismatches,
    )


def verify_twist_corollary(model: BVModel, tw_group_override=None) -> Report:
    """CR table of the model equals the table of the twist hypersurface,
    computed through the LG route A(tw W, tw G)."""
    cr = cr_table(model)
    tw = model.twist()
    group = tw_group_override if tw_group_override is not None else tw.group
    tw_space = build_state_space(tw.poly, group, "A")
    tw_table = poincare_table(tw_space)
    mismatches = diff_tables(cr.table, tw_table, "cr", "twist_lg")
    return Report(
        "twist-corollary",
        not mismatches,
        {"cr_total": cr.total, "twist_total": tw_space.dim},
        mismatches,
    )
