"""Chen-Ruan orbifold Hodge tables of [X_{W1} x X_{W2} / sigma G~].

The table is assembled from the coset decomposition of sigma*G: for each
representative and each pair of scaling angles with nontrivial fixed locus,
the summand is (ambient + primitive) x (ambient + primitive) cohomology of
the two restricted hypersurfaces, group invariants taken on the tensor
product (Chen-Ruan, CMP 248, 2004), everything shifted by the tangent-space
age of the sector.

Ambient pieces are the (i, i) ladder of the ambient weighted projective
space, of trivial character; primitive pieces are graded pieces of the
Milnor ring (Griffiths-Steenbrink).  The Milnor ring of a locus is the
tensor product of those of its connected blocks (Krawitz, arXiv:0906.0796,
§2), and a class counts only through its character and degree.  So a
locus is taken in the model's variables, its ring comes from the
model's cache that its A-model sweep shares (`BVModel.rings`), the
standard monomials of each block ring are bucketed by character once per
table (`statespace.Invariants`), the classes of a locus come from
convolving its blocks' (character, degree) counts (`locus_classes`), and
the table multiplies the counts of complementary characters.  No locus
basis is walked.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .bvlg import BVModel
from .milnor import milnor_ring
from .polyring import WeightSystem, restrict
from .report import Report
from .statespace import Invariants, build_state_space, diff_tables, frac_str, poincare_table
from .symmetry import bv_cosets, span, vector_locus

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


def locus_classes(model: BVModel, locus, invariant: Invariants) -> dict:
    """The cohomology classes of X_{W | locus}, for `locus` a set of the
    model's variables inside one factor W, counted by character under the
    generators of `invariant`: {character: Counter((p, q, kind))}.  The
    locus ring comes from the model's cache `model.rings`, and the classes
    from convolving the (character, degree) counts of its blocks' buckets."""
    if not locus:
        return {}
    zero = (0,) * len(invariant.gen_vecs)
    if restrict(model.poly, locus).is_zero():
        # the polynomial vanishes on the fixed locus: ambient cohomology
        # of the weighted projective space of dimension |locus| - 1
        return {zero: _ambient(len(locus) - 1)}
    dim = len(locus) - 2
    if dim < 0:
        return {}  # z^a = 0 inside a weighted point: empty hypersurface
    ring = milnor_ring(model.poly, locus, model.ws, model.rings)
    L, weights = invariant.L, model.ws.weights
    totals = {zero: Counter({0: 1})}  # character -> Counter(sum of (m_j + 1) w_j)
    for part in ring.parts or (ring,):
        form = sum([weights[j] for j in part.active])
        nxt: dict = {}
        for c2, terms in invariant.buckets(part).items():
            for c1, hist1 in totals.items():
                acc = nxt.setdefault(tuple([(a + b) % L for a, b in zip(c1, c2)]), Counter())
                for w1, k1 in hist1.items():
                    w1 += form
                    for w2, _ in terms:
                        acc[w1 + w2] += k1
        totals = nxt
    # Griffiths-Steenbrink: monomial-plus-form weight (q + 1) d gives h^{dim-q, q};
    # each factor has degree d in the model's weights
    d = model.ws.degree
    bad = [w for hist in totals.values() for w in hist if w % d == 0 and not 0 < w // d <= dim + 1]
    if bad:
        q = min(bad) // d - 1
        raise ValueError(f"Griffiths-Steenbrink grade {q} outside 0..{dim} for {ring.poly}")
    out = {zero: _ambient(dim)}
    for ch, hist in totals.items():
        for w, n in hist.items():
            if w % d == 0:
                q = w // d - 1
                out.setdefault(ch, Counter())[(dim - q, q, PRIMITIVE)] += n
    return out


def _ambient(dim: int) -> Counter:
    """One (i, i) class for i = 0..dim."""
    return Counter({(i, i, AMBIENT): 1 for i in range(dim + 1)})


def age_shift(s1, s2, t1: int, D1: int, t2: int, D2: int, d1: int, d2: int) -> Fraction:
    """Tangent-space age: ambient age of (s1 / D1, s2 / D2), the int
    numerators of `scaled_element`, minus the angles t1 / D1 and t2 / D2 by
    which the two defining polynomials are scaled (one normal direction per
    factor)."""
    M = math.lcm(D1, D2)
    total = (sum(s1) - d1 * t1 % D1) * (M // D1) + (sum(s2) - d2 * t2 % D2) * (M // D2)
    return Fraction(total, M)


class CRTable:
    """A Chen-Ruan table and its sector provenance, kept as raw tuples
    (rep, t1, D1, t2, D2, age shift, dim, tags) and formatted when read."""

    __slots__ = ("table", "_sectors")

    def __init__(self, table, sectors):
        self.table = dict(table)
        self._sectors = sectors

    @property
    def sectors(self) -> list:
        return [
            {
                "rep": str(rep),
                "lambda1": frac_str(Fraction(t1, D1)),
                "lambda2": frac_str(Fraction(t2, D2)),
                "age": frac_str(shift),
                "dim": count,
                "tags": sorted(f"{k1}*{k2}" for k1, k2 in tags),
            }
            for rep, t1, D1, t2, D2, shift, count, tags in self._sectors
        ]

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
    """Bigraded Chen-Ruan table of the model's orbifold, with provenance;
    the Milnor rings of its loci are kept in `model.rings`."""
    n1 = model.n1
    j_group = span(model.poly.nvars, [model.j1, model.j2])
    decomposition = bv_cosets(model.sigma_group, j_group, model.slots, model.sigma)
    invariant = Invariants(model.sigma_group)
    L = invariant.L
    ws1, ws2 = model.ws1, model.ws2
    loci: dict = {}

    def classes(locus):
        if locus not in loci:
            loci[locus] = locus_classes(model, locus, invariant)
        return loci[locus]

    table: dict = {}  # (p, q) as int numerators over T, a multiple of every age's denominator
    T = model.sigma_group.L * math.lcm(*ws1.weights, *ws2.weights)
    sectors = []
    for rep in decomposition.representatives:
        g1, g2 = rep.num[:n1], rep.num[n1:]
        D1, thetas1 = lambda_set(g1, rep.den, ws1)
        D2, thetas2 = lambda_set(g2, rep.den, ws2)
        partners = []  # per angle t2: the classes of side 2 keyed by minus their character
        for t2 in thetas2:
            s2 = scaled_element(g2, rep.den, t2, D2, ws2)
            cls2 = classes(tuple([n1 + i for i in vector_locus(s2)]))
            if cls2:
                partners.append((t2, s2, {tuple([-c % L for c in ch]): n for ch, n in cls2.items()}))
        for t1 in thetas1:
            s1 = scaled_element(g1, rep.den, t1, D1, ws1)
            cls1 = classes(vector_locus(s1))
            if not cls1:
                continue
            for t2, s2, cls2 in partners:
                shift = age_shift(s1, s2, t1, D1, t2, D2, ws1.degree, ws2.degree)
                over_t = shift.numerator * (T // shift.denominator)
                count = 0
                tags = set()
                for ch in cls1.keys() & cls2.keys():
                    for (p1, q1, kind1), k1 in cls1[ch].items():
                        for (p2, q2, kind2), k2 in cls2[ch].items():
                            key = ((p1 + p2) * T + over_t, (q1 + q2) * T + over_t)
                            table[key] = table.get(key, 0) + k1 * k2
                            count += k1 * k2
                            tags.add((kind1, kind2))
                if count:
                    sectors.append((rep, t1, D1, t2, D2, shift, count, tags))
    return CRTable({(Fraction(p, T), Fraction(q, T)): c for (p, q), c in table.items()}, sectors)


def verify_lgcy(model: BVModel) -> Report:
    """State-space isomorphism: the CR table equals the A-model table."""
    cr = cr_table(model)
    a_space = model.space("A")
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
    tw_space = build_state_space(tw.poly, group, "A", ws=tw.ws)
    tw_table = poincare_table(tw_space)
    mismatches = diff_tables(cr.table, tw_table, "cr", "twist_lg")
    return Report(
        "twist-corollary",
        not mismatches,
        {"cr_total": cr.total, "twist_total": tw_space.dim},
        mismatches,
    )
