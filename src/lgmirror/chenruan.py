"""Chen-Ruan orbifold Hodge tables of [X_{W1} x X_{W2} / sigma G~].

The table is assembled from the coset representatives of J in sigma*G,
int vectors over the exponent of sigma*G: for each representative and each
pair of scaling angles with nontrivial fixed locus, the summand is
(ambient + primitive) x (ambient + primitive) cohomology of the two
restricted hypersurfaces, group invariants taken on the tensor product
(Chen-Ruan, CMP 248, 2004), shifted by the tangent-space age of the sector.
Only the bigraded counts are kept.

Ambient pieces are the (i, i) ladder of the ambient weighted projective
space, of trivial character; primitive pieces are graded pieces of the
Milnor ring (Griffiths-Steenbrink).  The Milnor ring of a locus is the
tensor product of those of its blocks (Krawitz, arXiv:0906.0796, §2), from
the model's cache (`BVModel.rings`), its block rings counted by `Packed`
character and weight once per model (`BVModel.invariants`, the counts the
A-model sweep reads).  So a locus splits its blocks in two
`balanced_halves`, multiplies each out by (character, weight) with the
sweep's kernel on counts (`half_product`, memoized per table), and joins
them only on weights summing to 0 mod d (`locus_classes`).  The
age is a sum of one share per factor (`age_share`), so the representatives
fall in families by first-factor part: a family sums its second parts'
shifted classes, and convolves them once per character with its first
part's.  No locus basis is walked, and no group element is built.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction

from .bvlg import BVModel
from .milnor import milnor_ring
from .polyring import WeightSystem
from .report import Report
from .statespace import (
    Invariants,
    balanced_halves,
    build_state_space,
    convolve_counts,
    diff_tables,
    half_product,
    poincare_table,
)
from .symmetry import bv_cosets, span, vector_locus


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


def locus_classes(model: BVModel, locus, invariant: Invariants, products: dict) -> dict:
    """The cohomology classes of X_{W | locus}, for `locus` a set of the
    model's variables inside one factor W, counted by character under the
    generators of `invariant`: {character: Counter((p, q))}, from the
    halves of its ring's blocks counted by `half_product` (memoized in
    `products`, one table's) and joined on weights that sum to 0 mod d."""
    if not locus:
        return {}
    outside = ~sum([1 << i for i in locus])
    if all(s & outside for s in model.poly.supports):
        # the polynomial vanishes on the fixed locus: ambient cohomology
        # of the weighted projective space of dimension |locus| - 1
        return {0: _ambient(len(locus) - 1)}
    dim = len(locus) - 2
    if dim < 0:
        return {}  # z^a = 0 inside a weighted point: empty hypersurface
    ring = milnor_ring(model.poly, locus, model.ws, model.rings)
    add, d = invariant.chars.add, model.ws.degree
    products.setdefault((), {0: {0: 1}})  # an empty half counts the unit
    halves = balanced_halves(ring)
    left, right = (half_product(products, invariant, Invariants.counts, convolve_counts, half) for half in halves)
    partners = _residue_index(right, d)
    # Griffiths-Steenbrink: monomial-plus-form weight (q + 1) d gives h^{dim-q, q};
    # each factor has degree d in the model's weights
    out = defaultdict(Counter, {0: _ambient(dim)})
    for c1, hist in left.items():
        for w1, n1 in hist.items():
            for c2, w2, n2 in partners.get(w1 % d, ()):
                q = (w1 + w2) // d - 1
                if not 0 <= q <= dim:
                    raise ValueError(f"Griffiths-Steenbrink grade {q} outside 0..{dim} for {ring.poly}")
                out[add(c1, c2)][(dim - q, q)] += n1 * n2
    return dict(out)


def _residue_index(half: dict, d: int) -> dict:
    """{-w mod d: [(character, w, count)]} over the counts of `half`."""
    index: dict = {}
    for ch, hist in half.items():
        for w, n in hist.items():
            index.setdefault(-w % d, []).append((ch, w, n))
    return index


def _ambient(dim: int) -> Counter:
    """One (i, i) class for i = 0..dim."""
    return Counter({(i, i): 1 for i in range(dim + 1)})


def age_share(s, t: int, D: int, d: int) -> int:
    """One factor's share of the tangent-space age, over D: the ambient age
    of s / D (see `scaled_element`) minus the angle t / D by which the
    factor's polynomial of degree d is scaled (its normal direction)."""
    return sum(s) - d * t % D


class CRTable:
    """A Chen-Ruan table {(p, q): dimension}."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table

    @property
    def total(self) -> int:
        return sum(self.table.values())


def cr_table(model: BVModel) -> CRTable:
    """Bigraded Chen-Ruan table of the model's orbifold, one convolution per
    coset family and character; the Milnor rings of its loci are kept in
    `model.rings`, their block counts in `model.invariants`."""
    L = model.sigma_group.L
    invariant, neg = model.invariants, model.invariants.chars.neg
    products: dict = {}  # half-locus -> its block counts multiplied out
    # (p, q) as int numerators over T, a multiple of every angle's denominator D
    T = L * math.lcm(*model.ws1.weights, *model.ws2.weights)
    loci: dict = {}

    def shifted(part, offset, ws):
        """(age share over T, classes) over the angles of the factor part
        `part`, whose variables start at `offset`."""
        D, thetas = lambda_set(part, L, ws)
        for t in thetas:
            s = scaled_element(part, L, t, D, ws)
            locus = tuple([offset + i for i in vector_locus(s)])
            if locus not in loci:
                loci[locus] = locus_classes(model, locus, invariant, products)
            yield age_share(s, t, D, ws.degree) * (T // D), loci[locus]

    table: Counter = Counter()
    for g1, family in _families(model).items():
        first: dict = defaultdict(Counter)
        for share, classes in shifted(g1, 0, model.ws1):
            for ch, hist in classes.items():
                _add_shifted(first[ch], hist, share, T)
        second = {neg(ch): Counter() for ch in first}
        for g2 in family:
            for share, classes in shifted(g2, model.n1, model.ws2):
                for ch, hist in classes.items():
                    if ch in second:
                        _add_shifted(second[ch], hist, share, T)
        for ch, hist1 in first.items():
            hist2 = second[neg(ch)]
            for (p1, q1), k1 in hist1.items():
                for (p2, q2), k2 in hist2.items():
                    table[p1 + p2, q1 + q2] += k1 * k2
    return CRTable({(Fraction(p, T), Fraction(q, T)): c for (p, q), c in table.items()})


def _families(model: BVModel) -> dict:
    """{first-factor part: [second-factor parts]} of the J-coset
    representatives of sigma G."""
    n1, j_group = model.n1, span(model.poly.nvars, [model.j1, model.j2])
    families: dict = {}
    for rep in bv_cosets(model.sigma_group, j_group, model.slots, model.sigma):
        families.setdefault(rep[:n1], []).append(rep[n1:])
    return families


def _add_shifted(acc: Counter, hist: Counter, share: int, T: int) -> None:
    """Add the classes `hist` to `acc` as numerators over T, shifted by share."""
    for (p, q), k in hist.items():
        acc[p * T + share, q * T + share] += k


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


def verify_twist_corollary(model: BVModel) -> Report:
    """CR table of the model equals the table of the twist hypersurface,
    computed through the LG route A(tw W, tw G)."""
    cr = cr_table(model)
    tw = model.twist()
    tw_space = build_state_space(tw.poly, tw.group, "A", ws=tw.ws)
    tw_table = poincare_table(tw_space)
    mismatches = diff_tables(cr.table, tw_table, "cr", "twist_lg")
    return Report(
        "twist-corollary",
        not mismatches,
        {"cr_total": cr.total, "twist_total": tw_space.dim},
        mismatches,
    )
