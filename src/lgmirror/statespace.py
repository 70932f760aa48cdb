"""A- and B-model state spaces by sector class, and their bigraded tables.

A state is a sector g, an int vector over the group's exponent L, together
with a standard monomial of the Milnor ring of W restricted to Fix(g); the
volume form over the fixed coordinates is implicit, and `state_name` prints
it as <m; g> for mismatch records.  W restricted to Fix(g) is a sum of
connected blocks, its Milnor ring the tensor product of theirs, and the
character of a monomial under the acting group the sum of the characters of
its block factors.  So the invariant monomials of a fixed locus come from a
join of the blocks' monomials on characters that sum to 0, each a `Packed`
int, and no locus basis is walked (`build_state_space`).  A sector enters
the bigraded table only through its locus and age (Krawitz, arXiv:0906.0796,
§2), so a sweep counts the sectors of each class (Fix g, age g) on the
group's lattice (`sector_classes`), and the table sums count times the
degree histogram of the locus on integer grades (`StateSpace._grade`).
There is no basis of state objects: a verdict that needs states reads them
off int vectors and `kept`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add

from .milnor import milnor_ring
from .polyring import Polynomial, WeightSystem, weight_system
from .report import PreconditionError
from .symmetry import (
    GroupElement,
    Packed,
    SymmetryGroup,
    int_vectors,
    is_b_admissible,
    j_element,
    sector_classes,
    vector_locus,
)


class NotAdmissible(PreconditionError):
    pass


def state_name(v, L: int, monomial, flavor: str) -> str:
    """`<m; g>flavor`, the printed name of the state m of the sector g = v / L
    in mismatch records; the form over Fix(g) is implicit."""
    return f"<{tuple(monomial)}; {GroupElement._raw(v, L)}>{flavor}"


class StateSpace:
    """The sectors of (W, G) by class.  `classes` maps (Fix g, a) to the
    number of sectors g with that locus and age a / L, L the exponent of G;
    `kept` maps each locus to its invariant standard monomials, sorted by
    (wdeg, m), and `degrees` to their histogram of `_degree`.  The states of
    a sector g, in order, are kept[Fix g]."""

    __slots__ = ("poly", "ws", "group", "flavor", "rings", "classes", "kept", "degrees", "D")

    def __init__(self, poly, ws, group, flavor, rings, classes, kept, degrees):
        self.poly = poly
        self.ws = ws
        self.group = group
        self.flavor = flavor
        self.rings = rings
        self.classes = classes
        self.kept = kept
        self.degrees = degrees
        self.D = math.lcm(ws.degree, group.L)  # grades are int numerators over D

    @property
    def dim(self) -> int:
        return sum(n * len(self.kept[locus]) for (locus, _), n in self.classes.items())

    @property
    def sector_dims(self) -> dict:
        """{g: dimension} over every sector in group order, empty ones with 0.
        It wraps every group vector; only the benchmark tracer reads it."""
        L = self.group.L
        return {GroupElement._raw(v, L): len(self.kept[vector_locus(v)]) for v in self.group.vectors}

    def _grade(self, deg: int, age: int, nfixed: int):
        """(p, q) as numerators over D in a sector of age g = age / L fixing
        nfixed coordinates, for deg m = deg / d (see `_degree`):

        A-model: (deg m + age g - age J, N_g - deg m + age g - age J).
        B-model: (deg m + age g - age J, deg m + age g^{-1} - age J), where
        age g^{-1} = (n - N_g) - age g."""
        D, d = self.D, self.ws.degree
        dm = deg * (D // d)
        a = age * (D // self.group.L)
        p = dm + a - sum(self.ws.weights) * (D // d)
        if self.flavor == "A":
            return p, p + nfixed * D - 2 * dm
        return p, p + (self.poly.nvars - nfixed) * D - 2 * a


def _degree(m, locus, weights) -> int:
    """d * deg m of <m; g>, Fix g = locus, form included: sum (m_j + 1) w_j."""
    return sum([(m[j] + 1) * weights[j] for j in locus])


class Invariants:
    """The standard monomials of each block ring by character under a group
    (sum over the block of (m_j + 1) h_j mod L per generator h, `Packed` in
    `chars`), kept across sweeps under the block ring itself: other
    polynomials' rings miss them."""

    __slots__ = ("chars", "gen_vecs", "by_block")

    def __init__(self, group: SymmetryGroup):
        L, self.gen_vecs = int_vectors(group.gens)
        self.chars = Packed(L, len(self.gen_vecs))
        self.by_block: dict = {}

    def buckets(self, part) -> dict:
        """{character: [(wdeg, m)]} over the standard monomials of a block ring."""
        got = self.by_block.get(part)
        if got is None:
            add, pack, block, w = self.chars.add, self.chars.pack, part.active, part.weights
            tops = {j: max([m[j] for m in part.basis]) + 2 for j in block}
            multiples = {j: [pack([e * h[j] for h in self.gen_vecs]) for e in range(tops[j])] for j in block}
            got = self.by_block[part] = {}
            for m in part.basis:
                ch = reduce(add, [multiples[j][m[j] + 1] for j in block], 0)
                got.setdefault(ch, []).append((sum([m[j] * w[j] for j in block]), m))
        return got


def _blocks(ring) -> list:
    """The block rings of `ring`, largest mu first."""
    return sorted(ring.parts or (ring,), key=lambda part: -part.mu)


def balanced_halves(ring) -> tuple:
    """The block rings of `ring`, largest first, each to the half of smaller mu."""
    halves: tuple = ([], [])
    sizes = [1, 1]
    for part in _blocks(ring):
        k = sizes[1] < sizes[0]
        halves[k].append(part)
        sizes[k] *= part.mu
    return halves


def _products(terms1, terms2):
    """(d1 + d2, m1 + m2) for each pair of monomials on disjoint variables."""
    return [(d1 + d2, tuple(map(add, m1, m2))) for d1, m1 in terms1 for d2, m2 in terms2]


def _half_product(products: dict, invariant: Invariants, parts) -> dict:
    """{character: [(wdeg, m)]} over the standard monomials of the block
    rings `parts`, largest first: all but the last part times the last, each
    kept in `products` under its half-locus for one sweep, prefixes shared."""
    half = tuple(sorted([i for part in parts for i in part.active]))
    got = products.get(half)
    if got is None:
        got = last = invariant.buckets(parts[-1])
        if len(parts) > 1:
            got, add = {}, invariant.chars.add
            for c1, terms1 in _half_product(products, invariant, parts[:-1]).items():
                for c2, terms2 in last.items():
                    got.setdefault(add(c1, c2), []).extend(_products(terms1, terms2))
        products[half] = got
    return got


def _histogram(out, form: int) -> dict:
    """{wdeg + form: count} over `out`, sorted (wdeg, m), by bisection."""
    hist, start = {}, 0
    while start < len(out):
        end = bisect_left(out, (out[start][0] + 1,), start)
        hist[out[start][0] + form] = end - start
        start = end
    return hist


def build_state_space(
    poly: Polynomial,
    group: SymmetryGroup,
    flavor: str,
    ws: WeightSystem | None = None,
    rings: dict | None = None,
    invariant: Invariants | None = None,
) -> StateSpace:
    """Sweep all sectors of (W, G) by class, counted on the group's lattice
    without listing its elements, each locus once as the join of its two
    half-loci under one split of W's blocks (`balanced_halves`), on
    characters that sum to 0; raises NotAdmissible on a flavor mismatch.
    Rings go to the subset-keyed `rings`, a locus's assembled from its
    half-loci's, and buckets to `invariant` (of `group`; fresh by default)."""
    if flavor not in ("A", "B"):
        raise ValueError(f"unknown flavor {flavor!r}")
    if ws is None:
        ws = weight_system(poly)
    if group.n != poly.nvars:
        raise NotAdmissible("group length does not match variable count")
    if flavor == "A" and j_element(ws) not in group:
        raise NotAdmissible("A-model requires the exponential grading operator in G")
    if flavor == "B" and not is_b_admissible(group):
        raise NotAdmissible("B-model requires G inside SL (integral ages)")
    if rings is None:
        rings = {}
    classes = sector_classes(group)
    invariant = invariant or Invariants(group)
    sides = [{i for b in half for i in b.active} for half in balanced_halves(milnor_ring(poly, None, ws, rings))]
    neg = invariant.chars.neg
    products, kept, degrees = {}, {}, {}
    for locus in dict.fromkeys(locus for locus, _ in classes):
        halves = [tuple([i for i in locus if i in side]) for side in sides]
        left, right = (
            products.get(half) or _half_product(products, invariant, _blocks(milnor_ring(poly, half, ws, rings)))
            for half in halves
        )
        milnor_ring(poly, locus, ws, rings, halves)
        out = []
        for ch, terms in left.items():
            partner = right.get(neg(ch))
            if partner:
                out.extend(_products(terms, partner))
        out.sort()
        kept[locus] = [m for _, m in out]
        degrees[locus] = _histogram(out, sum([ws.weights[j] for j in locus]))
    return StateSpace(poly, ws, group, flavor, rings, classes, kept, degrees)


def poincare_table(space: StateSpace) -> dict:
    """Map (p, q) -> dimension over exact rationals.  Every sector class
    adds its count times the degree histogram of its locus (`degrees`), on
    int numerators; Fractions are built for the keys only."""
    counts: Counter = Counter()
    for (locus, age), count in space.classes.items():
        for deg, k in space.degrees[locus].items():
            counts[space._grade(deg, age, len(locus))] += count * k
    return {(Fraction(p, space.D), Fraction(q, space.D)): c for (p, q), c in counts.items()}


def diff_tables(lhs: dict, rhs: dict, lname: str, rname: str):
    """Entries where two bigraded tables differ, as JSON-ready records."""
    out = []
    for key in sorted(set(lhs) | set(rhs)):
        a = lhs.get(key, 0)
        b = rhs.get(key, 0)
        if a != b:
            out.append(
                {"p": frac_str(key[0]), "q": frac_str(key[1]), lname: a, rname: b}
            )
    return out


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def table_to_json(table: dict, flavor: str) -> dict:
    entries = [
        {"p": frac_str(p), "q": frac_str(q), "dim": d}
        for (p, q), d in sorted(table.items())
    ]
    return {"flavor": flavor, "total": sum(table.values()), "entries": entries}
