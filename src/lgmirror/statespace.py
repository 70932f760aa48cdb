"""A- and B-model state spaces by sector class, and their bigraded tables.

A state is a sector g, an int vector over the group's exponent L, together
with a standard monomial of the Milnor ring of W restricted to Fix(g); the
volume form over the fixed coordinates is implicit, and `state_name` prints
it as <m; g> for mismatch records.  W restricted to Fix(g) is a sum of
connected blocks, its Milnor ring the tensor product of theirs, and the
character of a monomial under the acting group the sum of the characters of
its block factors.  So the invariant monomials of a fixed locus come from a
join of the blocks' monomials on characters that sum to 0, in integer
arithmetic, and no locus basis is walked (`Invariants`).  A sector enters
the bigraded table only through its locus and age (Krawitz, arXiv:0906.0796,
§2), so a sweep counts the sectors of each class (Fix g, age g) on the
group's lattice (`sector_classes`), and the table sums count times the
degree histogram of the locus on integer grades (`StateSpace._grade`).
There is no basis of state objects: a verdict that needs states reads them
off int vectors and `kept`.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import add

from .milnor import milnor_ring
from .polyring import Polynomial, WeightSystem, weight_system
from .report import PreconditionError
from .symmetry import (
    GroupElement,
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
    (wdeg, m).  The states of a sector g, in order, are kept[Fix g]."""

    __slots__ = ("poly", "ws", "group", "flavor", "rings", "classes", "kept", "D")

    def __init__(self, poly, ws, group, flavor, rings, classes, kept):
        self.poly = poly
        self.ws = ws
        self.group = group
        self.flavor = flavor
        self.rings = rings
        self.classes = classes
        self.kept = kept
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
    """One sweep's invariant standard monomials, fixed locus by fixed locus.

    The character of a monomial m of a block ring under a generator h of
    the group is sum over the block of (m_j + 1) h_j mod L, one entry per
    generator.  The standard monomials of a locus ring are the products of
    those of its block rings, and m * omega_g is invariant exactly when the
    characters of its factors sum to 0.  So each block ring's monomials are
    bucketed by character once per sweep, the blocks of a locus are split
    into two halves of balanced size, each half is multiplied out by
    bucket, and the halves are joined on characters that sum to 0.  Loci
    share blocks, so a half is multiplied out once per sweep for each tuple
    of blocks.  No locus basis is walked."""

    __slots__ = ("L", "gen_vecs", "by_block", "halves")

    def __init__(self, group: SymmetryGroup):
        self.L, self.gen_vecs = int_vectors(group.gens)
        self.by_block: dict = {}
        self.halves: dict = {}

    def kept(self, ring) -> list:
        """Invariant standard monomials of `ring`, sorted by (wdeg, m)."""
        halves: tuple = ([], [])
        sizes = [1, 1]
        for part in sorted(ring.parts or (ring,), key=lambda r: -r.mu):
            k = sizes[1] < sizes[0]
            halves[k].append(part)
            sizes[k] *= part.mu
        zero = (0,) * ring.poly.nvars
        left, right = (self._half(h, zero) for h in halves)
        L = self.L
        out = []
        for ch, terms in left.items():
            partner = right.get(tuple([-a % L for a in ch]))
            if partner:
                out.extend(_products(terms, partner))
        out.sort()
        return [m for _, m in out]

    def _half(self, parts, zero) -> dict:
        """`_product` of `parts`, remembered under the tuple of their blocks."""
        key = tuple([part.active for part in parts])
        if key not in self.halves:
            self.halves[key] = self._product(parts, zero)
        return self.halves[key]

    def _product(self, parts, zero) -> dict:
        """{character: [(wdeg, m)]} over the monomials of the product of
        the block rings `parts`."""
        if not parts:
            return {(0,) * len(self.gen_vecs): [(0, zero)]}
        L = self.L
        acc = self.buckets(parts[0])
        for part in parts[1:]:
            buckets = self.buckets(part)
            nxt: dict = {}
            for c1, terms1 in acc.items():
                for c2, terms2 in buckets.items():
                    key = tuple([(a + b) % L for a, b in zip(c1, c2)])
                    nxt.setdefault(key, []).extend(_products(terms1, terms2))
            acc = nxt
        return acc

    def buckets(self, part) -> dict:
        """{character: [(wdeg, m)]} over the standard monomials of a block
        ring, kept per block."""
        got = self.by_block.get(part.active)
        if got is None:
            L, block, w = self.L, part.active, part.weights
            got = self.by_block[block] = {}
            for m in part.basis:
                ch = tuple(
                    [sum([(m[j] + 1) * hv[j] for j in block]) % L for hv in self.gen_vecs]
                )
                got.setdefault(ch, []).append((sum([m[j] * w[j] for j in block]), m))
        return got


def _products(terms1, terms2):
    """(d1 + d2, m1 + m2) for each pair; the monomials live on disjoint
    variables."""
    return [
        (d1 + d2, tuple(map(add, m1, m2))) for d1, m1 in terms1 for d2, m2 in terms2
    ]


def build_state_space(
    poly: Polynomial,
    group: SymmetryGroup,
    flavor: str,
    ws: WeightSystem | None = None,
    rings: dict | None = None,
) -> StateSpace:
    """Sweep all sectors of (W, G) by class, counted on the group's lattice
    without listing its elements, each locus once, its ring and those of its
    blocks kept in the subset-keyed `rings`; raises NotAdmissible on a
    flavor mismatch."""
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
    invariant = Invariants(group)
    kept: dict = {}
    for locus in dict.fromkeys(locus for locus, _ in classes):
        kept[locus] = invariant.kept(milnor_ring(poly, locus, ws, rings))
    return StateSpace(poly, ws, group, flavor, rings, classes, kept)


def poincare_table(space: StateSpace) -> dict:
    """Map (p, q) -> dimension over exact rationals.  Every sector class
    adds its count times the histogram of the degrees kept on its locus, on
    int numerators; Fractions are built for the keys only."""
    w = space.ws.weights
    degrees = {locus: Counter([_degree(m, locus, w) for m in ms]) for locus, ms in space.kept.items()}
    counts: Counter = Counter()
    for (locus, age), count in space.classes.items():
        for deg, k in degrees[locus].items():
            counts[space._grade(deg, age, len(locus))] += count * k
    D = space.D
    return {(Fraction(p, D), Fraction(q, D)): c for (p, q), c in counts.items()}


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
