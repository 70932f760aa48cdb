"""A- and B-model state spaces by sector class, and their bigraded tables.

A state is a sector g, an int vector over the group's exponent L, together
with a standard monomial of the Milnor ring of W restricted to Fix(g); the
volume form over the fixed coordinates is implicit, and `state_name` prints
it as <m; g> for mismatch records.  W restricted to Fix(g) is a sum of
connected blocks, its Milnor ring the tensor product of theirs, and the
character of a monomial under the acting group the sum of the characters of
its block factors.  A sector enters the bigraded table only through its
locus and age (Krawitz, arXiv:0906.0796, §2), so a sweep counts the sectors
of each class (Fix g, age g) on the group's lattice (`sector_classes`), and
the table sums count times the degree histogram of the locus on integer
grades (`StateSpace._grade`).  That histogram is the orbifold Poincare
polynomial of the locus (Vafa, Mod. Phys. Lett. A 4, 1989); a verdict that
names states reads the invariant monomials (`kept`) instead.  Both come
from one multiply-out: each half-locus, under one split of W's blocks, is
the product of its blocks' leaves by `Packed` character and weight
(`half_product`), and a locus joins its two halves on characters summing
to 0 (`_join`), on counts or on monomial lists (`Invariants`).  No locus
basis is walked, and there is no basis of state objects.
"""

from __future__ import annotations

import math
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
    number of sectors g with that locus and age a / L, L the exponent of G.
    Two views of the loci with invariant states, each joined on first read:
    `degrees` maps each to the histogram of `_degree` over its states, and
    `kept` to its invariant standard monomials, sorted by (`_degree`, m),
    which is (wdeg, m).  A locus with no invariant state is in neither.
    The states of a sector g, in order, are kept.get(Fix g, ())."""

    __slots__ = ("poly", "ws", "group", "flavor", "rings", "classes", "invariant", "sides", "D", "_kept", "_degrees", "_table")

    def __init__(self, poly, ws, group, flavor, rings, classes, invariant, sides):
        self.poly = poly
        self.ws = ws
        self.group = group
        self.flavor = flavor
        self.rings = rings
        self.classes = classes
        self.invariant = invariant
        self.sides = sides  # two variable bitmasks: one split of W's blocks
        self.D = math.lcm(ws.degree, group.L)  # grades are int numerators over D
        self._kept = self._degrees = self._table = None

    @property
    def degrees(self) -> dict:
        if self._degrees is None:
            self._degrees = _join(self, Invariants.counts, convolve_counts)
        return self._degrees

    @property
    def kept(self) -> dict:
        if self._kept is None:
            joined = _join(self, Invariants.monomials, convolve_monomials)
            self._kept = {locus: [m for w in sorted(hist) for m in sorted(hist[w])] for locus, hist in joined.items()}
        return self._kept

    def loci(self) -> dict:
        """The fixed loci of the sectors, in class order, as dict keys."""
        return dict.fromkeys(locus for locus, _ in self.classes)

    def halves(self, locus) -> list:
        """The two half-loci of `locus`, one per side."""
        return [tuple([i for i in locus if side >> i & 1]) for side in self.sides]

    def _sizes(self) -> dict:
        """{locus: number of states}, read off the view already built,
        counts by default."""
        if self._kept is not None:
            return {locus: len(ms) for locus, ms in self._kept.items()}
        return {locus: sum(hist.values()) for locus, hist in self.degrees.items()}

    @property
    def dim(self) -> int:
        sizes = self._sizes()
        return sum([n * sizes.get(locus, 0) for (locus, _), n in self.classes.items()])

    @property
    def sector_dims(self) -> dict:
        """{g: dimension} over every sector in group order, empty ones with 0.
        It wraps every group vector; only the benchmark tracer reads it."""
        L, sizes = self.group.L, self._sizes()
        return {GroupElement._raw(v, L): sizes.get(vector_locus(v), 0) for v in self.group.vectors}

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
    """The leaves of `half_product`: the standard monomials m of each block
    ring by character (sum over the block of (m_j + 1) h_j mod L per
    generator h, `Packed` in `chars`) and weight (sum of (m_j + 1) w_j, the
    form included), counted or listed, each kept across sweeps under the
    block ring itself: other polynomials' rings miss them."""

    __slots__ = ("chars", "gen_vecs", "counted", "listed")

    def __init__(self, group: SymmetryGroup):
        L, self.gen_vecs = int_vectors(group.gens)
        self.chars = Packed(L, len(self.gen_vecs))
        self.counted: dict = {}
        self.listed: dict = {}

    def _characters(self, part) -> list:
        """(character, weight, m) over the standard monomials m of a block
        ring.  The multiples e h_j of each variable's packed generator column
        h_j are stepped by one `add` each; a one-variable block reads its
        characters straight from them."""
        add, block, w, basis = self.chars.add, part.active, part.weights, part.basis
        multiples = {}
        for j in block:
            column = self.chars.pack([h[j] for h in self.gen_vecs])
            multiples[j] = steps = [0]
            for _ in range(max([m[j] for m in basis]) + 1):
                steps.append(add(steps[-1], column))
        if len(block) == 1:
            (j,) = block
            return [(multiples[j][m[j] + 1], (m[j] + 1) * w[j], m) for m in basis]
        return [
            (reduce(add, [multiples[j][m[j] + 1] for j in block], 0), sum([(m[j] + 1) * w[j] for j in block]), m)
            for m in basis
        ]

    def counts(self, part) -> dict:
        """{character: {weight: count}} over the standard monomials of a block ring."""
        got = self.counted.get(part)
        if got is None:
            got = self.counted[part] = {}
            for ch, weight, _ in self._characters(part):
                hist = got.setdefault(ch, {})
                hist[weight] = hist.get(weight, 0) + 1
        return got

    def monomials(self, part) -> dict:
        """{character: {weight: [m]}} over the standard monomials of a block ring."""
        got = self.listed.get(part)
        if got is None:
            got = self.listed[part] = {}
            for ch, weight, m in self._characters(part):
                got.setdefault(ch, {}).setdefault(weight, []).append(m)
        return got


def convolve_counts(hist: dict, hist1: dict, hist2: dict) -> None:
    """Add to `hist` the product of two {weight: count} histograms."""
    for w1, n1 in hist1.items():
        for w2, n2 in hist2.items():
            hist[w1 + w2] = hist.get(w1 + w2, 0) + n1 * n2


def convolve_monomials(hist: dict, hist1: dict, hist2: dict) -> None:
    """Add to `hist` the product of two {weight: [m]} histograms, each
    monomial m1 m2 on the disjoint variables of its factors."""
    for w1, ms1 in hist1.items():
        for w2, ms2 in hist2.items():
            hist.setdefault(w1 + w2, []).extend([tuple(map(add, m1, m2)) for m1 in ms1 for m2 in ms2])


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


def half_product(products: dict, invariant: Invariants, leaf, convolve, parts) -> dict:
    """{character: {weight: entry}} over the block rings `parts` multiplied
    out, largest first: all but the last part times the last, each kept in
    `products` under its half-locus for one join, prefixes shared.  `leaf`
    and `convolve` are `Invariants.counts` and `convolve_counts`, or
    `Invariants.monomials` and `convolve_monomials`."""
    half = tuple(sorted([i for part in parts for i in part.active]))
    got = products.get(half)
    if got is None:
        got = last = leaf(invariant, parts[-1])
        if len(parts) > 1:
            got, add = {}, invariant.chars.add
            for c1, hist1 in half_product(products, invariant, leaf, convolve, parts[:-1]).items():
                for c2, hist2 in last.items():
                    convolve(got.setdefault(add(c1, c2), {}), hist1, hist2)
        products[half] = got
    return got


def _join(space: StateSpace, leaf, convolve) -> dict:
    """{locus: {weight: entry}} over the loci with an invariant state, the
    weight that of `_degree`: the `half_product`s of its two half-loci on
    characters that sum to 0, the right one keyed by negated character once
    per half-locus, so the join is a set intersection of keys."""
    neg, products, flipped, joined = space.invariant.chars.neg, {}, {}, {}

    def product(half) -> dict:
        got = products.get(half)
        if got is None:
            ring = milnor_ring(space.poly, half, space.ws, space.rings)
            got = half_product(products, space.invariant, leaf, convolve, _blocks(ring))
        return got

    for locus in space.loci():
        half1, half2 = space.halves(locus)
        left, right = product(half1), flipped.get(half2)
        if right is None:
            right = flipped[half2] = {neg(ch): hist for ch, hist in product(half2).items()}
        hist: dict = {}
        for ch in left.keys() & right.keys():
            convolve(hist, left[ch], right[ch])
        if hist:
            joined[locus] = hist
    return joined


def build_state_space(
    poly: Polynomial,
    group: SymmetryGroup,
    flavor: str,
    ws: WeightSystem | None = None,
    rings: dict | None = None,
    invariant: Invariants | None = None,
) -> StateSpace:
    """Sweep all sectors of (W, G) by class, counted on the group's lattice
    without listing its elements, each locus the join of its two half-loci
    under one split of W's blocks (`balanced_halves`); raises NotAdmissible
    on a flavor mismatch.  Rings go to the subset-keyed `rings`, a locus's
    assembled here from its half-loci's; the joins (`degrees`, `kept`) run
    on first read, on the block leaves of `invariant` (of `group`; fresh by
    default)."""
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
    halves = balanced_halves(milnor_ring(poly, range(poly.nvars), ws, rings))
    sides = tuple([sum([1 << i for part in half for i in part.active]) for half in halves])
    space = StateSpace(poly, ws, group, flavor, rings, sector_classes(group), invariant or Invariants(group), sides)
    for locus in space.loci():
        milnor_ring(poly, locus, ws, rings, space.halves(locus))
    return space


def poincare_table(space: StateSpace) -> dict:
    """Map (p, q) -> dimension over exact rationals.  Every sector class
    adds its count times the degree histogram of its locus (`degrees`), on
    int numerators; Fractions are built for the keys only.  Graded once and
    kept on the space, as `degrees` is, so readers must not change it."""
    if space._table is None:
        counts: Counter = Counter()
        degrees = space.degrees
        for (locus, age), count in space.classes.items():
            for deg, k in degrees.get(locus, {}).items():
                counts[space._grade(deg, age, len(locus))] += count * k
        space._table = {(Fraction(p, space.D), Fraction(q, space.D)): c for (p, q), c in counts.items()}
    return space._table


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
