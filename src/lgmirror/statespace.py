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
That histogram is the orbifold Poincare polynomial of the locus (Vafa, Mod.
Phys. Lett. A 4, 1989), joined from (character, weight) counts of the
blocks (`Invariants.counts`, `half_counts`) with no state listed; the
states themselves are listed (`kept`) only when a verdict reads them.
There is no basis of state objects: a verdict that needs states reads them
off int vectors and `kept`.
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
    Two views of the loci with invariant states, each built on first read:
    `degrees` maps each to the histogram of `_degree` over its states,
    joined from counts, and `kept` to its invariant standard monomials,
    sorted by (wdeg, m).  A locus with no invariant state is in neither.
    The states of a sector g, in order, are kept.get(Fix g, ())."""

    __slots__ = ("poly", "ws", "group", "flavor", "rings", "classes", "invariant", "sides", "D", "_kept", "_degrees")

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
        self._kept = self._degrees = None

    @property
    def degrees(self) -> dict:
        if self._degrees is None:
            self._degrees = _count_join(self)
        return self._degrees

    @property
    def kept(self) -> dict:
        if self._kept is None:
            self._kept = _list_join(self)
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
    """The standard monomials of each block ring by character under a group
    (sum over the block of (m_j + 1) h_j mod L per generator h, `Packed` in
    `chars`), listed (`buckets`) or counted (`counts`), each kept across
    sweeps under the block ring itself: other polynomials' rings miss them."""

    __slots__ = ("chars", "gen_vecs", "by_block", "counted")

    def __init__(self, group: SymmetryGroup):
        L, self.gen_vecs = int_vectors(group.gens)
        self.chars = Packed(L, len(self.gen_vecs))
        self.by_block: dict = {}
        self.counted: dict = {}

    def _characters(self, part) -> list:
        """(character, m) over the standard monomials m of a block ring."""
        add, pack, block = self.chars.add, self.chars.pack, part.active
        if not block:
            return [(0, m) for m in part.basis]
        tops = {j: max([m[j] for m in part.basis]) + 2 for j in block}
        multiples = {j: [pack([e * h[j] for h in self.gen_vecs]) for e in range(tops[j])] for j in block}
        return [(reduce(add, [multiples[j][m[j] + 1] for j in block]), m) for m in part.basis]

    def buckets(self, part) -> dict:
        """{character: [(wdeg, m)]} over the standard monomials of a block ring."""
        got = self.by_block.get(part)
        if got is None:
            block, w = part.active, part.weights
            got = self.by_block[part] = {}
            for ch, m in self._characters(part):
                got.setdefault(ch, []).append((sum([m[j] * w[j] for j in block]), m))
        return got

    def counts(self, part) -> dict:
        """{character: {weight: count}} over the standard monomials m of a
        block ring, of weight sum over the block of (m_j + 1) w_j, its form
        included."""
        got = self.counted.get(part)
        if got is None:
            block, w = part.active, part.weights
            got = self.counted[part] = {}
            for ch, m in self._characters(part):
                hist = got.setdefault(ch, {})
                weight = sum([(m[j] + 1) * w[j] for j in block])
                hist[weight] = hist.get(weight, 0) + 1
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
    kept in `products` under its half-locus for one listing, prefixes shared."""
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


def half_counts(products: dict, invariant: Invariants, parts) -> dict:
    """{character: {weight: count}} over the standard monomials of the block
    rings `parts` multiplied out, largest first, of weight sum (m_j + 1) w_j
    (`Invariants.counts`): all but the last part times the last, each kept
    in `products` under its half-locus for one sweep or table, prefixes
    shared.  No parts count the unit alone."""
    if not parts:
        return {0: {0: 1}}
    half = tuple(sorted([i for part in parts for i in part.active]))
    got = products.get(half)
    if got is None:
        got = last = invariant.counts(parts[-1])
        if len(parts) > 1:
            got, add = {}, invariant.chars.add
            for c1, hist1 in half_counts(products, invariant, parts[:-1]).items():
                for c2, hist2 in last.items():
                    hist = got.setdefault(add(c1, c2), {})
                    for w1, n1 in hist1.items():
                        for w2, n2 in hist2.items():
                            hist[w1 + w2] = hist.get(w1 + w2, 0) + n1 * n2
        products[half] = got
    return got


def _half(space: StateSpace, products: dict, product, half) -> dict:
    """`product` (`half_counts` or `_half_product`) of the half-locus `half`
    of `space`, from the blocks of its ring, memoized in `products`."""
    got = products.get(half)
    if got is None:
        got = product(products, space.invariant, _blocks(milnor_ring(space.poly, half, space.ws, space.rings)))
    return got


def _count_join(space: StateSpace) -> dict:
    """{locus: {degree: count}} over the loci with an invariant state: the
    count products of its two half-loci on characters that sum to 0, the
    right one keyed by negated character once per half-locus (`_negated`),
    so the join is a set intersection of keys.  The degree includes the
    form."""
    chars, products, flipped, degrees = space.invariant.chars, {}, {}, {}
    for locus in space.loci():
        half1, half2 = space.halves(locus)
        left, right = _half(space, products, half_counts, half1), flipped.get(half2)
        if right is None:
            right = flipped[half2] = _negated(chars, _half(space, products, half_counts, half2))
        hist: dict = {}
        for ch in left.keys() & right.keys():
            for w1, n1 in left[ch].items():
                for w2, n2 in right[ch].items():
                    hist[w1 + w2] = hist.get(w1 + w2, 0) + n1 * n2
        if hist:
            degrees[locus] = hist
    return degrees


def _negated(chars: Packed, half: dict) -> dict:
    """The entries of `half` keyed by the negated characters."""
    return {chars.neg(ch): hist for ch, hist in half.items()}


def _list_join(space: StateSpace) -> dict:
    """{locus: invariant standard monomials, sorted (wdeg, m)} over the loci
    with an invariant state: the monomial products of its two half-loci on
    characters that sum to 0, the right one looked up at `neg` of the left
    one's."""
    neg, products, kept = space.invariant.chars.neg, {}, {}
    for locus in space.loci():
        left, right = (_half(space, products, _half_product, half) for half in space.halves(locus))
        out = []
        for ch, terms in left.items():
            partner = right.get(neg(ch))
            if partner:
                out.extend(_products(terms, partner))
        if out:
            out.sort()
            kept[locus] = [m for _, m in out]
    return kept


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
    on first read, on the block counts or buckets of `invariant` (of
    `group`; fresh by default)."""
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
    halves = balanced_halves(milnor_ring(poly, None, ws, rings))
    sides = tuple([sum([1 << i for part in half for i in part.active]) for half in halves])
    space = StateSpace(poly, ws, group, flavor, rings, sector_classes(group), invariant or Invariants(group), sides)
    for locus in space.loci():
        milnor_ring(poly, locus, ws, rings, space.halves(locus))
    return space


def poincare_table(space: StateSpace) -> dict:
    """Map (p, q) -> dimension over exact rationals.  Every sector class
    adds its count times the degree histogram of its locus (`degrees`), on
    int numerators; Fractions are built for the keys only."""
    counts: Counter = Counter()
    degrees = space.degrees
    for (locus, age), count in space.classes.items():
        for deg, k in degrees.get(locus, {}).items():
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
