"""A- and B-model state spaces: sector-by-sector bases and bigraded tables.

A basis element is a sector group element g together with a standard monomial
of the Milnor ring of W restricted to Fix(g); the volume form over the fixed
coordinates is implicit.  W restricted to Fix(g) is a sum of connected
blocks, its Milnor ring the tensor product of theirs, and the character of a
monomial under the acting group the sum of the characters of its block
factors.  So the invariant monomials of a fixed locus come from a join of the
blocks' monomials on characters that sum to 0, in integer arithmetic, and no
locus basis is walked (`Invariants`).  The bidegree of an
element is one formula on integer sums (`StateSpace.bidegree`); Fractions are
built only for its result.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .milnor import milnor_ring
from .polyring import Polynomial, WeightSystem, weight_system
from .symmetry import (
    GroupElement,
    SymmetryGroup,
    age,
    fixed_indices,
    int_vectors,
    is_b_admissible,
    j_element,
)


class NotAdmissible(Exception):
    pass


class SectorElement:
    """<m; g> with flavor tag; the form over Fix(g) is implicit."""

    __slots__ = ("sector", "monomial", "flavor", "_hash")

    def __init__(self, sector: GroupElement, monomial, flavor: str):
        self.sector = sector
        self.monomial = tuple(monomial)
        self.flavor = flavor
        self._hash = hash((sector.num, sector.den, self.monomial, flavor))

    def __eq__(self, other):
        return (
            isinstance(other, SectorElement)
            and self.sector == other.sector
            and self.monomial == other.monomial
            and self.flavor == other.flavor
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.sector, self.monomial) < (other.sector, other.monomial)

    def __repr__(self):
        return f"<{self.monomial}; {self.sector}>{self.flavor}"


def action_weight(h: GroupElement, e: SectorElement) -> Fraction:
    """Weight of h on m * omega_g: sum over fixed j of (a_j + 1) h_j mod 1."""
    total = sum((e.monomial[j] + 1) * h.num[j] for j in fixed_indices(e.sector))
    return Fraction(total % h.den, h.den)


class StateSpace:
    __slots__ = (
        "poly",
        "ws",
        "group",
        "flavor",
        "age_j",
        "basis",
        "basis_set",
        "rings",
        "sector_dims",
    )

    def __init__(self, poly, ws, group, flavor, age_j, basis, rings, sector_dims=None):
        self.poly = poly
        self.ws = ws
        self.group = group
        self.flavor = flavor
        self.age_j = age_j
        self.basis = tuple(basis)
        self.basis_set = frozenset(self.basis)
        self.rings = rings
        # every sector is recorded, empty ones with dimension 0
        self.sector_dims = dict(sector_dims or {})

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bidegree(self, e: SectorElement):
        """(p, q) of <m; g>, with deg m counting the volume-form weights:
        deg m = sum over j in Fix g of (m_j + 1) w_j / d.

        A-model: (deg m + age g - age J, N_g - deg m + age g - age J).
        B-model: (deg m + age g - age J, deg m + age g^{-1} - age J), where
        age g^{-1} = (n - N_g) - age g."""
        g = e.sector
        fixed = fixed_indices(g)
        w = self.ws.weights
        dm = Fraction(sum((e.monomial[j] + 1) * w[j] for j in fixed), self.ws.degree)
        age_g = age(g)
        p = dm + age_g - self.age_j
        if e.flavor == "A":
            return p, len(fixed) - dm + age_g - self.age_j
        return p, dm + (g.n - len(fixed)) - age_g - self.age_j


class Invariants:
    """One sweep's invariant standard monomials, fixed locus by fixed locus.

    The character of a monomial m of a block ring under a generator h of
    the group is sum over the block of (m_j + 1) h_j mod L, one entry per
    generator.  The standard monomials of a locus ring are the products of
    those of its block rings, and m * omega_g is invariant exactly when the
    characters of its factors sum to 0.  So each block ring's monomials are
    bucketed by character once per sweep, the blocks of a locus are split
    into two halves of balanced size, each half is multiplied out by
    bucket, and the halves are joined on characters that sum to 0.  No
    locus basis is walked."""

    __slots__ = ("L", "gen_vecs", "loci", "buckets")

    def __init__(self, group: SymmetryGroup):
        self.L, self.gen_vecs = int_vectors(group.gens)
        self.loci: dict = {}
        self.buckets: dict = {}

    def kept(self, ring) -> list:
        """Invariant standard monomials of `ring`, sorted by (wdeg, m)."""
        got = self.loci.get(ring.active)
        if got is None:
            halves: tuple = ([], [])
            sizes = [1, 1]
            for part in sorted(ring.parts or (ring,), key=lambda r: -r.mu):
                k = sizes[1] < sizes[0]
                halves[k].append(part)
                sizes[k] *= part.mu
            zero = (0,) * ring.poly.nvars
            left, right = (self._product(h, zero) for h in halves)
            L = self.L
            out = []
            for ch, terms in left.items():
                partner = right.get(tuple(-a % L for a in ch))
                if partner:
                    out.extend(_products(terms, partner))
            out.sort()
            got = self.loci[ring.active] = [m for _, m in out]
        return got

    def _product(self, parts, zero) -> dict:
        """{character: [(wdeg, m)]} over the monomials of the product of
        the block rings `parts`."""
        if not parts:
            return {(0,) * len(self.gen_vecs): [(0, zero)]}
        L = self.L
        acc = self._buckets(parts[0])
        for part in parts[1:]:
            buckets = self._buckets(part)
            nxt: dict = {}
            for c1, terms1 in acc.items():
                for c2, terms2 in buckets.items():
                    key = tuple([(a + b) % L for a, b in zip(c1, c2)])
                    nxt.setdefault(key, []).extend(_products(terms1, terms2))
            acc = nxt
        return acc

    def _buckets(self, part) -> dict:
        """{character: [(wdeg, m)]} over the standard monomials of a block."""
        got = self.buckets.get(part.active)
        if got is None:
            L, block = self.L, part.active
            got = self.buckets[block] = {}
            for m in part.basis:
                ch = tuple(
                    [sum([(m[j] + 1) * hv[j] for j in block]) % L for hv in self.gen_vecs]
                )
                got.setdefault(ch, []).append((part.wdeg(m), m))
        return got


def _products(terms1, terms2):
    """(d1 + d2, m1 + m2) for each pair; the monomials live on disjoint
    variables."""
    return [
        (d1 + d2, tuple(map(add, m1, m2))) for d1, m1 in terms1 for d2, m2 in terms2
    ]


def build_sector(
    poly: Polynomial,
    group: SymmetryGroup,
    g: GroupElement,
    flavor: str,
    ws: WeightSystem,
    rings: dict,
    invariant: Invariants | None = None,
):
    """Invariant standard monomials of Milnor(W_g), as sector elements.

    Invariance depends on g only through Fix(g); a sweep passes one
    `Invariants` of the group for all its sectors.  The ring of every
    locus, and of each of its blocks, is kept in the subset-keyed `rings`."""
    fixed = fixed_indices(g)
    ring = rings.get(fixed)
    if ring is None:
        ring = rings[fixed] = milnor_ring(poly, active=fixed, ws=ws, rings=rings)
    if invariant is None:
        invariant = Invariants(group)
    return [SectorElement(g, m, flavor) for m in invariant.kept(ring)]


def build_state_space(
    poly: Polynomial,
    group: SymmetryGroup,
    flavor: str,
    ws: WeightSystem | None = None,
    rings: dict | None = None,
) -> StateSpace:
    """Sweep all sectors of (W, G); raises NotAdmissible on a flavor mismatch."""
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
    age_j = Fraction(sum(ws.weights), ws.degree)
    if rings is None:
        rings = {}
    invariant = Invariants(group)
    basis = []
    sector_dims = {}
    for g in group.elements:
        got = build_sector(poly, group, g, flavor, ws, rings, invariant)
        sector_dims[g] = len(got)
        basis.extend(got)
    return StateSpace(poly, ws, group, flavor, age_j, basis, rings, sector_dims)


def poincare_table(space: StateSpace) -> dict:
    """Map (p, q) -> dimension over exact rationals."""
    table: dict = {}
    for e in space.basis:
        key = space.bidegree(e)
        table[key] = table.get(key, 0) + 1
    return table


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


def krawitz_dimension_check(poly: Polynomial, group: SymmetryGroup):
    """Bigraded tables of A(W, G) and B(W^T, G^T) agree for invertible W.

    Returns (checked, lhs_table, rhs_table); a chain summand of weight 1/2 is
    outside the supported range, so the check is skipped with a warning and
    checked=False.
    """
    import warnings

    from .polyring import has_half_weight_chain, transpose
    from .symmetry import transpose_group

    ws = weight_system(poly)
    if has_half_weight_chain(poly, ws):
        warnings.warn(
            f"{poly} has a chain variable of weight 1/2; the bigraded "
            "dimension comparison is not guaranteed there",
            stacklevel=2,
        )
        return False, {}, {}
    a_space = build_state_space(poly, group, "A", ws=ws)
    dual = transpose_group(group, poly)
    b_space = build_state_space(transpose(poly), dual, "B")
    return True, poincare_table(a_space), poincare_table(b_space)


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def table_to_json(table: dict, flavor: str, extra: dict | None = None) -> dict:
    entries = [
        {"p": frac_str(p), "q": frac_str(q), "dim": d}
        for (p, q), d in sorted(table.items())
    ]
    out = {"flavor": flavor, "total": sum(table.values()), "entries": entries}
    if extra:
        out.update(extra)
    return out
