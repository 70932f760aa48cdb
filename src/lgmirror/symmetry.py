"""Finite diagonal symmetry groups in (Q/Z)^n.

A group is a lattice, span_Z(gens) + L*Z^n over its exponent L, held by
an echelon (Hermite) basis whose pivots divide L (Cohen, GTM 138, §2.4).
Its members are int vectors over L, and the package holds and combines
them in no other form.  The order, the product of L / pivot, is checked
against the cap before any member is listed.  `vectors` comes from one
mixed-radix walk of the basis, already sorted.  Column i of the walk is
final once row i is applied, so sector classes are counted on merged
partial vectors (`sector_classes`) and BV coset representatives come from
walks bounded by a subgroup's pivots; membership and subgroup tests reduce
by the basis.  G^max, SL subgroups, dual groups and the twist projection
are kernels of characters on such lattices, so G^max(W^T) is never walked
and the cap bounds what is.

A `GroupElement` is the edge form of one member: parsed `--gens`, J, sigma,
generators and printed names.  It stores an int numerator vector over one
denominator, g_i = num[i] / den with 0 <= num[i] < den, in canonical form
(den is the order of g and gcd(den, *num) = 1), so equality and hashing
run on ints; Fractions appear only in `components`, `str` and ages.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .polyring import (
    PolyError,
    Polynomial,
    WeightSystem,
    _head_aligned_rows,
    _int_det,
    exponent_matrix,
)
from .report import PreconditionError


class GroupError(PreconditionError):
    pass


class RankDeficient(GroupError):
    """Exponent matrix rank < variable count: G^max would be infinite."""


class NotSubgroup(GroupError):
    pass


class EnumerationCapExceeded(GroupError):
    pass


class NoDualGroup(GroupError):
    """W is not invertible, so the dual group G^T is not defined."""


class BadCapSetting(ValueError):
    """LGMIRROR_MAX_GROUP is set to something other than an integer >= 1."""


def _cap() -> int:
    text = os.environ.get("LGMIRROR_MAX_GROUP")
    if text is None:
        return 10**6
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BadCapSetting(f"LGMIRROR_MAX_GROUP must be an integer >= 1, got {text!r}")
    return cap


class GroupElement:
    """A diagonal symmetry (g_1, ..., g_n) with each g_i in [0, 1), stored as
    the canonical int numerators `num` over the order `den`.  It has no
    group law: members are combined as int vectors over a group's L."""

    __slots__ = ("num", "den")

    def __init__(self, components):
        fracs = [Fraction(c) for c in components]
        den = math.lcm(*(f.denominator for f in fracs))
        self._canonical([f.numerator * (den // f.denominator) for f in fracs], den)

    def _canonical(self, num, den):
        num = [a % den for a in num]
        d = math.gcd(den, *num)
        self.num = tuple(num) if d == 1 else tuple([a // d for a in num])
        self.den = den // d

    @classmethod
    def _raw(cls, num, den: int) -> "GroupElement":
        """The element (num[i] / den)_i; num need not be reduced."""
        g = cls.__new__(cls)
        g._canonical(num, den)
        return g

    @property
    def components(self):
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    @property
    def n(self) -> int:
        return len(self.num)

    def is_identity(self) -> bool:
        return self.den == 1

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash(self.num) ^ self.den

    def __str__(self):
        den = self.den
        return ",".join(str(Fraction(a, den)) for a in self.num)

    def __repr__(self):
        return f"GroupElement({self})"


def int_vectors(elements):
    """(L, [g * L]) for the elements over their common denominator L."""
    L = math.lcm(*(g.den for g in elements))
    vecs = []
    for g in elements:
        scale = L // g.den
        vecs.append(g.num if scale == 1 else tuple([a * scale for a in g.num]))
    return L, vecs


def age(g: GroupElement) -> Fraction:
    """Sum of the [0, 1) representatives."""
    return Fraction(sum(g.num), g.den)


def fixed_indices(g: GroupElement):
    """Indices of coordinates fixed by g (component zero)."""
    return vector_locus(g.num)


def vector_locus(v) -> tuple:
    """`fixed_indices` of the element with int numerator vector v."""
    return tuple([i for i, a in enumerate(v) if not a])


def j_element(ws: WeightSystem) -> GroupElement:
    """Exponential grading operator (q_1, ..., q_n) = (w_1, ..., w_n) / d."""
    return GroupElement._raw(ws.weights, ws.degree)


def parse_group_elements(text: str, n: int):
    """Parse `1/2,1/3,1/6;0,1/3,1/3` into group elements of length n.  A
    wrong component count or a component that is not a rational number is
    a `PolyError`, an input error."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != n:
            raise PolyError(f"expected {n} components, got {len(parts)} in {chunk!r}")
        try:
            out.append(GroupElement([Fraction(p) for p in parts]))
        except (ValueError, ZeroDivisionError):
            raise PolyError(f"components of {chunk!r} must be rational numbers") from None
    return out


class SymmetryGroup:
    """Finite subgroup of (Q/Z)^n, immutable after construction.

    The group is the lattice span_Z(gens) + L*Z^n over its exponent L,
    held as an echelon basis: row i of `basis` vanishes before column i and
    its pivot basis[i][i] divides L, so |G| = prod L / pivot.  Membership
    and subgroup tests reduce by the basis.  `vectors`, the int vectors over
    L, is walked from it on first read, already sorted (the lexicographic
    order of the components); it is the only listing of the members."""

    __slots__ = ("n", "L", "basis", "order", "gens", "_vectors")

    def __init__(self, n, L, basis, gens):
        self.n = n
        self.L = L
        self.basis = tuple(basis)
        self.order = _order(self.basis, L)
        self.gens = tuple(gens)
        self._vectors = None

    @property
    def vectors(self) -> list:
        """The elements as int vectors over L, sorted; walked on first read."""
        if self._vectors is None:
            self._vectors = _walk(self.basis, self.L)
        return self._vectors

    def __contains__(self, g: GroupElement) -> bool:
        scale, rest = divmod(self.L, g.den)
        return g.n == self.n and rest == 0 and not any(_reduce([a * scale for a in g.num], self.basis))

    def is_subgroup_of(self, other: "SymmetryGroup") -> bool:
        scale, rest = divmod(other.L, self.L)
        return self.n == other.n and rest == 0 and not any(
            any(_reduce([a * scale for a in row], other.basis)) for row in self.basis
        )

    def __repr__(self):
        return f"SymmetryGroup(n={self.n}, order={self.order})"


def _xgcd(a: int, b: int):
    """(g, u, w) with u*a + w*b = g = gcd(a, b)."""
    u0, u1, w0, w1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        u0, u1 = u1, u0 - q * u1
        w0, w1 = w1, w0 - q * w1
    return a, u0, w0


def _order(basis, L: int) -> int:
    return math.prod(L // row[i] for i, row in enumerate(basis))


def _insert(basis: list, v, L: int):
    """Add v to the lattice of the echelon basis, in place: at each column
    the pivot row and v are replaced by the unimodular combinations whose
    pivot is their gcd and whose entry there is 0 (Cohen, GTM 138, §2.4)."""
    v = [a % L for a in v]
    for i, h in enumerate(basis):
        a = v[i]
        if a == 0:
            continue
        p = h[i]
        g, u, w = _xgcd(p, a)
        basis[i] = tuple((u * y + w * x) % L for x, y in zip(v, h))
        v = [(a // g * y - p // g * x) % L for x, y in zip(v, h)]


def _lattice(n: int, L: int, vecs, chars=()):
    """(exponent, echelon basis) of {x in span_Z(vecs) + L*Z^n : c.x = 0
    mod L for each c in chars}.  With m characters, the vectors (c.v, v)
    go into an echelon basis on m + n columns; its last n rows span the
    vectors whose first m entries vanish, the kernel.  The basis is rescaled
    so that L is the exponent of the group."""
    m = len(chars)
    basis = [tuple(L * (i == j) for j in range(m + n)) for i in range(m + n)]
    for v in vecs:
        _insert(basis, [sum(a * b for a, b in zip(c, v)) for c in chars] + list(v), L)
    rows = [row[m:] for row in basis[m:]]
    e = math.gcd(L, *(a for row in rows for a in row))
    return L // e, [tuple(a // e for a in row) for row in rows]


def _reduce(v, basis, start: int = 0) -> tuple:
    """The least vector of v + lattice, mod L: coordinate i is brought into
    [0, pivot_i) by row i, in column order from `start`.  Zero exactly when
    v is in the lattice; on a coset of a subgroup, its minimum."""
    v = list(v)
    for i in range(start, len(v)):
        h = basis[i]
        q = v[i] // h[i]
        if q:
            v[i:] = [a - q * b for a, b in zip(v[i:], h[i:])]
    return tuple(v)


def _walk(basis, L: int, bound=None) -> list:
    """Every vector sum c_i h_i mod L with 0 <= c_i < L / pivot_i, once each
    and in lexicographic order: before stepping along h_i, coordinate i is
    reduced into [0, pivot_i), so the steps visit its values in increasing
    order.  A row with pivot L is L*e_i and adds nothing.  Column i is final
    once row i is applied, so with `bound` (multiples of the pivots) only the
    vectors with every coordinate i below bound[i] are stepped to."""
    vecs = [(0,) * len(basis)]
    for i, h in enumerate(basis):
        p = h[i]
        if p == L:
            continue
        tail = h[i:]
        steps = [[c * b for b in tail] for c in range((L if bound is None else bound[i]) // p)]
        out = []
        for v in vecs:
            head = v[:i]
            q = v[i] // p
            base = [a - q * b for a, b in zip(v[i:], tail)]
            out.extend([head + tuple([(a + s) % L for a, s in zip(base, step)]) for step in steps])
        vecs = out
    return vecs


def sector_classes(group: SymmetryGroup) -> dict:
    """{(Fix v, sum v): count} over the int vectors v of the group, in the
    order of their least members, without listing them.  The steps are
    those of `_walk`, on partial vectors; column i is final once row i is
    applied, so the partial vectors that share the mask of their fixed
    columns, their sum and their unfinished columns are merged and counted."""
    L, n = group.L, group.n
    states = {(0, 0) + (0,) * n: 1}
    for i, h in enumerate(group.basis):
        p, tail, bit = h[i], h[i + 1 :], 1 << i
        out: dict = {}
        if p == L:  # the row adds nothing: column i is final as it stands
            for state, k in states.items():
                a = state[2]
                key = (state[0] if a else state[0] | bit, state[1] + a, *state[3:])
                out[key] = out.get(key, 0) + k
        else:
            steps = [(c * p, [c * b for b in tail]) for c in range(L // p)]
            for state, k in states.items():
                mask, total = state[0], state[1]
                q, r = divmod(state[2], p)
                base = [a - q * b for a, b in zip(state[3:], tail)]
                for s, step in steps:
                    a = r + s
                    key = (mask if a else mask | bit, total + a, *[(x + y) % L for x, y in zip(base, step)])
                    out[key] = out.get(key, 0) + k
        states = out
    return {(tuple([i for i in range(n) if mask >> i & 1]), total): k for (mask, total), k in states.items()}


def _check_cap(order: int):
    """Raise before a group of `order` elements over the cap is walked."""
    cap = _cap()
    if order > cap:
        raise EnumerationCapExceeded(
            f"|G| = {order} exceeds cap {cap} (set LGMIRROR_MAX_GROUP)"
        )


def span(n: int, gens) -> SymmetryGroup:
    """Smallest subgroup of (Q/Z)^n containing the generators, as a lattice;
    its order is checked against the cap, and nothing is walked."""
    gens = [g for g in gens if not g.is_identity()]
    L, vecs = int_vectors(gens)
    group = SymmetryGroup(n, *_lattice(n, L, vecs), gens)
    _check_cap(group.order)
    return group


def _greedy_group(n: int, L: int, vecs, chars=()) -> SymmetryGroup:
    """The group of `_lattice(n, L, vecs, chars)`, its order checked against
    the cap, with `minimal_generators`."""
    group = SymmetryGroup(n, *_lattice(n, L, vecs, chars), ())
    _check_cap(group.order)
    group.gens = tuple(minimal_generators(group))
    return group


def minimal_generators(group: SymmetryGroup):
    """The greedy generators over the sorted elements: each is the least
    element not yet spanned.  With S the span so far, that element is found
    on the lattices without a walk: at the last column j where the pivots of
    S and G differ, it is G's row j reduced by G's later rows (every column
    after j agrees, so nothing smaller lies outside S)."""
    n, L, basis = group.n, group.L, group.basis
    spanned = [tuple(L * (i == j) for j in range(n)) for i in range(n)]
    gens = []
    while True:
        differ = [j for j in range(n) if spanned[j][j] != basis[j][j]]
        if not differ:
            return gens
        j = differ[-1]
        v = _reduce(basis[j], basis, j + 1)
        gens.append(GroupElement._raw(v, L))
        _insert(spanned, v, L)


def _gmax_lattice(poly: Polynomial):
    """(exponent, echelon basis) of Gmax(W) = {x / L : A_W x = 0 mod L}, the
    kernel of the rows of A_W.  L = det(A^T A) is a multiple of the exponent
    (A g integral gives A^T A g integral), and 0 exactly when the rank is
    short.  Nothing is walked."""
    rows = exponent_matrix(poly)
    n = poly.nvars
    L = abs(_int_det([[sum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]))
    if L == 0:
        raise RankDeficient(f"exponent matrix of {poly} has rank < {n}")
    return _lattice(n, L, [[int(i == j) for j in range(n)] for i in range(n)], rows)


def gmax(poly: Polynomial) -> SymmetryGroup:
    """Maximal diagonal symmetry group {g : A_W g integral}, generated by
    the rows of its echelon basis.

    Requires the exponent matrix to have full column rank; |Gmax| is checked
    against the cap before anything is walked.
    """
    n = poly.nvars
    L, basis = _gmax_lattice(poly)
    gens = [g for g in (GroupElement._raw(row, L) for row in basis) if not g.is_identity()]
    group = SymmetryGroup(n, L, basis, gens)
    _check_cap(group.order)
    return group


def element_in_gmax(poly: Polynomial, g: GroupElement) -> bool:
    """Direct definition check: every monomial has integral g-weight."""
    return all(
        sum(e * a for e, a in zip(m, g.num)) % g.den == 0 for m in poly.terms
    )


def sl_subgroup(group: SymmetryGroup) -> SymmetryGroup:
    """Elements of integral age (the SL subgroup): the kernel of the sum of
    the coordinates mod L."""
    return _greedy_group(group.n, group.L, group.basis, [(1,) * group.n])


def subgroup_on(group: SymmetryGroup, keep) -> SymmetryGroup:
    """The elements of G that vanish off the coordinates `keep`, as a group
    on those coordinates: the kernel of the other coordinates, projected."""
    n = group.n
    off = [[int(k == j) for j in range(n)] for k in range(n) if k not in keep]
    L, basis = _lattice(n, group.L, group.basis, off)
    return _greedy_group(len(keep), L, [[row[k] for k in keep] for row in basis])


def is_b_admissible(group: SymmetryGroup) -> bool:
    """Every element has integral age: so does every basis row, as age mod 1
    is a character."""
    return all(sum(row) % group.L == 0 for row in group.basis)


def transpose_group(group: SymmetryGroup, poly: Polynomial) -> SymmetryGroup:
    """Dual group {g in Gmax(W^T) : g A_W h integral for all h in G}.

    Built from its constraint lattice, without walking Gmax(W^T): for each
    generator h of G, A_W h is an integral vector c, and the dual group is
    the kernel of x -> c.x mod L on the echelon basis of Gmax(W^T) over its
    exponent L.  Its order is checked against the cap; nothing is walked.
    The pairing uses the head-aligned exponent matrix.  A W that is not
    invertible has no dual group: NoDualGroup, a precondition of the mirror.
    """
    from .polyring import transpose  # local: avoids cycle at import time

    rows = exponent_matrix(poly)
    if len(rows) != poly.nvars or _int_det(rows) == 0:
        raise NoDualGroup(f"{poly} is not invertible")
    try:
        aligned = _head_aligned_rows(poly, rows)
        dual_poly = transpose(poly)
    except PolyError as exc:
        raise NoDualGroup(str(exc)) from None
    for h in group.gens:
        if not element_in_gmax(poly, h):
            raise NotSubgroup(f"{h} is not a symmetry of {poly}")
    chars = [
        [sum(a * b for a, b in zip(row, h.num)) // h.den for row in aligned] for h in group.gens
    ]
    L, basis = _gmax_lattice(dual_poly)
    return _greedy_group(group.n, L, basis, chars)


def bv_cosets(sigma_group: SymmetryGroup, j_group: SymmetryGroup, slots, sigma) -> list:
    """Representatives of the cosets of J in sigma*G, as int vectors over
    L = sigma_group.L: the first M fix both distinguished coordinates and
    the last M are sigma times the first.

    A coset is keyed by its minimum, to which J's echelon basis reduces any
    of its elements; an element is a minimum when each coordinate is below
    J's pivot there, so a walk of sigma*G bounded by those pivots lists the
    keys in order.  The vectors of a coset that fix both slots are a coset
    of J n K in K = {v in sigma*G : v_i0 = v_j0 = 0}, and the least of them
    is its minimum, so a walk of K bounded by the pivots of J n K lists the
    representatives, each keyed by its reduction by J.  The sigma partner of
    the coset keyed k is keyed by the reduction of sigma + k, and the
    partner of a representative r is sigma + r mod L."""
    if not j_group.is_subgroup_of(sigma_group):
        raise NotSubgroup("H is not contained in G")
    n, L = sigma_group.n, sigma_group.L
    scale = L // j_group.L
    rows = [tuple(a * scale for a in row) for row in j_group.basis]
    keys = _walk(sigma_group.basis, L, [row[i] for i, row in enumerate(rows)])
    slots_off = [[int(k == s) for k in range(n)] for s in slots]
    Lk, k_basis = _lattice(n, L, sigma_group.basis, slots_off)
    Ljk, jk_basis = _lattice(n, L, rows, slots_off)
    zero_slot = {}
    for v in _walk(k_basis, Lk, [row[i] * (Lk // Ljk) for i, row in enumerate(jk_basis)]):
        v = tuple([a * (L // Lk) for a in v])
        zero_slot[_reduce(v, rows)] = v
    shift = [a * (L // sigma.den) for a in sigma.num]
    paired = set()
    first = []
    for key in keys:
        if key in paired:
            continue
        rep = zero_slot.get(key)
        if rep is None:
            raise GroupError("coset without a representative fixing the distinguished slots")
        partner_key = _reduce([a + b for a, b in zip(key, shift)], rows)
        if partner_key == key:
            raise GroupError("sigma stabilizes a J-coset")
        first.append(rep)
        paired.add(key)
        paired.add(partner_key)
    if 2 * len(first) != len(keys):
        raise GroupError("sigma pairing did not halve the cosets")
    return first + [tuple([(a + b) % L for a, b in zip(shift, r)]) for r in first]
