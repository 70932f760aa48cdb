"""Finite diagonal symmetry groups in (Q/Z)^n.

A group element g = (g_1, ..., g_n) is stored as an integer numerator vector
over one positive denominator: g_i = num[i] / den with 0 <= num[i] < den.
The form is canonical (den is the order of g and gcd(den, *num) = 1), so
equality, hashing and the group law all run on ints.  Fractions appear only
at the edges: parsing, `components`, `str` and ages.
A group's order is fixed once, when the `SymmetryGroup` is built: its
elements are sorted by their int vectors over the lcm of their
denominators, which is the lexicographic order of the components.
Closures (spans, G^max from its Smith normal form generators) run on integer
vectors over a common denominator.  A dual group is built from the integer
kernel of its constraint congruences, so G^max(W^T) is never enumerated and
the cap applies to the groups that are kept.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .polyring import (
    NotInvertible,
    Polynomial,
    WeightSystem,
    _head_aligned_rows,
    _int_det,
    exponent_matrix,
)


class GroupError(Exception):
    pass


class RankDeficient(GroupError):
    """Exponent matrix rank < variable count: G^max would be infinite."""


class NotSubgroup(GroupError):
    pass


class EnumerationCapExceeded(GroupError):
    pass


def _cap() -> int:
    return int(os.environ.get("LGMIRROR_MAX_GROUP", 10**6))


class GroupElement:
    """A diagonal symmetry (g_1, ..., g_n) with each g_i in [0, 1), stored as
    the canonical int numerators `num` over the order `den`."""

    __slots__ = ("num", "den")

    def __init__(self, components):
        fracs = [Fraction(c) for c in components]
        den = math.lcm(*(f.denominator for f in fracs))
        self._canonical([f.numerator * (den // f.denominator) for f in fracs], den)

    def _canonical(self, num, den):
        num = [a % den for a in num]
        d = math.gcd(den, *num)
        self.num = tuple(a // d for a in num)
        self.den = den // d

    @classmethod
    def _raw(cls, num, den: int) -> "GroupElement":
        """The element (num[i] / den)_i; num need not be reduced."""
        g = cls.__new__(cls)
        g._canonical(num, den)
        return g

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls._raw((0,) * n, 1)

    @property
    def components(self):
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    @property
    def n(self) -> int:
        return len(self.num)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        den = math.lcm(self.den, other.den)
        s1, s2 = den // self.den, den // other.den
        return GroupElement._raw(
            [a * s1 + b * s2 for a, b in zip(self.num, other.num)], den
        )

    def __neg__(self) -> "GroupElement":
        # -a mod den keeps gcd(den, *num) = 1, so the result is canonical
        g = GroupElement.__new__(GroupElement)
        g.num = tuple(-a % self.den for a in self.num)
        g.den = self.den
        return g

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, k: int) -> "GroupElement":
        return GroupElement._raw([a * k for a in self.num], self.den)

    __rmul__ = __mul__

    def is_identity(self) -> bool:
        return self.den == 1

    def order(self) -> int:
        return self.den

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash(self.num) ^ self.den

    def __lt__(self, other):
        """Lexicographic order of the components as rationals (groups sort
        by `int_vectors` instead; this serves `SectorElement` and tests)."""
        d1, d2 = self.den, other.den
        if d1 == d2:
            return self.num < other.num
        return tuple(a * d2 for a in self.num) < tuple(b * d1 for b in other.num)

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
    return tuple(i for i, a in enumerate(g.num) if a == 0)


def j_element(ws: WeightSystem) -> GroupElement:
    """Exponential grading operator (q_1, ..., q_n) = (w_1, ..., w_n) / d."""
    return GroupElement._raw(ws.weights, ws.degree)


def parse_group_elements(text: str, n: int):
    """Parse `1/2,1/3,1/6;0,1/3,1/3` into group elements of length n."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != n:
            raise GroupError(f"expected {n} components, got {len(parts)} in {chunk!r}")
        out.append(GroupElement(Fraction(p) for p in parts))
    return out


class SymmetryGroup:
    """Finitely enumerated subgroup of (Q/Z)^n, immutable after construction.

    `elements` is sorted here, and only here, by the int vectors over the
    common denominator: the lexicographic order of the components."""

    __slots__ = ("n", "elements", "element_set", "gens")

    def __init__(self, n, elements, gens):
        self.n = n
        elements = tuple(elements)
        _, vecs = int_vectors(elements)
        order = sorted(range(len(elements)), key=vecs.__getitem__)
        self.elements = tuple(elements[i] for i in order)
        self.element_set = frozenset(self.elements)
        self.gens = tuple(gens)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.element_set

    def is_subgroup_of(self, other: "SymmetryGroup") -> bool:
        return self.element_set <= other.element_set

    def __repr__(self):
        return f"SymmetryGroup(n={self.n}, order={self.order})"


def _close_int(seed_vecs, gen_vecs, L, n, cap):
    """BFS closure of seed under addition of gens, all mod L (integer tuples)."""
    seen = set(seed_vecs)
    frontier = list(seed_vecs)
    while frontier:
        new = []
        for e in frontier:
            for g in gen_vecs:
                f = tuple((a + b) % L for a, b in zip(e, g))
                if f not in seen:
                    seen.add(f)
                    new.append(f)
                    if len(seen) > cap:
                        raise EnumerationCapExceeded(
                            f"group enumeration exceeded cap {cap} (set LGMIRROR_MAX_GROUP)"
                        )
        frontier = new
    return seen


def span(n: int, gens, cap: int | None = None) -> SymmetryGroup:
    """Smallest subgroup of (Q/Z)^n containing the generators (BFS closure)."""
    gens = [g for g in gens if not g.is_identity()]
    if cap is None:
        cap = _cap()
    if not gens:
        return SymmetryGroup(n, [GroupElement.identity(n)], [])
    L, gen_vecs = int_vectors(gens)
    seen = _close_int([(0,) * n], gen_vecs, L, n, cap)
    elements = [GroupElement._raw(vec, L) for vec in seen]
    return SymmetryGroup(n, elements, gens)


def group_from_elements(n: int, elements) -> SymmetryGroup:
    """Wrap an already-closed element set (closure is the caller's contract)."""
    group = SymmetryGroup(n, set(elements), ())
    group.gens = tuple(minimal_generators(n, group.elements))
    return group


def minimal_generators(n: int, elements):
    """Greedy small generating set: add elements not yet spanned, in the
    given order (a group's sorted `elements`)."""
    if len(elements) <= 1:
        return []
    L, vecs = int_vectors(elements)
    spanned = {(0,) * n}
    gens = []
    for g, v in zip(elements, vecs):
        if v in spanned:
            continue
        gens.append(g)
        # abelian: new span = old span + multiples of v
        shifts = []
        acc = v
        while acc not in spanned:
            shifts.append(acc)
            acc = tuple((a + b) % L for a, b in zip(acc, v))
        spanned |= {
            tuple((s + t) % L for s, t in zip(base, shift))
            for base in list(spanned)
            for shift in shifts
        }
        if len(spanned) == len(elements):
            break
    return gens


def smith_normal_form(matrix):
    """U*A*V = D with U, V unimodular; returns (diagonal of D, V).

    Only V is tracked (row operations do not affect it).
    """
    a = [row[:] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op_sub(j, k, q):  # col_j -= q * col_k
        for i in range(m):
            a[i][j] -= q * a[i][k]
        for i in range(n):
            v[i][j] -= q * v[i][k]

    def col_swap(j, k):
        for i in range(m):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(n):
            v[i][j], v[i][k] = v[i][k], v[i][j]

    t = 0
    while t < min(m, n):
        # locate a minimal nonzero pivot in the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            for j in range(n):
                a[t][j] = -a[t][j]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    for j in range(n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t] != 0:  # remainder smaller than pivot: swap up
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op_sub(j, t, q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if a[t][t] < 0:
                for j in range(n):
                    a[t][j] = -a[t][j]
        # divisibility: every entry of the trailing block divisible by pivot
        fix = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            for j in range(n):
                a[t][j] += a[fix][j]
            continue  # redo this pivot
        t += 1
    diag = [a[i][i] for i in range(min(m, n))]
    return diag, v


def _kernel_basis(rows, ncols: int):
    """Z-basis of the integer kernel {x : rows x = 0}: the columns of V
    beyond the rank, where U * rows * V is the Smith normal form."""
    if not rows:
        return [tuple(int(i == j) for i in range(ncols)) for j in range(ncols)]
    diag, v = smith_normal_form(rows)
    rank = sum(1 for d in diag if d)
    return [tuple(v[i][j] for i in range(ncols)) for j in range(rank, ncols)]


def _gmax_generators(poly: Polynomial):
    """(|Gmax|, L, [v_i]): the SNF generators v_i of Gmax(W) as int vectors
    mod L = exponent of Gmax.  Nothing is enumerated."""
    rows = exponent_matrix(poly)
    n = poly.nvars
    diag, v = smith_normal_form(rows)
    if len(diag) < n or any(d == 0 for d in diag):
        raise RankDeficient(f"exponent matrix of {poly} has rank < {n}")
    L = math.lcm(*diag)
    gens = [
        tuple((v[j][i] * (L // d)) % L for j in range(n))
        for i, d in enumerate(diag)
        if d != 1
    ]
    return math.prod(diag), L, gens


def gmax(poly: Polynomial) -> SymmetryGroup:
    """Maximal diagonal symmetry group {g : A_W g integral} via SNF.

    Requires the exponent matrix to have full column rank; |Gmax| = |det A_W|
    is checked against the cap before anything is enumerated.
    """
    order, L, gens = _gmax_generators(poly)
    if order > _cap():
        raise EnumerationCapExceeded(
            f"|Gmax| = {order} exceeds cap {_cap()} (set LGMIRROR_MAX_GROUP)"
        )
    n = poly.nvars
    vecs = _close_int([(0,) * n], gens, L, n, order)
    return SymmetryGroup(
        n, [GroupElement._raw(v, L) for v in vecs], [GroupElement._raw(v, L) for v in gens]
    )


def element_in_gmax(poly: Polynomial, g: GroupElement) -> bool:
    """Direct definition check: every monomial has integral g-weight."""
    return all(
        sum(e * a for e, a in zip(m, g.num)) % g.den == 0 for m in poly.terms
    )


def sl_subgroup(group: SymmetryGroup) -> SymmetryGroup:
    """Elements of integral age (the SL subgroup)."""
    return group_from_elements(
        group.n, [g for g in group.elements if sum(g.num) % g.den == 0]
    )


def is_a_admissible(group: SymmetryGroup, ws: WeightSystem) -> bool:
    return j_element(ws) in group


def is_b_admissible(group: SymmetryGroup) -> bool:
    return all(sum(g.num) % g.den == 0 for g in group.elements)


def transpose_group(group: SymmetryGroup, poly: Polynomial) -> SymmetryGroup:
    """Dual group {g in Gmax(W^T) : g A_W h integral for all h in G}.

    Built from its constraint lattice, without enumerating Gmax(W^T): with
    the SNF generators v_i of Gmax(W^T), g = sum k_i v_i is in the dual group
    iff sum k_i (v_i A_W h) is integral for each generator h of G.  The
    kernel of these congruences, stacked as [C | -diag(M)], maps onto
    generators of the dual group; their closure is the only enumeration, so
    the cap bounds |G^T|.  The pairing uses the head-aligned exponent matrix.
    """
    from .polyring import transpose  # local: avoids cycle at import time

    rows = exponent_matrix(poly)
    if len(rows) != poly.nvars or _int_det(rows) == 0:
        raise NotInvertible(f"{poly} is not invertible")
    aligned = _head_aligned_rows(poly, rows)
    for h in group.gens:
        if not element_in_gmax(poly, h):
            raise NotSubgroup(f"{h} is not a symmetry of {poly}")
    n, m = group.n, len(group.gens)
    _, L, vecs = _gmax_generators(transpose(poly))
    stacked = []
    for row_index, h in enumerate(group.gens):
        # v / L * (A_W h) is integral; (A_W h)_k = cnum_k / h.den
        cnum = [sum(a * b for a, b in zip(row, h.num)) for row in aligned]
        coeffs = [sum(a * b for a, b in zip(vec, cnum)) for vec in vecs]
        stacked.append(coeffs + [-L * h.den if j == row_index else 0 for j in range(m)])
    dual_vecs = {
        tuple(sum(c * v[j] for c, v in zip(k, vecs)) % L for j in range(n))
        for k in _kernel_basis(stacked, len(vecs) + m)
    }
    kept = _close_int([(0,) * n], list(dual_vecs), L, n, _cap())
    return group_from_elements(n, [GroupElement._raw(vec, L) for vec in kept])


class CosetDecomposition:
    """Coset representatives of H in G, each the minimal element of its coset."""

    __slots__ = ("group", "subgroup", "representatives")

    def __init__(self, group, subgroup, representatives):
        self.group = group
        self.subgroup = subgroup
        self.representatives = tuple(representatives)

    def __len__(self):
        return len(self.representatives)


def cosets(group: SymmetryGroup, subgroup: SymmetryGroup) -> CosetDecomposition:
    if not subgroup.is_subgroup_of(group):
        raise NotSubgroup("H is not contained in G")
    seen = set()
    reps = []
    for g in group.elements:  # sorted, so reps are coset minima
        if g in seen:
            continue
        reps.append(g)
        for h in subgroup.elements:
            seen.add(g + h)
    return CosetDecomposition(group, subgroup, reps)


def bv_cosets(sigma_group: SymmetryGroup, j_group: SymmetryGroup, slots, sigma) -> CosetDecomposition:
    """Cosets of J in sigma*G, normalized so the first M representatives fix
    both distinguished coordinates and the last M are sigma times the first.

    One walk over the sorted elements of sigma*G keys each element by its
    coset minimum (the first element met) and keeps the first element of
    each coset that fixes both slots; the sigma partner of the coset with
    minimum k is the coset of sigma + k."""
    if not j_group.is_subgroup_of(sigma_group):
        raise NotSubgroup("H is not contained in G")
    i0, j0 = slots
    key_of = {}
    keys = []
    zero_slot = {}
    for g in sigma_group.elements:
        key = key_of.get(g)
        if key is None:
            key = g
            keys.append(g)
            for h in j_group.elements:
                key_of[g + h] = g
        if key not in zero_slot and g.num[i0] == 0 and g.num[j0] == 0:
            zero_slot[key] = g
    paired = set()
    first = []
    for key in keys:
        if key in paired:
            continue
        rep = zero_slot.get(key)
        if rep is None:
            raise GroupError("coset without a representative fixing the distinguished slots")
        partner_key = key_of[sigma + key]
        if partner_key == key:
            raise GroupError("sigma stabilizes a J-coset")
        first.append(rep)
        paired.add(key)
        paired.add(partner_key)
    second = [sigma + r for r in first]
    if 2 * len(first) != len(keys):
        raise GroupError("sigma pairing did not halve the cosets")
    return CosetDecomposition(sigma_group, j_group, first + second)
