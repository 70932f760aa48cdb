"""Milnor rings over exact rationals: Buchberger kernel, normal forms,
Hessians, and the residue pairing.

Everything is computed with `fractions.Fraction`; term orders are weighted
degree + reverse lexicographic, which respects the quasihomogeneous grading.
A ring on any set of active variables is graded by the weights of the whole
potential, which every caller passes with its cache of rings.

A potential whose variables split into connected blocks (variables joined
when they share a monomial) is a Thom-Sebastiani sum, and its Milnor ring is
the tensor product of the rings of its blocks.  `milnor_ring` builds one
Groebner basis per block, keeps block and locus rings in the caller's
subset-keyed cache, and assembles the ring of the sum from them: the union
of the block bases is the reduced basis of the sum, mu is the product and
the socle the sum of the block socles.  Blocks are read off the term
supports of W, which is restricted only to build a block ring.  The
standard monomials of an assembled ring are walked only when `basis` is
read, and the union of its blocks' bases is sorted only when a normal form
or the walk reads it.  A cache may start with another polynomial's block
rings where W restricted to the block is the same and the weights there are
proportional (`adopt_block_rings`), as a BHK mirror does with its model's.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add, le, mul, neg, sub

from .polyring import Polynomial, WeightSystem, restrict
from .report import PreconditionError


class MilnorError(PreconditionError):
    pass


class DegenerateSingularity(MilnorError):
    """The Jacobian ideal is not zero-dimensional on the active variables."""


class DegenerateHessian(MilnorError):
    """Normal form of the Hessian has no socle component."""


class TermOrder:
    """Weighted-degrevlex: weighted degree first, then reverse lexicographic
    with ties broken from the last variable index backwards."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        self.weights = tuple(int(w) for w in weights)

    def wdeg(self, mono) -> int:
        return sum(map(mul, mono, self.weights))

    def key(self, mono):
        return (sum(map(mul, mono, self.weights)), tuple(map(neg, reversed(mono))))


def _leading(terms: dict, order: TermOrder):
    return max(terms, key=order.key)


def _monic(terms: dict, order: TermOrder) -> dict:
    lc = terms[_leading(terms, order)]
    if lc == 1:
        return dict(terms)
    return {m: c / lc for m, c in terms.items()}


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _lcm_mono(a, b):
    return tuple(map(max, a, b))


def _reduce_terms(terms: dict, basis, order: TermOrder) -> dict:
    """Full remainder of `terms` modulo basis entries (lt, monic_terms)."""
    work = dict(terms)
    remainder: dict = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        if c == 0:
            continue
        for lt, g in basis:
            if _divides(lt, m):
                shift = tuple(map(sub, m, lt))
                for m2, c2 in g.items():
                    if m2 == lt:
                        continue
                    mm = tuple(map(add, m2, shift))
                    nv = work.get(mm, Fraction(0)) - c * c2
                    if nv:
                        work[mm] = nv
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c  # later monomials are smaller: m comes back no more
    return remainder


def groebner(gens, order: TermOrder):
    """Reduced Groebner basis (Buchberger with the coprime-lcm criterion).

    Deterministic for a fixed order: pairs are processed by increasing
    weighted degree of the lcm.
    """
    basis = []  # list of (lt, monic terms dict)
    for g in gens:
        terms = g.terms if isinstance(g, Polynomial) else dict(g)
        if terms:
            t = _monic(terms, order)
            basis.append((_leading(t, order), t))
    basis.sort(key=lambda e: order.key(e[0]))

    # a pair's key (weighted degree of the lcm, i, j) never changes once the
    # pair exists, so a heap pops pairs in the order a sorted list would
    def pair_key(i, j):
        return (order.wdeg(_lcm_mono(basis[i][0], basis[j][0])), i, j)

    pairs = [pair_key(i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(pairs)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        lti, gi = basis[i]
        ltj, gj = basis[j]
        lcm = _lcm_mono(lti, ltj)
        if tuple(map(add, lti, ltj)) == lcm:
            continue  # coprime leading terms
        si = tuple(map(sub, lcm, lti))
        sj = tuple(map(sub, lcm, ltj))
        s = {tuple(map(add, m, si)): c for m, c in gi.items()}
        for m, c in gj.items():
            mm = tuple(map(add, m, sj))
            nv = s.get(mm, Fraction(0)) - c
            if nv:
                s[mm] = nv
            else:
                s.pop(mm, None)
        rem = _reduce_terms(s, basis, order)
        if rem:
            t = _monic(rem, order)
            basis.append((_leading(t, order), t))
            k = len(basis) - 1
            for i2 in range(k):
                heapq.heappush(pairs, pair_key(i2, k))

    # minimalize, then tail-reduce
    basis.sort(key=lambda e: order.key(e[0]))
    minimal = []
    for idx, (lt, g) in enumerate(basis):
        if not any(_divides(lt2, lt) for lt2, _ in basis[:idx]):
            minimal.append((lt, g))
    reduced = []
    for idx, (lt, g) in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        rem = _reduce_terms(g, others, order)
        if rem:
            t = _monic(rem, order)
            reduced.append((_leading(t, order), t))
    reduced.sort(key=lambda e: order.key(e[0]))
    return reduced


def jacobian_ideal(poly: Polynomial, active):
    """All first partials of `poly` with respect to the active variables."""
    return [poly.diff(i) for i in active]


class MilnorRing:
    """Quotient by the Jacobian ideal on a chosen set of active variables.

    Monomials keep their full ambient exponent tuples; inactive slots are
    always zero.  `weights` is the ambient weight system used for grading.
    """

    __slots__ = (
        "_poly",
        "active",
        "weights",
        "order",
        "_entries",
        "parts",
        "socle",
        "mu",
        "_basis",
        "_hess_socle_coeff",
        "_nf",
    )

    def __init__(self, poly: Polynomial, active, weights, order, basis_entries, parts=()):
        """`parts` are the rings of the connected blocks when there are two
        or more; their reduced bases make up `basis_entries`, which is then
        None here, as is `poly`, W restricted to `active`."""
        self._poly = poly
        self.active = tuple(sorted(active))
        self.weights = tuple(weights)
        self.order = order
        self._entries = basis_entries
        self.parts = tuple(parts)
        self._hess_socle_coeff = None
        self._nf: dict = {}  # monomial -> its normal form, read-only
        if self.parts:
            self._basis = None
            self.mu = math.prod(p.mu for p in self.parts)
            self.socle = tuple(map(sum, zip(*(p.socle for p in self.parts))))
        else:
            self._basis = self._standard_basis()
            self.mu = len(self._basis)
            self.socle = self._socle()

    @property
    def poly(self) -> Polynomial:
        """W restricted to the active variables, which an assembled ring
        sums from its blocks' on first read."""
        if self._poly is None:
            self._poly = sum([part.poly for part in self.parts[1:]], self.parts[0].poly)
        return self._poly

    @property
    def basis_entries(self):
        """The reduced Groebner basis as (lt, monic terms), sorted by leading
        term; an assembled ring sorts its blocks' bases on first read."""
        if self._entries is None:
            entries = [e for part in self.parts for e in part.basis_entries]
            self._entries = sorted(entries, key=lambda e: self.order.key(e[0]))
        return self._entries

    @property
    def basis(self):
        """Standard monomials sorted by (wdeg, m); walked on first read."""
        if self._basis is None:
            self._basis = self._standard_basis()
        return self._basis

    def _standard_basis(self):
        """Monomials outside the leading-term ideal, sorted by (wdeg, m).

        A staircase walk over the active variables that extends a prefix
        only while it stays standard.  The bound of a variable is its least
        exponent among the leading terms that divide the prefix and vanish
        on the later variables; the last variable's whole range is emitted
        at once, with the weighted degree carried along.
        """
        n = len(self.weights)
        active = self.active
        if not active:
            return (tuple([0] * n),)
        lead = [lt for lt, _ in self.basis_entries]
        for i in active:
            if not any(0 < lt[i] == sum(lt) for lt in lead):
                raise DegenerateSingularity(
                    f"no pure power of variable {self.poly.variables[i]} in the "
                    f"leading-term ideal of {self.poly}"
                )
        # the level of a leading term is that of its last nonzero active exponent
        levels = [
            max((k for k, i in enumerate(active) if lt[i]), default=-1) for lt in lead
        ]
        weights = self.weights
        last = len(active) - 1
        out = []
        mono = [0] * n

        def rec(k: int, divisors, deg: int):
            i = active[k]
            w = weights[i]
            bound = min(lt[i] for lt, level in divisors if level <= k)
            if k == last:
                for e in range(bound):
                    mono[i] = e
                    out.append((deg + e * w, tuple(mono)))
            else:
                for e in range(bound):
                    mono[i] = e
                    rec(k + 1, [d for d in divisors if d[0][i] <= e], deg + e * w)
            mono[i] = 0

        rec(0, list(zip(lead, levels)), 0)
        out.sort()
        return tuple(m for _, m in out)

    def _socle(self):
        # the basis is sorted by weighted degree, so the socle comes last
        top = self.wdeg(self.basis[-1])
        if len(self.basis) > 1 and self.wdeg(self.basis[-2]) == top:
            at_top = [m for m in self.basis if self.wdeg(m) == top]
            raise MilnorError(
                f"socle not unique for {self.poly} on {self.active}: {at_top}"
            )
        return self.basis[-1]

    def wdeg(self, mono) -> int:
        return sum(map(mul, mono, self.weights))

    def regraded(self, weights, order: TermOrder) -> "MilnorRing":
        """This block ring under `weights`, proportional to its own on the
        block, and `order`, which then orders the block's monomials as its
        own does: the Groebner and standard bases, socle, mu and Hessian
        socle coefficient are shared, the normal forms remembered afresh."""
        ring = MilnorRing.__new__(MilnorRing)
        for name in MilnorRing.__slots__:
            setattr(ring, name, getattr(self, name))
        ring.weights, ring.order, ring._nf = tuple(weights), order, {}
        return ring

    def normal_form(self, p: Polynomial) -> Polynomial:
        outside = ~sum([1 << i for i in self.active])
        if any(s & outside for s in p.supports):
            raise ValueError("polynomial uses variables outside the ring")
        rem = _reduce_terms(p.terms, self.basis_entries, self.order)
        return Polynomial(p.variables, rem)

    def monomial_normal_form(self, mono) -> dict:
        """{m: c}: the normal form of the monomial with exponent tuple
        `mono`, with no Polynomial built on either side; remembered by this
        ring, so the dict is shared and must not be changed."""
        nf = self._nf.get(mono)
        if nf is None:
            nf = self._nf[mono] = _reduce_terms({mono: Fraction(1)}, self.basis_entries, self.order)
        return nf

    def residue(self, socle_coeff) -> Fraction:
        """The pairing value of a product whose normal form has this socle
        coefficient: mu * c / socle-coeff(nf(Hess(W)))."""
        return Fraction(self.mu) * socle_coeff / self.hessian_socle_coefficient()

    def socle_coefficient(self, p: Polynomial) -> Fraction:
        return self.normal_form(p).coefficient(self.socle)

    def hessian_socle_coefficient(self) -> Fraction:
        """Socle coefficient of nf(Hess(W)).  On an assembled ring it is the
        product over the blocks: the Hessian is block diagonal, and the
        normal form of a product of polynomials on disjoint blocks is the
        product of their normal forms."""
        if self._hess_socle_coeff is None:
            if self.parts:
                c = math.prod(p.hessian_socle_coefficient() for p in self.parts)
            else:
                c = self.socle_coefficient(hessian(self.poly, self.active))
            if c == 0:
                raise DegenerateHessian(
                    f"Hessian of {self.poly} on {self.active} reduces to zero socle"
                )
            self._hess_socle_coeff = c
        return self._hess_socle_coeff


def milnor_ring(poly: Polynomial, active, ws: WeightSystem, rings: dict, halves=None) -> MilnorRing:
    """Build the Milnor ring of `poly` restricted to `active` variables,
    graded by the weights of `ws`, the weight system of `poly` itself.

    Raises DegenerateSingularity when the quotient is infinite dimensional.
    `rings` is the subset-keyed cache of one polynomial (a model's is
    `BVModel.rings`), read and written here and seeded only by
    `adopt_block_rings`: the ring of `active` is served from it when its
    weights match, and otherwise built and kept there, with two or more
    connected blocks assembled from block rings looked up in and added to
    the same cache, in the term order of its first ring when their weights
    agree.  Loci that split `active` along the blocks of `poly` give it
    their rings' blocks as `halves`, with no `components` pass; a locus on
    one side is that side's ring.
    """
    active = tuple(sorted(active))
    weights = tuple(ws.weights)
    ring = rings.get(active)
    if ring is not None and ring.weights == weights:
        return ring
    first = next(iter(rings.values()), None)
    order = first.order if first is not None and first.weights == weights else TermOrder(weights)
    if halves is None:
        blocks = components(poly, active)
    else:
        sides = [milnor_ring(poly, half, ws, rings) for half in halves if half]
        if len(sides) == 1:  # the locus is one side, its ring cached as such
            return sides[0]
        blocks = sorted([part.active for side in sides for part in side.parts or (side,)])
    if len(blocks) < 2:
        ring = _block_ring(poly, active, weights, order)
    else:
        parts = []
        for block in blocks:
            part = rings.get(block)
            if part is None or part.weights != weights:
                part = _block_ring(poly, block, weights, order)
                rings.setdefault(block, part)
            parts.append(part)
        ring = MilnorRing(None, active, weights, order, None, parts)
    rings.setdefault(active, ring)
    return ring


def adopt_block_rings(rings: dict, donor: dict, poly: Polynomial, ws: WeightSystem) -> None:
    """Put into `rings`, the subset-keyed cache of `poly` graded by `ws`,
    each block ring of the cache `donor` (of another polynomial) that is
    poly's own up to a scale of its weights (`_adoptable`), regraded by ws
    in one term order.  Scaling one block's weights leaves weighted-degrevlex
    on its monomials unchanged, so no Buchberger run is needed for it."""
    weights = tuple(ws.weights)
    order = None
    for active, ring in donor.items():
        if ring.parts or active in rings or not _adoptable(ring, poly, weights):
            continue
        if order is None:
            first = next(iter(rings.values()), None)
            order = first.order if first is not None and first.weights == weights else TermOrder(weights)
        rings[active] = ring.regraded(weights, order)


def _adoptable(ring: MilnorRing, poly: Polynomial, weights) -> bool:
    """Whether the block ring `ring` is that of `poly` on its block under
    `weights`: W restricted to the block is the same, and the weights there
    are proportional."""
    scales = [(ring.weights[i], weights[i]) for i in ring.active]
    if any(a * scales[0][1] != b * scales[0][0] for a, b in scales):
        return False
    return ring.poly == restrict(poly, ring.active)


def _block_ring(poly: Polynomial, block, weights, order: TermOrder) -> MilnorRing:
    """The one-shot ring of `poly` on `block`, in the order of the locus.
    A variable in no monomial is a block of its own, and raises here."""
    restricted = restrict(poly, block)
    if block and restricted.is_zero():
        raise DegenerateSingularity(f"{poly} vanishes on the active variables {block}")
    basis_entries = groebner(jacobian_ideal(restricted, block), order)
    return MilnorRing(restricted, block, weights, order, basis_entries)


def components(poly: Polynomial, active):
    """Connected blocks of the active variables, two variables joined when
    they share a monomial of `poly` restricted to them (read off its
    `supports`); sorted tuples."""
    outside = ~sum([1 << i for i in active])
    blocks = [1 << i for i in active]
    for s in poly.supports:
        if not s & outside:
            joined = [b for b in blocks if b & s]
            if len(joined) > 1:
                blocks = [b for b in blocks if not b & s] + [sum(joined)]
    return sorted(tuple([i for i in active if b >> i & 1]) for b in blocks)


def hessian(poly: Polynomial, active) -> Polynomial:
    """Determinant of the matrix of second partials on the active variables.

    The variable-interaction graph splits the matrix into diagonal blocks, so
    the determinant is computed blockwise (cofactor expansion with memoized
    column masks inside each block).  Empty variable set gives 1.
    """
    result = Polynomial(poly.variables, {tuple([0] * poly.nvars): Fraction(1)})
    for comp in components(poly, active):
        rows = [[poly.diff(i).diff(j) for j in comp] for i in comp]
        result = result * _poly_det(rows, poly.variables)
    return result


def _poly_det(rows, variables) -> Polynomial:
    n = len(rows)
    zero_m = tuple([0] * len(variables))
    if n == 0:
        return Polynomial(variables, {zero_m: Fraction(1)})
    memo: dict = {}

    def rec(mask: int) -> Polynomial:
        if mask == 0:
            return Polynomial(variables, {zero_m: Fraction(1)})
        if mask in memo:
            return memo[mask]
        row = n - bin(mask).count("1")
        acc = Polynomial.zero(variables)
        sign = 1
        for j in range(n):
            if not mask & (1 << j):
                continue
            entry = rows[row][j]
            if not entry.is_zero():
                term = entry * rec(mask & ~(1 << j))
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        memo[mask] = acc
        return acc

    return rec((1 << n) - 1)
