"""B-model Frobenius structure on even subspaces: gamma structure constants,
residue pairings, the rescaling map between the two mirror B-models, and the
Frobenius-isomorphism verifier.

Products follow the convention <m;g> * <n;h> = gamma_{g,h} nf(mn) <1;gh>,
with mn carried into the Milnor ring of W restricted to Fix(gh) (monomials
whose support leaves the fixed locus map to zero).

A pair (g, h) of int vectors enters the product only through its locus
triple (Fix g, Fix h, Fix gh), and only when it meets the index condition
I_g u I_h u I_gh = everything; g pairs only with -g (Krawitz,
arXiv:0906.0796, section 2).  So `BAlgebra` holds an even algebra only as
the nonzero products of each locus triple and the nonzero pairings of each
locus, as ints over one denominator each.  A monomial normalizes to one
term, as the Jacobian ideal of an invertible potential is binomial
(Eisenbud-Sturmfels, "Binomial ideals", Duke Math. J. 84, 1996);
`MultiTermProduct` if not.  The ring of a locus is the tensor product of its
block rings, each zero above the weighted degree of its socle, so a product
is reduced only when each block's part fits under that block's socle
degree, and a pairing only when each part meets it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from operator import add

from .bvlg import BVModel
from .milnor import MilnorRing, milnor_ring
from .polyring import atomic_decomposition
from .report import PreconditionError, Report
from .statespace import StateSpace, _degree, build_state_space, state_name
from .symmetry import GroupElement, transpose_group, vector_locus


class FrobeniusError(PreconditionError):
    pass


class NonProportional(FrobeniusError):
    """The two Hessian normal forms are not scalar multiples of the socle."""


class MultiTermProduct(FrobeniusError):
    """A product of two basis elements normalizes to more than one term."""


class MixedSpaces(FrobeniusError):
    pass


class OddElement(FrobeniusError):
    pass


class NotBasisElement(FrobeniusError):
    pass


class HypothesisFailed(FrobeniusError):
    """The all-or-nothing property (property 1) of Theorem 2 fails; carries
    the first few violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        shown = "; ".join(
            f"{v['side']} sector {v['sector']} fixes {v['fixed_in_block']} of {v['block']}"
            for v in self.violations[:3]
        )
        more = len(self.violations) - 3
        super().__init__(
            f"Theorem 2 needs property 1 (all-or-nothing fixing of atomic "
            f"blocks): {shown}" + (f"; and {more} more" if more > 0 else "")
        )


def _over_one_denominator(scalar: Fraction, rows: list) -> tuple:
    """(d, rows): each entry (*head, c) of `rows`, c a Fraction, as the int
    entry (*head, n) with scalar * c = n / d, d the least such denominator."""
    a, lcm = scalar.numerator, math.lcm(*{c.denominator for row in rows for *_, c in row})
    d = scalar.denominator * lcm
    rows = [[(*head, a * c.numerator * (lcm // c.denominator)) for *head, c in row] for row in rows]
    common = math.gcd(d, *[n for row in rows for *_, n in row])
    return d // common, [[(*head, n // common) for *head, n in row] for row in rows]


def _block_grading(ring: MilnorRing):
    """(degrees, tops): the map from a monomial to the tuple of its weighted
    degrees on the blocks of `ring`, and that tuple of the socle, whose
    entries are the socle degrees of the blocks."""
    w = ring.weights
    blocks = [part.active for part in ring.parts or (ring,)]

    def degrees(m) -> tuple:
        return tuple([sum([m[i] * w[i] for i in block]) for block in blocks])

    return degrees, degrees(ring.socle)


def _degree_index(entries, depth: int) -> list:
    """The items of `entries`, (degree tuple, item) pairs, nested by their
    degrees: a level is a list of (degree, next level), and the last level
    the list of items."""
    if not depth:
        return [item for _, item in entries]
    groups: dict = {}
    for degrees, item in entries:
        groups.setdefault(degrees[0], []).append((degrees[1:], item))
    return [(d, _degree_index(sub, depth - 1)) for d, sub in groups.items()]


def _fitting(index: list, caps) -> list:
    """The item lists of a `_degree_index` whose degree at each level is at
    most the cap of that level."""
    nodes = [index]
    for cap in caps:
        nodes = [sub for node in nodes for d, sub in node if d <= cap]
    return nodes


class BAlgebra:
    """Krawitz product and residue pairing on the even part of one B-model
    state space.  A sector g is an int vector over L, the group's exponent,
    even when n - |Fix g| is; `at` numbers the even (g, m) in group order,
    then kept order, and `sectors` maps g to (Fix g, [(index, m)])."""

    def __init__(self, space: StateSpace):
        if space.flavor != "B":
            raise MixedSpaces("Frobenius structure is built on B-model spaces")
        self.space = space
        self.poly = space.poly
        self.nvars = n = space.poly.nvars
        self.L = space.group.L
        self.rings = space.rings  # shared subset-keyed Milnor cache
        self.at: dict = {}
        self.sectors: dict = {}
        self.where: list = []  # index -> (g, place among the states of g)
        for g in space.group.vectors:
            locus = vector_locus(g)
            kept = space.kept.get(locus)
            if kept and (n - len(locus)) % 2 == 0:
                elems = [(len(self.at) + k, m) for k, m in enumerate(kept)]
                self.sectors[g] = (locus, elems)
                self.at.update({(g, m): i for i, m in elems})
                self.where.extend([(g, k) for k in range(len(kept))])
        self.dim = len(self.at)
        self._gamma: dict = {}
        self._products: dict = {}  # locus triple -> (d, rows of (k2, p, n))
        self._pairings: dict = {}  # locus -> (d, rows of (k2, n))

    def element(self, g, m) -> str:
        """The name of the basis element <m; g> of the int vector g, for
        mismatch records."""
        return state_name(g, self.L, m, "B")

    def grade(self, g, m):
        """`StateSpace._grade` of <m; g>: (p, q) as numerators over space.D."""
        locus = vector_locus(g)
        return self.space._grade(_degree(m, locus, self.space.ws.weights), sum(g), len(locus))

    def _add(self, g, h) -> tuple:
        L = self.L
        return tuple([(a + b) % L for a, b in zip(g, h)])

    def ring(self, locus) -> MilnorRing:
        return milnor_ring(self.poly, locus, self.space.ws, self.rings)

    def pairs(self, gs, hs):
        """The pairs (g, h) of int vectors, g in gs and h in hs, that meet the
        index condition I_g u I_h u I_gh = everything: h = -g off Fix g u
        Fix h.  For each pair of loci the h are looked up by their entries
        there, so no other pair is visited."""
        L = self.L
        by_g: dict = {}
        by_h: dict = {}
        for vectors, by in ((gs, by_g), (hs, by_h)):
            for v in vectors:
                by.setdefault(vector_locus(v), []).append(v)
        for g_list in by_g.values():
            for h_list in by_h.values():
                off = [k for k, (a, b) in enumerate(zip(g_list[0], h_list[0])) if a and b]
                at: dict = {}
                for h in h_list:
                    at.setdefault(tuple([h[k] for k in off]), []).append(h)
                for g in g_list:
                    for h in at.get(tuple([-g[k] % L for k in off]), ()):
                        yield g, h

    def _gamma_data(self, fg, fh, fgh):
        """(scalar, extra socle monomial) solving gamma * Hess(W_{g n h}) /
        mu_{g n h} = Hess(W_{gh}) / mu_{gh} on the locus triple (Fix g, Fix h,
        Fix gh) of a pair that meets the index condition: the class
        Hess(W_extra) / mu_extra of the complementary block, a scalar times
        its socle.  W_{gh} must split as W_{g n h} + W_extra, as it does under
        the all-or-nothing property; NonProportional is raised otherwise."""
        key = (fg, fh, fgh)
        hit = self._gamma.get(key)
        if hit is None:
            meet = set(fg) & set(fh)
            extra = tuple(sorted(set(fgh) - meet))
            inside = set(fgh)
            supports = ({k for k, e in enumerate(m) if e} for m in self.poly.terms)
            if any(used <= inside and used & meet and not used <= meet for used in supports):
                raise NonProportional(
                    f"W restricted to {list(fgh)} has cross terms between "
                    f"{sorted(meet)} and {list(extra)}"
                )
            ring_extra = self.ring(extra)
            scalar = ring_extra.hessian_socle_coefficient() / ring_extra.mu
            hit = self._gamma[key] = (scalar, ring_extra.socle)
        return hit

    def gamma(self, g, h) -> Fraction:
        """Scalar coefficient of the structure class (on the extra-block
        socle) of the int vectors g, h; 0 when the index condition fails."""
        gh = self._add(g, h)
        if any(a and b and c for a, b, c in zip(g, h, gh)):
            return Fraction(0)
        return self._gamma_data(vector_locus(g), vector_locus(h), vector_locus(gh))[0]

    def unit(self) -> int:
        """The place of the unit <1; 0>, invariant since G <= SL, among the
        states of the identity sector."""
        return self.space.kept[tuple(range(self.nvars))].index((0,) * self.nvars)

    def products(self, g, h) -> tuple:
        """(d, rows): rows[k1] lists the nonzero products (k2, p, n) of the
        k1-th state of Fix g and the k2-th of Fix h, each n / d times the p-th
        state of Fix gh, gamma included; kept per locus triple.  The
        right-hand factors are indexed by their degrees on the blocks of the
        ring of Fix gh, and a left one meets only those whose product fits
        under every block's socle degree; `monomial_normal_form` judges each
        product it meets.  A product on an odd locus, or on a monomial that
        the locus does not keep, lands outside the even basis."""
        (fg, _), (fh, _) = self.sectors[g], self.sectors[h]
        gh = self._add(g, h)
        fgh = vector_locus(gh)
        key = (fg, fh, fgh)
        hit = self._products.get(key)
        if hit is None:
            scalar, socle = self._gamma_data(fg, fh, fgh)
            ring = self.ring(fgh)
            degrees, tops = _block_grading(ring)
            normal_form = ring.monomial_normal_form
            even = (self.nvars - len(fgh)) % 2 == 0
            position = {m: k for k, m in enumerate(self.space.kept.get(fgh, ()) if even else ())}
            gone = [k for k, a in enumerate(gh) if a]
            kept_g, kept_h = self.space.kept[fg], self.space.kept[fh]
            right = [(degrees(m), (k, m)) for k, m in enumerate(kept_h) if not any([m[i] for i in gone])]
            index = _degree_index(right, len(tops))
            rows: list = [[] for _ in kept_g]
            for row, m1 in zip(rows, kept_g):
                if any([m1[i] for i in gone]):
                    continue
                shifted = tuple(map(add, m1, socle))
                caps = [t - d for t, d in zip(tops, degrees(shifted))]
                for items in _fitting(index, caps):
                    for k2, m2 in items:
                        terms = normal_form(tuple(map(add, shifted, m2)))
                        if len(terms) > 1:
                            pair = f"{self.element(g, m1)} and {self.element(h, m2)}"
                            raise MultiTermProduct(f"the product of {pair} has {len(terms)} terms")
                        for b, c in terms.items():
                            if b not in position:
                                raise NotBasisElement(f"a product lands outside the even basis: {(gh, b)!r}")
                            row.append((k2, position[b], c))
            hit = self._products[key] = _over_one_denominator(scalar, rows)
        return hit

    def pairings(self, g) -> tuple:
        """(d, rows): rows[k1] lists the nonzero pairings (k2, n), n / d, of
        the k1-th and k2-th states of Fix g, the locus of g and -g, on its
        ring: its residue scale times the socle coefficient of the product;
        kept per locus.  Only products whose degree on each block is that
        block's socle degree are reduced."""
        locus = self.sectors[g][0]
        hit = self._pairings.get(locus)
        if hit is None:
            ring = self.ring(locus)
            degrees, tops = _block_grading(ring)
            normal_form = ring.monomial_normal_form
            kept = self.space.kept[locus]
            index: dict = {}
            for k, m in enumerate(kept):
                index.setdefault(degrees(m), []).append((k, m))
            rows: list = [[] for _ in kept]
            for row, m1 in zip(rows, kept):
                for k2, m2 in index.get(tuple([t - d for t, d in zip(tops, degrees(m1))]), ()):
                    c = normal_form(tuple(map(add, m1, m2))).get(ring.socle)
                    if c:
                        row.append((k2, c))
            hit = self._pairings[locus] = _over_one_denominator(ring.residue(1), rows)
        return hit

    def nonzero_products(self) -> dict:
        """g -> {h: `products(g, h)`} over the pairs (g, h) of `pairs` with a
        nonzero product, in that order."""
        out: dict = {g: {} for g in self.sectors}
        for g, h in self.pairs(self.sectors, self.sectors):
            d, rows = self.products(g, h)
            if any(rows):
                out[g][h] = (d, rows)
        return out

    def row(self, i: int, nonzero: dict) -> tuple:
        """(products, pairings) of the i-th state, nonzero ones only, as
        [(j, t, n, d)] with e_i e_j = (n / d) e_t and [(j, n, d)] with
        <e_i, e_j> = n / d; `nonzero` is `nonzero_products`."""
        sectors, (g, k) = self.sectors, self.where[i]
        products = [
            (hs[k2][0], ghs[p][0], n, d)
            for h, (d, rows) in nonzero[g].items()
            for hs, ghs in [(sectors[h][1], sectors[self._add(g, h)][1])]
            for k2, p, n in rows[k]
        ]
        d, rows = self.pairings(g)
        minus = sectors[tuple([-a % self.L for a in g])][1]
        return products, [(minus[k2][0], n, d) for k2, n in rows[k]]


def phi_bar(alg2: BAlgebra, alg0: BAlgebra, sigma: GroupElement) -> list:
    """Rescaling map B(W^T, (sigma G)^T) -> B(W^T, sigma (G^T)) on the even
    elements as the list i -> (2 s_i, index in alg0).  (g, m) maps to itself
    (s = 1) when alg0 holds it, else to its sigma-shift (g + sigma, m), the
    volume form toggling dx0+dy0, with s = 1/2 when g fixes the slots and 2
    otherwise: the one map of Theorem 2, the rescaled one.  (sigma G)^T <=
    G^T <= sigma (G^T): L2 | L0."""
    L0, up, at0, space0 = alg0.L, alg0.L // alg2.L, alg0.at, alg0.space
    s = tuple([a * (L0 // sigma.den) for a in sigma.num])
    phi = []
    for g, (_, elems) in alg2.sectors.items():
        g0 = tuple([a * up for a in g])
        moved = tuple([(a + b) % L0 for a, b in zip(g0, s)])
        scale = 4 if any([a and b for a, b in zip(g0, s)]) else 1
        for _, m in elems:
            if (g0, m) in at0:
                phi.append((2, at0[g0, m]))
            elif (moved, m) in at0:
                phi.append((scale, at0[moved, m]))
            elif GroupElement._raw(moved, L0) in space0.group and m in space0.kept.get(vector_locus(moved), ()):
                raise OddElement(f"phi maps {alg2.element(g, m)} to the odd element {alg0.element(moved, m)}")
            else:
                raise NotBasisElement(f"neither {alg2.element(g, m)} nor its sigma-shift is in the BV basis")
    return phi


def property1(a_space: StateSpace, b_space: StateSpace) -> Report:
    """All-or-nothing fixing of atomic blocks across the nonempty sectors of
    A(W, G) and B(W^T, G^T), already built: the nonempty loci that split a
    block are read from the view each space has joined (`_sizes`), and only
    when there is one are the group's int vectors walked, each sector on
    such a locus reported in group order."""
    violations = []
    for space, side in ((a_space, "A"), (b_space, "B-mirror")):
        blocks = [(b, set(b.variables)) for b in atomic_decomposition(space.poly)]
        split = {}
        for locus in space._sizes():
            fixed = set(locus)
            cut = [(b, sorted(v & fixed)) for b, v in blocks if 0 < len(v & fixed) < len(v)]
            if cut:
                split[locus] = cut
        L = space.group.L
        for v in space.group.vectors if split else ():
            for block, inside in split.get(vector_locus(v), ()):
                sector = str(GroupElement._raw(v, L))
                violations.append({"side": side, "sector": sector, "block": str(block), "fixed_in_block": inside})
    blocks = [str(b) for b in atomic_decomposition(a_space.poly)]
    details = {"blocks": blocks, "a_dim": a_space.dim, "b_dim": b_space.dim}
    return Report("property1", not violations, details, violations)


def gamma_lemma_cases(algebra: BAlgebra, sigma: GroupElement):
    """Factor of gamma(g,h) against gamma(g, sigma h) over all pairs of even
    sectors, per the slot pattern of (g, h): (1/2,1/2)x(1/2,1/2) -> 4,
    (1/2,1/2)x(0,0) -> 1/4, else 1.  Where neither (g, h) nor (g, sigma h)
    meets the index condition both read 0, so only the pairs `pairs` finds
    for h or sigma h are evaluated, in sector order; every pair is counted."""
    L = algebra.L
    s = tuple([a * (L // sigma.den) for a in sigma.num])
    slots = [k for k, a in enumerate(s) if a]
    sectors = list(algebra.sectors)
    shifted = {algebra._add(s, h): h for h in sectors}
    candidates = set(algebra.pairs(sectors, sectors))
    candidates.update((g, shifted[h]) for g, h in algebra.pairs(sectors, shifted))
    failures = []
    for g, h in sorted(candidates):  # int vectors over L sort in group order
        lhs = algebra.gamma(g, h)
        rhs = algebra.gamma(g, algebra._add(s, h))
        factor = Fraction(1)
        if all(2 * g[k] == L for k in slots):
            if all(2 * h[k] == L for k in slots):
                factor = Fraction(4)
            elif not any(h[k] for k in slots):
                factor = Fraction(1, 4)
        if lhs != factor * rhs:
            case = (GroupElement._raw(g, L), GroupElement._raw(h, L), lhs, rhs, factor)
            failures.append(dict(zip(("g", "h", "gamma", "gamma_sigma", "expected_factor"), map(str, case))))
    return len(sectors) ** 2, failures


def _lowest(n: int, d: int) -> tuple:
    """n / d in lowest terms, as (numerator, denominator)."""
    c = math.gcd(n, d)
    return n // c, d // c


def identity_failures(alg: BAlgebra, nonzero: dict) -> tuple:
    """(associativity failures, Frobenius failures): the basis triples with
    (e_i e_j) e_k != e_i (e_j e_k), and with <e_i e_j, e_k> != <e_i, e_j e_k>,
    counted over the sector triples (g, h, q) where a side can be nonzero, one
    state k1 of g at a time: (e_i e_j) e_k = (n1 n2 / d1 d2) e_m over the row
    k1 of (g, h) and the rows p of (gh, q), and e_i (e_j e_k) = (n3 n4 / d3 d4)
    e_m over the row k1 of (g, hq) and the inverse index p -> [(k2, k3, n3)]
    of (h, q); likewise with the pairings of gh and g, for q = -gh.  Each side
    is scaled by the other's denominators to stay on ints."""
    sectors, L = alg.sectors, alg.L
    right_of: dict = {}  # (a, k) -> the b with a nonzero product by the k-th state of a
    left_of: dict = {}  # (b, k) -> the a with a nonzero product by the k-th state of b
    inverses: dict = {}  # (a, b) -> p -> [(k1, k2, n)]: the products of a, b on the p-th state of ab
    for a, found in nonzero.items():
        for b, (_, rows) in found.items():
            inverse = inverses[a, b] = {}
            for k1, row in enumerate(rows):
                if row:
                    right_of.setdefault((a, k1), []).append(b)
                for k2, p, n in row:
                    inverse.setdefault(p, []).append((k1, k2, n))
                    left_of.setdefault((b, k2), set()).add(a)
    triples = set()
    for (a, b), inverse in inverses.items():
        ab = alg._add(a, b)
        minus = tuple([-x % L for x in ab])
        triples.update([(a, b, minus), (minus, a, b)])
        for p in inverse:
            triples.update((a, b, c) for c in right_of.get((ab, p), ()))
            triples.update((c, a, b) for c in left_of.get((ab, p), ()))
    fails = [0, 0]
    for g, h, q in sorted(triples):
        gh, hq = alg._add(g, h), alg._add(h, q)
        none = (1, defaultdict(tuple))  # every row empty
        (d1, one), (d2, two) = nonzero[g].get(h, none), nonzero.get(gh, {}).get(q, none)
        (d3, _), (d4, four) = nonzero[h].get(q, none), nonzero[g].get(hq, none)
        inverse = inverses.get((h, q), {})
        frobenius = not any(alg._add(gh, q))
        (e1, at_gh), (e2, at_g) = alg.pairings(gh) if h in nonzero[g] else none, alg.pairings(g)
        for k1 in range(len(sectors[g][1])):
            # (k2, k3) -> (e_i e_j) e_k; each e_i (e_j e_k) takes its key out, and fails unless equal
            left = {(k2, k3): (m, c * n2) for k2, p, n1 in one[k1] for c in [n1 * d3 * d4] for k3, m, n2 in two[p]}
            right = [
                left.pop((k2, k3), None) != (m, c * n3)
                for l, m, n4 in four[k1] for c in [n4 * d1 * d2] for k2, k3, n3 in inverse.get(l, ())
            ]
            fails[0] += sum(right) + len(left)
            if frobenius:
                left = {(k2, k3): c * n for k2, p, n1 in one[k1] for c in [n1 * e2 * d3] for k3, n in at_gh[p]}
                right = [
                    left.pop((k2, k3), None) != c * n3
                    for l, n in at_g[k1] for c in [n * d1 * e1] for k2, k3, n3 in inverse.get(l, ())
                ]
                fails[1] += sum(right) + len(left)
    return tuple(fails)


def verify_theorem2(model: BVModel) -> Report:
    """phi-bar preserves products and pairings between the even subspaces of
    the two mirror B-models; also checks unit, associativity, the Frobenius
    identity, and the gamma-factor lemma.  Raises HypothesisFailed when the
    model lacks property 1, on which the theorem rests.

    phi-bar is the index map i -> (2 s_i, phi(i)) of the rescaled map
    (`phi_bar`), the only one the theorem is stated for.  The BHK mirror's
    B space is listed once, before property 1 reads it with the counted view
    of A(W, G), so no state of A(W, G) is listed.  One state i of the BHK
    mirror at a time, its nonzero products and pairings (`row`) are set
    beside those of phi(i) in the BV mirror, pulled back by phi, and
    compared times 4, in lowest terms, in the order of j: phi(e_i e_j) =
    s_i s_j phi(e_i) phi(e_j) and <e_i, e_j> = s_i s_j <phi(e_i), phi(e_j)>.
    States are named for mismatch records only."""
    a_space = model.space("A")
    mirror = model.mirror()  # its polynomial and weights are those of W^T
    bhk_group = transpose_group(model.sigma_group, model.poly)
    b2_space = build_state_space(mirror.poly, bhk_group, "B", mirror.ws, mirror.rings)
    b2_space.kept  # listed here, for property 1 and BAlgebra alike
    prop = property1(a_space, b2_space)
    if not prop.passed:
        raise HypothesisFailed(prop.mismatches)
    b0_space = mirror.space("B")
    alg2, alg0 = BAlgebra(b2_space), BAlgebra(b0_space)
    mismatches = []
    details = {"dim_b2_even": alg2.dim, "dim_b0_even": alg0.dim}
    details.update(b2_total=b2_space.dim, b0_total=b0_space.dim)
    if alg2.dim != alg0.dim:
        mismatches.append({"reason": "even subspace dimensions differ"})

    phi = phi_bar(alg2, alg0, mirror.sigma)
    elements2, elements0 = list(alg2.at), list(alg0.at)
    D2, D0 = b2_space.D, b0_space.D
    preimages: dict = {}  # even0 index -> [even2 index]
    for i, ((g, m), (_, t)) in enumerate(zip(elements2, phi)):
        if t in preimages:
            mismatches.append({"reason": "phi image duplicated", "element": alg2.element(g, m)})
        (p2, q2), (p0, q0) = alg2.grade(g, m), alg0.grade(*elements0[t])
        if p2 * D0 != p0 * D2 or q2 * D0 != q0 * D2:
            mismatches.append({"reason": "phi changed the bidegree", "element": alg2.element(g, m)})
        preimages.setdefault(t, []).append(i)
    if len(preimages) != alg0.dim:
        mismatches.append({"reason": "phi is not onto the even BV basis"})

    nonzero2, nonzero0 = alg2.nonzero_products(), alg0.nonzero_products()
    fails = [0, 0]
    for i, (w1, t1) in enumerate(phi):
        # (j, 0) -> 4 e_i e_j, (j, 1) -> 4 <e_i, e_j>, under phi and in lowest terms; in rhs, by the images
        lhs: dict = {}
        rhs: dict = {}
        products, pairings = alg2.row(i, nonzero2)
        for j, t, n, d in products:
            w, t = phi[t]
            lhs[j, 0] = (t, *_lowest(2 * w * n, d))
        for j, n, d in pairings:
            lhs[j, 1] = _lowest(4 * n, d)
        products, pairings = alg0.row(t1, nonzero0)
        for j0, t, n, d in products:
            for j in preimages.get(j0, ()):
                rhs[j, 0] = (t, *_lowest(w1 * phi[j][0] * n, d))
        for j0, n, d in pairings:
            for j in preimages.get(j0, ()):
                rhs[j, 1] = _lowest(w1 * phi[j][0] * n, d)
        for j, what in sorted(lhs.keys() | rhs.keys()):
            if lhs.get((j, what)) != rhs.get((j, what)):
                fails[what] += 1
                if len(mismatches) < 20:
                    pair = [alg2.element(*elements2[i]), alg2.element(*elements2[j])]
                    mismatches.append({"reason": f"{('product', 'pairing')[what]} not preserved", "pair": pair})
    details.update(product_failures=fails[0], pairing_failures=fails[1])

    zero, u = (0,) * alg0.nvars, alg0.unit()
    for g, (_, elems) in alg0.sectors.items():
        (d, on_left), (e, on_right) = alg0.products(zero, g), alg0.products(g, zero)
        left = {k2: (p, n) for k2, p, n in on_left[u]}
        for k, (_, m) in enumerate(elems):
            if left.get(k) != (k, d) or [(p, n) for k2, p, n in on_right[k] if k2 == u] != [(k, e)]:
                mismatches.append({"reason": "unit fails", "element": alg0.element(g, m)})

    assoc_fail, frob_fail = identity_failures(alg0, nonzero0)
    details.update(associativity_failures=assoc_fail, frobenius_failures=frob_fail)
    if assoc_fail:
        mismatches.append({"reason": f"{assoc_fail} associativity failures"})
    if frob_fail:
        mismatches.append({"reason": f"{frob_fail} Frobenius-identity failures"})

    checked, gamma_failures = gamma_lemma_cases(alg0, mirror.sigma)
    details["gamma_pairs_checked"] = checked
    if gamma_failures:
        mismatches.append({"reason": "gamma lemma failures", "cases": gamma_failures[:10]})

    return Report("theorem2", not mismatches, details, mismatches)
