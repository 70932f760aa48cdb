"""B-model Frobenius structure on even subspaces: gamma structure constants,
residue pairings, the rescaling map between the two mirror B-models, and the
Frobenius-isomorphism verifier.

Products follow the convention <m;g> * <n;h> = gamma_{g,h} nf(mn) <1;gh>,
with mn carried into the Milnor ring of W restricted to Fix(gh) (monomials
whose support leaves the fixed locus map to zero).

`BAlgebra` numbers the even elements (g, m), g an int vector, and holds
its algebra as sparse tables of nonzero entries: C[i] = {j: (k, c)} with
e_i e_j = c e_k, and P[i] = {j: <e_i, e_j>}, c exact and an int when
integral.  One term suffices: the Jacobian ideal of an invertible potential
is binomial, so a monomial normalizes to one term (Eisenbud-Sturmfels,
"Binomial ideals", Duke Math. J. 84, 1996); `MultiTermProduct` if not.
A pair (g, h) enters the product only through its locus triple
(Fix g, Fix h, Fix gh), on which gamma is keyed, and only when it meets the
index condition I_g u I_h u I_gh = everything; g pairs only with -g
(Krawitz, arXiv:0906.0796, section 2).  `verify_theorem2` maps the even
elements by phi-bar on their int vectors and contracts these tables.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .bvlg import BVModel
from .milnor import MilnorRing, milnor_ring
from .polyring import atomic_decomposition, transpose
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


def _exact(c: Fraction):
    """c as an int when it is integral: the contraction multiplies ints."""
    return c.numerator if c.denominator == 1 else c


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
        for g in space.group.vectors:
            locus = vector_locus(g)
            kept = space.kept[locus]
            if kept and (n - len(locus)) % 2 == 0:
                elems = [(len(self.at) + k, m) for k, m in enumerate(kept)]
                self.sectors[g] = (locus, elems)
                self.at.update({(g, m): i for i, m in elems})
        self.dim = len(self.at)
        self._gamma: dict = {}

    def element(self, g, m) -> str:
        """The name of the basis element <m; g> of the int vector g, for
        mismatch records."""
        return state_name(g, self.L, m, "B")

    def grade(self, g, m):
        """`StateSpace._grade` of <m; g>: (p, q) as numerators over space.D."""
        locus = vector_locus(g)
        return self.space._grade(_degree(m, locus, self.space.ws.weights), sum(g), len(locus))

    def locus(self, g) -> tuple:
        """Fix g of the int vector g, read from `sectors` when g is one."""
        hit = self.sectors.get(g)
        return vector_locus(g) if hit is None else hit[0]

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
                by.setdefault(self.locus(v), []).append(v)
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
        return self._gamma_data(self.locus(g), self.locus(h), vector_locus(gh))[0]

    def unit(self) -> int:
        """The index of the unit <1; 0>, invariant since G <= SL."""
        return self.at[(0,) * self.nvars, (0,) * self.nvars]

    def structure_constants(self) -> list:
        """C[i] = {j: (k, c)}: e_i e_j = c e_k, nonzero products only, over
        the sector pairs (g, h) of `pairs`.  Per pair, gh, gamma and the ring
        of Fix gh are found once, and only the factors that vanish where gh
        does not are multiplied."""
        sectors, at = self.sectors, self.at
        C: list = [{} for _ in range(self.dim)]
        for g, h in self.pairs(sectors, sectors):
            (fg, g_elems), (fh, h_elems) = sectors[g], sectors[h]
            gh = self._add(g, h)
            fgh = vector_locus(gh)
            scalar, socle = self._gamma_data(fg, fh, fgh)
            normal_form = self.ring(fgh).monomial_normal_form
            gone = [k for k, a in enumerate(gh) if a]
            left = [(i, m) for i, m in g_elems if not any([m[k] for k in gone])]
            right = [(j, m) for j, m in h_elems if not any([m[k] for k in gone])]
            for i, m1 in left:
                shifted, row = tuple(map(add, m1, socle)), C[i]
                for j, m2 in right:
                    terms = normal_form(tuple(map(add, shifted, m2)))
                    if len(terms) > 1:
                        pair = f"{self.element(g, m1)} and {self.element(h, m2)}"
                        raise MultiTermProduct(f"the product of {pair} has {len(terms)} terms")
                    for b, c in terms.items():
                        if (gh, b) not in at:
                            raise NotBasisElement(f"a product lands outside the even basis: {(gh, b)!r}")
                        row[j] = (at[gh, b], _exact(scalar * c))
        return C

    def pairing_table(self) -> list:
        """P[i] = {j: <e_i, e_j>}, nonzero pairings only.  Sector g pairs
        only with -g, on the ring of Fix g: its residue scale times the socle
        coefficient of the product."""
        L = self.L
        P: list = [{} for _ in range(self.dim)]
        for g, (locus, elems) in self.sectors.items():
            partner = self.sectors.get(tuple([-a % L for a in g]), (None, ()))[1]
            ring = self.ring(locus)
            scale = ring.residue(1)
            normal_form = ring.monomial_normal_form
            for i, m1 in elems:
                row = P[i]
                for j, m2 in partner:
                    c = normal_form(tuple(map(add, m1, m2))).get(ring.socle)
                    if c:
                        row[j] = _exact(scale * c)
        return P


def phi_bar(alg2: BAlgebra, alg0: BAlgebra, sigma: GroupElement, rescaled: bool = True) -> list:
    """Rescaling map B(W^T, (sigma G)^T) -> B(W^T, sigma (G^T)) on the even
    elements as the list i -> (2 s_i, index in alg0).  (g, m) maps to itself
    (s = 1) when alg0 holds it, else to its sigma-shift (g + sigma, m), the
    volume form toggling dx0+dy0, with s = 1/2 when g fixes the slots and 2
    otherwise (1 unscaled).  (sigma G)^T <= G^T <= sigma (G^T): L2 | L0."""
    L0, up, at0, space0 = alg0.L, alg0.L // alg2.L, alg0.at, alg0.space
    s = tuple([a * (L0 // sigma.den) for a in sigma.num])
    phi = []
    for g, (_, elems) in alg2.sectors.items():
        g0 = tuple([a * up for a in g])
        moved = tuple([(a + b) % L0 for a, b in zip(g0, s)])
        scale = (4 if any([a and b for a, b in zip(g0, s)]) else 1) if rescaled else 2
        for _, m in elems:
            if (g0, m) in at0:
                phi.append((2, at0[g0, m]))
            elif (moved, m) in at0:
                phi.append((scale, at0[moved, m]))
            elif GroupElement._raw(moved, L0) in space0.group and m in space0.kept[vector_locus(moved)]:
                raise OddElement(f"phi maps {alg2.element(g, m)} to the odd element {alg0.element(moved, m)}")
            else:
                raise NotBasisElement(f"neither {alg2.element(g, m)} nor its sigma-shift is in the BV basis")
    return phi


def property1(a_space: StateSpace, b_space: StateSpace) -> Report:
    """All-or-nothing fixing of atomic blocks across the nonempty sectors of
    A(W, G) and B(W^T, G^T), already built: the nonempty loci that split a
    block are read from `kept`, and only when there is one are the group's
    int vectors walked, each sector on such a locus reported in group
    order."""
    violations = []
    for space, side in ((a_space, "A"), (b_space, "B-mirror")):
        blocks = [(b, set(b.variables)) for b in atomic_decomposition(space.poly)]
        split = {}
        for locus, kept in space.kept.items():
            fixed = set(locus)
            cut = [(b, sorted(v & fixed)) for b, v in blocks if 0 < len(v & fixed) < len(v)]
            if kept and cut:
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


def _differing(a: dict, b: dict) -> int:
    """The number of keys at which two sparse tables differ (missing: 0)."""
    return 0 if a == b else sum([a.get(key, 0) != b.get(key, 0) for key in a.keys() | b.keys()])


def associativity_and_frobenius(C: list, P: list):
    """Count the triples (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), and
    with <e_i e_j, e_k> != <e_i, e_j e_k>, from the single-term tables C, P
    of one algebra, one row i at a time: with e_i e_j = c e_l, (e_i e_j) e_k
    = c C_lk over C_l, and e_i (e_j e_k) = c C_il over the inverse index
    l -> [(j, k, c)] of the l in C_i; likewise with P.  Each side sets one
    value per (j, k)."""
    inverse: dict = {}
    for j, cj in enumerate(C):
        for k, (l, c) in cj.items():
            inverse.setdefault(l, []).append((j, k, c))
    assoc_fail = frob_fail = 0
    for ci, pi in zip(C, P):
        # (j, k) -> (e_i e_j) e_k and e_i (e_j e_k) as (m, c), and the pairings
        left, right, pleft, pright = {}, {}, {}, {}
        for j, (l, c) in ci.items():
            for k, (m, d) in C[l].items():
                left[j, k] = (m, c * d)
            for k, p in P[l].items():
                pleft[j, k] = c * p
        for l, (m, d) in ci.items():
            for j, k, c in inverse.get(l, ()):
                right[j, k] = (m, c * d)
        for l, p in pi.items():
            for j, k, c in inverse.get(l, ()):
                pright[j, k] = c * p
        assoc_fail += _differing(left, right)
        frob_fail += _differing(pleft, pright)
    return assoc_fail, frob_fail


def verify_theorem2(model: BVModel, rescaled: bool = True) -> Report:
    """phi-bar preserves products and pairings between the even subspaces of
    the two mirror B-models; also checks unit, associativity, the Frobenius
    identity, and the gamma-factor lemma.  Raises HypothesisFailed when the
    model lacks property 1, on which the theorem rests.

    Each even algebra is built once as its tables C, P (see `BAlgebra`) and
    phi-bar as the index map i -> (2 s_i, phi(i)) (`phi_bar`).  For each i,
    the j in the nonzero supports of C2_i, P2_i, C0_phi(i), P0_phi(i) (pulled
    back by phi) are checked in order, times 4 to stay on ints: phi(C2_ij) =
    s_i s_j C0_phi(i)phi(j) and P2_ij = s_i s_j P0_phi(i)phi(j).  Then the
    unit, `associativity_and_frobenius` on C0, P0, and `gamma_lemma_cases`.
    States are named (`BAlgebra.element`) for mismatch records only."""
    a_space = model.space("A")
    bhk_group = transpose_group(model.sigma_group, model.poly)
    shared_rings: dict = {}
    b2_space = build_state_space(transpose(model.poly), bhk_group, "B", rings=shared_rings)
    prop = property1(a_space, b2_space)
    if not prop.passed:
        raise HypothesisFailed(prop.mismatches)
    mirror = model.mirror()
    b0_space = build_state_space(mirror.poly, mirror.sigma_group, "B", rings=shared_rings)
    alg2, alg0 = BAlgebra(b2_space), BAlgebra(b0_space)
    mismatches = []
    details = {"dim_b2_even": alg2.dim, "dim_b0_even": alg0.dim}
    details.update(b2_total=b2_space.dim, b0_total=b0_space.dim)
    if alg2.dim != alg0.dim:
        mismatches.append({"reason": "even subspace dimensions differ"})

    phi = phi_bar(alg2, alg0, mirror.sigma, rescaled)
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

    C2, P2 = alg2.structure_constants(), alg2.pairing_table()
    C0, P0 = alg0.structure_constants(), alg0.pairing_table()
    fails = {"product": 0, "pairing": 0}
    for i, (w1, t1) in enumerate(phi):
        row2, prow2, row0, prow0 = C2[i], P2[i], C0[t1], P0[t1]
        support = row2.keys() | prow2.keys()
        for t in row0.keys() | prow0.keys():
            support.update(preimages.get(t, ()))
        for j in sorted(support):
            w2, t2 = phi[j]
            w12 = w1 * w2  # 4 s_i s_j
            k, c = row2.get(j, (0, 0))
            w, t = phi[k]  # 4 phi(C2_ij) = 2 w c e_t
            k0, c0 = row0.get(t2, (0, 0))
            for what, bad in (
                ("product", 2 * w * c != w12 * c0 or (c and t != k0)),
                ("pairing", 4 * prow2.get(j, 0) != w12 * prow0.get(t2, 0)),
            ):
                if bad:
                    fails[what] += 1
                    if len(mismatches) < 20:
                        pair = [alg2.element(*elements2[i]), alg2.element(*elements2[j])]
                        mismatches.append({"reason": f"{what} not preserved", "pair": pair})
    details.update(product_failures=fails["product"], pairing_failures=fails["pairing"])

    u = alg0.unit()
    for i, (g, m) in enumerate(alg0.at):
        if C0[u].get(i) != (i, 1) or C0[i].get(u) != (i, 1):
            mismatches.append({"reason": "unit fails", "element": alg0.element(g, m)})

    assoc_fail, frob_fail = associativity_and_frobenius(C0, P0)
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
