"""B-model Frobenius structure on even subspaces: gamma structure constants,
residue pairings, the rescaling map between the two mirror B-models, and the
Frobenius-isomorphism verifier.

Products follow the convention <m;g> * <n;h> = gamma_{g,h} nf(mn) <1;gh>,
with mn carried into the Milnor ring of W restricted to Fix(gh) (monomials
whose support leaves the fixed locus map to zero).

`BAlgebra` indexes the even basis and holds its algebra as sparse tables
over the indices: C[i] = {j: {k: c}} with e_i e_j = sum_k c e_k, and
P[i] = {j: <e_i, e_j>}.  Both are built sector pair by sector pair and hold
nonzero entries only.  A pair (g, h) enters the product only through its
locus triple (Fix g, Fix h, Fix gh), on which gamma is keyed, and only when
it meets the index condition I_g u I_h u I_gh = everything; g pairs only
with -g (Krawitz, arXiv:0906.0796, section 2).  `verify_theorem2` contracts
these tables.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .bvlg import BVModel
from .milnor import MilnorRing, milnor_ring
from .polyring import Polynomial, atomic_decomposition, transpose
from .report import PreconditionError, Report
from .statespace import SectorElement, StateSpace, build_state_space
from .symmetry import GroupElement, fixed_indices, transpose_group, vector_locus



class FrobeniusError(PreconditionError):
    pass


class NonProportional(FrobeniusError):
    """The two Hessian normal forms are not scalar multiples of the socle."""


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


def z2_grading(e: SectorElement, nvars: int) -> int:
    """A-model: N_g mod 2; B-model: N - N_g mod 2."""
    ng = len(fixed_indices(e.sector))
    if e.flavor == "A":
        return ng % 2
    return (nvars - ng) % 2


def even_basis(space: StateSpace):
    return tuple(e for e in space.basis if z2_grading(e, space.poly.nvars) == 0)


class BAlgebra:
    """Krawitz product and residue pairing on the even part of one B-model
    state space, as sparse tables over the even indices.  A sector is its
    int vector over L, the exponent of the group; `sectors` maps each even
    sector, in group order, to its locus (Fix g) and [(index, monomial)]."""

    def __init__(self, space: StateSpace):
        if space.flavor != "B":
            raise MixedSpaces("Frobenius structure is built on B-model spaces")
        self.space = space
        self.poly = space.poly
        self.nvars = space.poly.nvars
        self.L = space.group.L
        self.rings = space.rings  # shared subset-keyed Milnor cache
        self.even = even_basis(space)
        self.index = {e: i for i, e in enumerate(self.even)}
        self.sectors: dict = {}
        for i, e in enumerate(self.even):
            g = self.vector(e.sector)
            if g not in self.sectors:
                self.sectors[g] = (vector_locus(g), [])
            self.sectors[g][1].append((i, e.monomial))
        self._gamma: dict = {}

    def vector(self, g: GroupElement) -> tuple:
        """The int numerators of g over L."""
        scale = self.L // g.den
        return tuple([a * scale for a in g.num])

    def locus(self, g) -> tuple:
        """Fix g of the int vector g, read from `sectors` when g is one."""
        hit = self.sectors.get(g)
        return vector_locus(g) if hit is None else hit[0]

    def _add(self, g, h) -> tuple:
        L = self.L
        return tuple([(a + b) % L for a, b in zip(g, h)])

    def ring(self, locus) -> MilnorRing:
        if locus not in self.rings:
            self.rings[locus] = milnor_ring(self.poly, active=locus, ws=self.space.ws, rings=self.rings)
        return self.rings[locus]

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
        """Solve gamma * Hess(W_{g n h}) / mu_{g n h} = Hess(W_{gh}) / mu_{gh}
        on the locus triple (Fix g, Fix h, Fix gh) of a pair that meets the
        index condition.

        Fix(gh) contains Fix(g) n Fix(h); the defining relation is solved by
        the class Hess(W_extra) / mu_extra on the complementary block, whose
        normal form is (scalar) * (socle of the extra ring).  Returns
        (scalar, extra socle monomial).  Requires W_{gh} to split as
        W_{g n h} + W_extra, no monomial on Fix gh meeting both (guaranteed
        under the all-or-nothing property); raises NonProportional otherwise.
        """
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
        n = self.nvars
        return self.index[SectorElement(GroupElement.identity(n), (0,) * n, "B")]

    def structure_constants(self) -> list:
        """C[i] = {j: {k: c}}: e_i e_j = sum_k c e_k, nonzero products only.

        Only the sector pairs (g, h) of `pairs` are visited.  Per pair, gh,
        gamma and the ring of Fix gh are found once, and only the factors
        that vanish where gh does not are multiplied; a target index is read
        from (sector, monomial)."""
        sectors = self.sectors
        at = {(g, m): i for g, (_, elems) in sectors.items() for i, m in elems}
        C: list = [{} for _ in self.even]
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
                m1, row = tuple(map(add, m1, socle)), C[i]
                for j, m2 in right:
                    terms = normal_form(tuple(map(add, m1, m2)))
                    if terms:
                        try:
                            row[j] = {at[gh, b]: scalar * c for b, c in terms.items()}
                        except KeyError as missing:
                            raise NotBasisElement(f"a product lands outside the even basis: {missing}") from None
        return C

    def pairing_table(self) -> list:
        """P[i] = {j: <e_i, e_j>}, nonzero pairings only.  Sector g pairs
        only with -g, on the ring of Fix g: its residue scale times the socle
        coefficient of the product."""
        L = self.L
        P: list = [{} for _ in self.even]
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
                        row[j] = scale * c
        return P


def phi_map(
    e: SectorElement,
    bhk_space: StateSpace,
    bv_space: StateSpace,
    sigma: GroupElement,
    rescaled: bool = True,
):
    """Rescaling map B(W^T, (sigma G)^T) -> B(W^T, sigma (G^T)).

    Shared basis elements map to themselves; the others move to the sigma-
    shifted sector (the volume form toggles dx0+dy0) with factor 1/2 when g
    fixes the distinguished slots and 2 otherwise.
    """
    if e not in bhk_space.basis_set:
        raise NotBasisElement(f"{e!r} is not in the BHK-mirror basis")
    if e in bv_space.basis_set:
        return Fraction(1), e
    moved = SectorElement(sigma + e.sector, e.monomial, "B")
    if moved not in bv_space.basis_set:
        raise NotBasisElement(f"neither {e!r} nor its sigma-shift is in the BV basis")
    slots = [k for k, a in enumerate(sigma.num) if a]
    fixes = all(e.sector.num[k] == 0 for k in slots)
    if not rescaled:
        return Fraction(1), moved
    return (Fraction(1, 2) if fixes else Fraction(2)), moved


def check_property1(poly: Polynomial, group, ws=None) -> Report:
    """All-or-nothing fixing of atomic blocks across the nonempty sectors of
    A(W, G) and B(W^T, G^T)."""
    a_space = build_state_space(poly, group, "A", ws=ws)
    b_space = build_state_space(transpose(poly), transpose_group(group, poly), "B")
    return property1(a_space, b_space)


def property1(a_space: StateSpace, b_space: StateSpace) -> Report:
    """`check_property1` on A(W, G) and B(W^T, G^T) already built: the
    nonempty loci that split a block are read from the sector classes, and
    each sector on one is reported, in group order."""
    violations = []
    for space, side in ((a_space, "A"), (b_space, "B-mirror")):
        blocks = [(b, set(b.variables)) for b in atomic_decomposition(space.poly)]
        split = {
            locus: [(b, sorted(v & set(locus))) for b, v in blocks if 0 < len(v & set(locus)) < len(v)]
            for locus, kept in space.kept.items()
            if kept
        }
        for g in space.group.elements:
            for block, inside in split.get(fixed_indices(g), ()):
                violations.append(
                    {"side": side, "sector": str(g), "block": str(block), "fixed_in_block": inside}
                )
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
    s = algebra.vector(sigma)
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
            failures.append(
                {
                    "g": str(GroupElement._raw(g, L)),
                    "h": str(GroupElement._raw(h, L)),
                    "gamma": str(lhs),
                    "gamma_sigma": str(rhs),
                    "expected_factor": str(factor),
                }
            )
    return len(sectors) ** 2, failures


def _differing(a: dict, b: dict) -> set:
    """The keys at which two sparse vectors differ; a missing key reads as 0."""
    return {key for key in a.keys() | b.keys() if a.get(key, 0) != b.get(key, 0)}


def associativity_and_frobenius(C: list, P: list):
    """Count the triples (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), and
    those with <e_i e_j, e_k> != <e_i, e_j e_k>, from the tables C and P of
    one algebra.  One row i at a time, over nonzero entries only:
    (e_i e_j) e_k = sum_l C_ij^l C_lk runs over the l in C_ij, and
    e_i (e_j e_k) = sum_l C_jk^l C_il over the l in C_i, each through the
    inverse index l -> [(j, k, C_jk^l)]; likewise with P_lk and P_il for
    the pairings."""
    inverse: dict = {}
    for j, cj in enumerate(C):
        for k, jk in cj.items():
            for l, c in jk.items():
                inverse.setdefault(l, []).append((j, k, c))
    assoc_fail = frob_fail = 0
    for ci, pi in zip(C, P):
        left: dict = {}  # (j, k, m) -> coefficient of e_m in (e_i e_j) e_k
        right: dict = {}  # (j, k, m) -> coefficient of e_m in e_i (e_j e_k)
        pleft: dict = {}  # (j, k) -> <e_i e_j, e_k>
        pright: dict = {}  # (j, k) -> <e_i, e_j e_k>
        for j, ij in ci.items():
            for l, c in ij.items():
                for k, row in C[l].items():
                    for m, d in row.items():
                        left[j, k, m] = left.get((j, k, m), 0) + c * d
                for k, p in P[l].items():
                    pleft[j, k] = pleft.get((j, k), 0) + c * p
        for l, il in ci.items():
            for j, k, c in inverse.get(l, ()):
                for m, d in il.items():
                    right[j, k, m] = right.get((j, k, m), 0) + c * d
        for l, p in pi.items():
            for j, k, c in inverse.get(l, ()):
                pright[j, k] = pright.get((j, k), 0) + c * p
        assoc_fail += len({(j, k) for j, k, _ in _differing(left, right)})
        frob_fail += len(_differing(pleft, pright))
    return assoc_fail, frob_fail


def verify_theorem2(model: BVModel, rescaled: bool = True) -> Report:
    """phi-bar preserves products and pairings between the even subspaces of
    the two mirror B-models; also checks unit, associativity, the Frobenius
    identity, and the gamma-factor lemma.  Raises HypothesisFailed when the
    model lacks property 1, on which the theorem rests.

    Each even algebra is built once as its tables C, P (see `BAlgebra`),
    and phi-bar as the index map i -> (s_i, phi(i)).  For each i, only the
    j in the nonzero supports of C2_i, P2_i, C0_phi(i), P0_phi(i) (pulled
    back by phi) are checked, in order: phi(C2_ij) = s_i s_j
    C0_phi(i)phi(j) and P2_ij = s_i s_j P0_phi(i)phi(j).  Then the unit,
    `associativity_and_frobenius` on C0, P0, and `gamma_lemma_cases`."""
    a_space = build_state_space(model.poly, model.sigma_group, "A", ws=model.ws)
    bhk_group = transpose_group(model.sigma_group, model.poly)
    shared_rings: dict = {}
    b2_space = build_state_space(transpose(model.poly), bhk_group, "B", rings=shared_rings)
    prop = property1(a_space, b2_space)
    if not prop.passed:
        raise HypothesisFailed(prop.mismatches)
    mirror = model.mirror()
    b0_space = build_state_space(mirror.poly, mirror.sigma_group, "B", rings=shared_rings)
    alg2, alg0 = BAlgebra(b2_space), BAlgebra(b0_space)
    even2, even0 = alg2.even, alg0.even
    mismatches = []
    details = {"dim_b2_even": len(even2), "dim_b0_even": len(even0)}
    details.update(b2_total=b2_space.dim, b0_total=b0_space.dim)
    if len(even2) != len(even0):
        mismatches.append({"reason": "even subspace dimensions differ"})

    phi = []  # even2 index -> (scale, even0 index)
    preimages: dict = {}  # even0 index -> [even2 index]
    for i, e in enumerate(even2):
        k, image = phi_map(e, b2_space, b0_space, mirror.sigma, rescaled=rescaled)
        t = alg0.index.get(image)
        if t is None:
            raise OddElement(f"phi maps {e!r} to the odd element {image!r}")
        if t in preimages:
            mismatches.append({"reason": "phi image duplicated", "element": repr(e)})
        if b2_space.bidegree(e) != b0_space.bidegree(image):
            mismatches.append({"reason": "phi changed the bidegree", "element": repr(e)})
        phi.append((k, t))
        preimages.setdefault(t, []).append(i)
    if len(preimages) != len(even0):
        mismatches.append({"reason": "phi is not onto the even BV basis"})

    C2, P2 = alg2.structure_constants(), alg2.pairing_table()
    C0, P0 = alg0.structure_constants(), alg0.pairing_table()
    fails = {"product": 0, "pairing": 0}
    for i, (s1, t1) in enumerate(phi):
        support = C2[i].keys() | P2[i].keys()
        for t in C0[t1].keys() | P0[t1].keys():
            support.update(preimages.get(t, ()))
        for j in sorted(support):
            s2, t2 = phi[j]
            lhs: dict = {}
            for k, c in C2[i].get(j, {}).items():
                s, t = phi[k]
                lhs[t] = lhs.get(t, 0) + s * c
            scale = s1 * s2
            rhs = {t: scale * c for t, c in C0[t1].get(t2, {}).items()}
            for what, bad in (
                ("product", _differing(lhs, rhs)),
                ("pairing", P2[i].get(j, 0) != scale * P0[t1].get(t2, 0)),
            ):
                if bad:
                    fails[what] += 1
                    if len(mismatches) < 20:
                        pair = [repr(even2[i]), repr(even2[j])]
                        mismatches.append({"reason": f"{what} not preserved", "pair": pair})
    details["product_failures"] = fails["product"]
    details["pairing_failures"] = fails["pairing"]

    u = alg0.unit()
    for i, e in enumerate(even0):
        if C0[u].get(i) != {i: 1} or C0[i].get(u) != {i: 1}:
            mismatches.append({"reason": "unit fails", "element": repr(e)})

    assoc_fail, frob_fail = associativity_and_frobenius(C0, P0)
    details["associativity_failures"] = assoc_fail
    details["frobenius_failures"] = frob_fail
    if assoc_fail:
        mismatches.append({"reason": f"{assoc_fail} associativity failures"})
    if frob_fail:
        mismatches.append({"reason": f"{frob_fail} Frobenius-identity failures"})

    checked, gamma_failures = gamma_lemma_cases(alg0, mirror.sigma)
    details["gamma_pairs_checked"] = checked
    if gamma_failures:
        mismatches.append({"reason": "gamma lemma failures", "cases": gamma_failures[:10]})

    return Report("theorem2", not mismatches, details, mismatches)
