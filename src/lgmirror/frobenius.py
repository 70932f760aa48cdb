"""B-model Frobenius structure on even subspaces: gamma structure constants,
residue pairings, the rescaling map between the two mirror B-models, and the
Frobenius-isomorphism verifier.

Products follow the convention <m;g> * <n;h> = gamma_{g,h} nf(mn) <1;gh>,
with mn carried into the Milnor ring of W restricted to Fix(gh) (monomials
whose support leaves the fixed locus map to zero).

`BAlgebra` indexes the even basis and holds its algebra as sparse tables
over the indices: C[i] = {j: {k: c}} with e_i e_j = sum_k c e_k, and
P[i] = {j: <e_i, e_j>}.  `verify_theorem2` contracts these tables;
`AlgebraElement` with `BAlgebra.product`/`pairing` is the element API on them.
"""

from __future__ import annotations

from fractions import Fraction

from .bvlg import BVModel
from .milnor import MilnorRing, milnor_ring
from .polyring import Polynomial, atomic_decomposition, restrict, transpose
from .report import Report
from .statespace import (
    SectorElement,
    StateSpace,
    build_state_space,
)
from .symmetry import GroupElement, fixed_indices, transpose_group


_ZERO = Fraction(0)


class FrobeniusError(Exception):
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


class AlgebraElement:
    """Finitely supported rational combination of one space's basis elements."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: StateSpace, coeffs=None):
        self.space = space
        self.coeffs = {}
        for e, c in (coeffs or {}).items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c:
                self.coeffs[e] = c

    @classmethod
    def basis(cls, space, e, coeff=1):
        return cls(space, {e: coeff})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.space is not other.space:
            raise MixedSpaces("cannot add elements of different state spaces")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, _ZERO) + c
        return AlgebraElement(self.space, out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.space is other.space
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{e!r}" for e, c in sorted(self.coeffs.items(), key=lambda t: t[0]))


class BAlgebra:
    """Krawitz product and residue pairing on one B-model state space."""

    def __init__(self, space: StateSpace):
        if space.flavor != "B":
            raise MixedSpaces("Frobenius structure is built on B-model spaces")
        self.space = space
        self.poly = space.poly
        self.nvars = space.poly.nvars
        self.rings = space.rings  # shared subset-keyed Milnor cache
        self.even = even_basis(space)
        self.index = {e: i for i, e in enumerate(self.even)}
        self._gamma: dict = {}
        self._products: dict = {}  # (i, j) -> {k: c} over even indices
        self._pairings: dict = {}

    def ring(self, subset) -> MilnorRing:
        subset = tuple(sorted(subset))
        ring = self.rings.get(subset)
        if ring is None:
            ring = milnor_ring(self.poly, active=subset, ws=self.space.ws, rings=self.rings)
            self.rings[subset] = ring
        return ring

    def _gamma_data(self, g: GroupElement, h: GroupElement):
        """Solve gamma * Hess(W_{g n h}) / mu_{g n h} = Hess(W_{gh}) / mu_{gh}.

        Fix(gh) contains Fix(g) n Fix(h); the defining relation is solved by
        the class Hess(W_extra) / mu_extra on the complementary block, whose
        normal form is (scalar) * (socle of the extra ring).  Returns
        (scalar, extra socle monomial), or (0, None) when the index condition
        I_g u I_h u I_gh = everything fails.  Requires W_{gh} to split as
        W_{g n h} + W_extra (guaranteed under the all-or-nothing property);
        raises NonProportional otherwise.
        """
        key = (g, h)
        hit = self._gamma.get(key)
        if hit is not None:
            return hit
        ig = set(fixed_indices(g))
        ih = set(fixed_indices(h))
        igh = set(fixed_indices(g + h))
        if ig | ih | igh != set(range(self.nvars)):
            self._gamma[key] = (Fraction(0), None)
            return self._gamma[key]
        meet = ig & ih
        extra = tuple(sorted(igh - meet))
        whole = restrict(self.poly, igh)
        split = restrict(self.poly, meet) + restrict(self.poly, extra)
        if whole != split:
            raise NonProportional(
                f"W restricted to {sorted(igh)} has cross terms between "
                f"{sorted(meet)} and {list(extra)}"
            )
        ring_extra = self.ring(extra)
        scalar = ring_extra.hessian_socle_coefficient() / ring_extra.mu
        self._gamma[key] = (scalar, ring_extra.socle)
        return self._gamma[key]

    def gamma(self, g: GroupElement, h: GroupElement) -> Fraction:
        """Scalar coefficient of the structure class (on the extra-block socle)."""
        return self._gamma_data(g, h)[0]

    def unit(self) -> AlgebraElement:
        e = SectorElement(
            GroupElement.identity(self.nvars), (0,) * self.nvars, "B"
        )
        if e not in self.space.basis_set:
            raise NotBasisElement("identity-sector unit missing from the basis")
        return AlgebraElement.basis(self.space, e)

    def _product_index(self, i: int, j: int) -> dict:
        """{k: c} with e_i e_j = sum_k c e_k over the even basis; empty when
        the product vanishes."""
        key = (i, j)
        hit = self._products.get(key)
        if hit is not None:
            return hit
        e1, e2 = self.even[i], self.even[j]
        g, h = e1.sector, e2.sector
        coeff, extra_socle = self._gamma_data(g, h)
        out = {}
        if coeff:
            gh = g + h
            igh = fixed_indices(gh)
            mono = tuple(map(sum, zip(e1.monomial, e2.monomial, extra_socle)))
            if all(e == 0 or gh.num[k] == 0 for k, e in enumerate(mono)):
                nf = self.ring(igh).monomial_normal_form(mono)
                for b_mono, c in nf.items():
                    target = SectorElement(gh, b_mono, "B")
                    k = self.index.get(target)
                    if k is None:
                        raise NotBasisElement(
                            f"product lands outside the even invariant basis: {target!r}"
                        )
                    out[k] = coeff * c
        self._products[key] = out
        return out

    def _even_index(self, e: SectorElement) -> int:
        if e not in self.space.basis_set:
            raise NotBasisElement(f"{e!r} is not a basis element")
        if z2_grading(e, self.nvars):
            raise OddElement("products are defined on the even subspace")
        return self.index[e]

    def structure_constants(self) -> list:
        """C[i] = {j: {k: c}}: e_i e_j = sum_k c e_k, nonzero products only."""
        idx = range(len(self.even))
        return [{j: row for j in idx if (row := self._product_index(i, j))} for i in idx]

    def product(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        if a.space is not self.space or b.space is not self.space:
            raise MixedSpaces("operands belong to a different state space")
        out: dict = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                row = self._product_index(self._even_index(e1), self._even_index(e2))
                for k, c in row.items():
                    out[self.even[k]] = out.get(self.even[k], 0) + c1 * c2 * c
        return AlgebraElement(self.space, out)

    def pairing_basis(self, e1: SectorElement, e2: SectorElement) -> Fraction:
        if e2.sector != -e1.sector:
            return _ZERO
        key = (e1, e2)
        hit = self._pairings.get(key)
        if hit is None:
            ring = self.ring(fixed_indices(e1.sector))
            mono = tuple(map(sum, zip(e1.monomial, e2.monomial)))
            c = ring.monomial_normal_form(mono).get(ring.socle, _ZERO)
            hit = self._pairings[key] = ring.residue(c)
        return hit

    def pairing(self, a: AlgebraElement, b: AlgebraElement) -> Fraction:
        if a.space is not self.space or b.space is not self.space:
            raise MixedSpaces("operands belong to a different state space")
        total = _ZERO
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                total += c1 * c2 * self.pairing_basis(e1, e2)
        return total

    def pairing_table(self) -> list:
        """P[i] = {j: <e_i, e_j>}, nonzero pairings only."""
        return [
            {j: p for j, f in enumerate(self.even) if (p := self.pairing_basis(e, f))}
            for e in self.even
        ]


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


def gamma_lemma_cases(algebra: BAlgebra, sigma: GroupElement, sectors):
    """Factor of gamma(g,h) against gamma(g, sigma h) per the slot pattern of
    (g, h): (1/2,1/2)x(1/2,1/2) -> 4, (1/2,1/2)x(0,0) -> 1/4, else 1."""
    slots = [k for k, a in enumerate(sigma.num) if a]
    failures = []
    checked = 0
    for g in sectors:
        g_half = all(2 * g.num[k] == g.den for k in slots)
        for h in sectors:
            h_half = all(2 * h.num[k] == h.den for k in slots)
            h_zero = all(h.num[k] == 0 for k in slots)
            lhs = algebra.gamma(g, h)
            rhs = algebra.gamma(g, sigma + h)
            if g_half and h_half:
                factor = Fraction(4)
            elif g_half and h_zero:
                factor = Fraction(1, 4)
            else:
                factor = Fraction(1)
            checked += 1
            if lhs != factor * rhs:
                failures.append(
                    {
                        "g": str(g),
                        "h": str(h),
                        "gamma": str(lhs),
                        "gamma_sigma": str(rhs),
                        "expected_factor": str(factor),
                    }
                )
    return checked, failures


def _differing(a: dict, b: dict) -> set:
    """The keys at which two sparse vectors differ; a missing key reads as 0."""
    return {key for key in a.keys() | b.keys() if a.get(key, 0) != b.get(key, 0)}


def associativity_and_frobenius(C: list, P: list):
    """Count the triples (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), and
    those with <e_i e_j, e_k> != <e_i, e_j e_k>, from the tables C and P of
    one algebra.  For each pair (i, j) all k are contracted at once over
    nonzero entries: (e_i e_j) e_k = sum_l C_ij^l C_lk, e_i (e_j e_k) =
    sum_l C_jk^l C_il, and likewise with P_lk and P_il for the pairings."""
    assoc_fail = frob_fail = 0
    for ci, pi in zip(C, P):
        for j, cj in enumerate(C):
            left: dict = {}  # (k, m) -> coefficient of e_m in (e_i e_j) e_k
            right: dict = {}  # (k, m) -> coefficient of e_m in e_i (e_j e_k)
            pleft: dict = {}  # k -> <e_i e_j, e_k>
            pright: dict = {}  # k -> <e_i, e_j e_k>
            for l, c in ci.get(j, {}).items():
                for k, row in C[l].items():
                    for m, d in row.items():
                        left[k, m] = left.get((k, m), 0) + c * d
                for k, p in P[l].items():
                    pleft[k] = pleft.get(k, 0) + c * p
            for k, jk in cj.items():
                for l, c in jk.items():
                    for m, d in ci.get(l, {}).items():
                        right[k, m] = right.get((k, m), 0) + c * d
                    pright[k] = pright.get(k, 0) + c * pi.get(l, 0)
            assoc_fail += len({k for k, _ in _differing(left, right)})
            frob_fail += len(_differing(pleft, pright))
    return assoc_fail, frob_fail


def verify_theorem2(model: BVModel, rescaled: bool = True) -> Report:
    """phi-bar preserves products and pairings between the even subspaces of
    the two mirror B-models; also checks unit, associativity, the Frobenius
    identity, and the gamma-factor lemma.  Raises HypothesisFailed when the
    model lacks property 1, on which the theorem rests.

    Each even algebra is built once as its tables C, P (see `BAlgebra`), and
    phi-bar as the index map i -> (s_i, phi(i)).  For every pair (i, j) it
    checks phi(C2_ij) = s_i s_j C0_phi(i)phi(j) and P2_ij = s_i s_j
    P0_phi(i)phi(j); then C0_ui = C0_iu = e_i for the unit u, and
    `associativity_and_frobenius` on C0, P0."""
    a_space = build_state_space(model.poly, model.sigma_group, "A", ws=model.ws)
    bhk_group = transpose_group(model.sigma_group, model.poly)
    shared_rings: dict = {}
    b2_space = build_state_space(transpose(model.poly), bhk_group, "B", rings=shared_rings)
    prop = property1(a_space, b2_space)
    if not prop.passed:
        raise HypothesisFailed(prop.mismatches)
    mirror = model.mirror()
    b0_space = build_state_space(mirror.poly, mirror.sigma_group, "B", rings=shared_rings)
    alg2 = BAlgebra(b2_space)
    alg0 = BAlgebra(b0_space)
    even2, even0 = alg2.even, alg0.even
    mismatches = []
    details = {
        "dim_b2_even": len(even2),
        "dim_b0_even": len(even0),
        "b2_total": b2_space.dim,
        "b0_total": b0_space.dim,
    }
    if len(even2) != len(even0):
        mismatches.append({"reason": "even subspace dimensions differ"})

    phi = []  # even2 index -> (scale, even0 index)
    images = set()
    for e in even2:
        k, image = phi_map(e, b2_space, b0_space, mirror.sigma, rescaled=rescaled)
        if image in images:
            mismatches.append({"reason": "phi image duplicated", "element": repr(e)})
        images.add(image)
        if b2_space.bidegree(e) != b0_space.bidegree(image):
            mismatches.append({"reason": "phi changed the bidegree", "element": repr(e)})
        phi.append((k, alg0._even_index(image)))  # raises OddElement for an odd image
    if images != set(even0):
        mismatches.append({"reason": "phi is not onto the even BV basis"})

    C2, P2 = alg2.structure_constants(), alg2.pairing_table()
    C0, P0 = alg0.structure_constants(), alg0.pairing_table()
    fails = {"product": 0, "pairing": 0}
    for i, (s1, t1) in enumerate(phi):
        for j, (s2, t2) in enumerate(phi):
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

    (unit,) = alg0.unit().coeffs
    u = alg0.index[unit]
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

    # the basis runs over the group's sorted elements, so this is in order
    sectors = list(dict.fromkeys(e.sector for e in even0))
    checked, gamma_failures = gamma_lemma_cases(alg0, mirror.sigma, sectors)
    details["gamma_pairs_checked"] = checked
    if gamma_failures:
        mismatches.append({"reason": "gamma lemma failures", "cases": gamma_failures[:10]})

    return Report("theorem2", not mismatches, details, mismatches)
