"""The dual groups, Milnor bases, bidegrees, group orders, BV cosets and
Theorem 2 checks against the code they replaced.

`transpose_group` builds G^T from the kernel of its constraint lattice and
`MilnorRing` walks the staircase of its leading-term ideal.  The oracles
here are the enumerate-then-filter versions: G^T as the elements of an
enumerated Gmax(W^T) that pair integrally with every generator of G, and
the standard monomials as the monomials of the pure-power box that no
leading term divides.  Elements, generators and basis order must agree.

`verify_theorem2` contracts sparse single-term structure-constant and
pairing tables, built sector pair by sector pair from nonzero entries only,
and maps the even elements by phi-bar on their int vectors.  Its oracle is
the elementwise verifier with its own algebra (`ElementwiseAlgebra`): gamma
solved per pair of sectors, every basis pair multiplied and paired, every
pair and triple of basis elements checked as `AlgebraElement` objects, and
phi-bar applied one state at a time (`phi_map`).
Its basis-pair tables, unpacked to their one term, must equal the
sector-pair tables entry for entry, phi-bar must equal `phi_map`, and the
two reports must be equal, mismatch order included.

Helpers that the package no longer calls are kept below as oracles: the
Fermat Milnor number, the residue pairing of two polynomials, the action
weight of a group element, the Krawitz dimension check, the twist map of one
basis element, the Z/2 grading and even basis, `phi_map`,
`check_property1` and `elementwise_property1`, the property 1 check over
every group element that `property1` replaced (it walks the group only
when some nonempty locus splits a block).

`milnor_ring` assembles the ring of a locus with several connected blocks
from one Groebner basis per block.  Its oracle is the one-shot ring: one
Buchberger run on the whole locus and its staircase walked at once.  Bases,
the lazily walked standard monomials, mu, socle, Hessian and normal forms
must agree.  `Invariants` joins the character buckets of the block rings;
its oracle walks the one-shot basis of the locus and tests every monomial on
the generators.  The kept monomials must agree, in order.

A `StateSpace` counts its sectors by class (fixed locus, age) and grades on
integer sums.  Its oracle is the eager sweep it replaced: one state per kept
monomial per sector (`build_sector`), each graded by summing the weight
quotients as Fractions.  Tables, dimensions, the states read off
`kept`, sector dimensions and integer bidegrees must agree.  The package has
no element-level view of a space; tests that read states one by one wrap a
space in `EagerSpace`, the eager sweep as `basis`, `basis_set` and
`bidegree`.  A state is the tuple (v, m) of a sector v, an int vector over
the exponent L of the group (or over a common multiple of two groups'
exponents, where states of two spaces meet), and a monomial m; sectors are
combined as vectors mod L (`add`, `neg`), and named, in reports, by the
package's `state_name`.  On all-Fermat models a second oracle needs no
Groebner basis: each sector's dimension is a character sum over the group
(`fermat_locus_dims`).

`cr_table` counts the Chen-Ruan classes of a fixed locus, in the model's
variables, by convolving the (character, degree) counts of its block rings,
read from the ring cache and the character buckets that the A-model sweep
uses (`chenruan.locus_classes`).  Its oracle is the basis walk it replaced:
the Milnor ring of the whole locus, every standard monomial graded by
Griffiths-Steenbrink and its character computed on the generators
(`block_classes`, `walked_classes`), and every pair of classes counted one
by one (`walked_cr_table`), with the coset representatives read as
canonical `GroupElement`s rather than int vectors over the exponent of
sigma G.  Classes and tables must agree; the Hodge-number tests read the
walk (`primitive_hodge`, `hodge_diamond`).

A `SymmetryGroup` is an echelon lattice basis:
its members, int vectors over its exponent, come from a mixed-radix walk,
membership from reduction, and its greedy generators from the lattices
(`_greedy_group` of a set of int vectors rebuilds a group from its
members).  The oracles are the BFS closure it replaced, its vectors sorted,
its member sets, and the greedy rule on those sets.  G^max is an echelon
kernel; its oracle is the product of the cyclic groups of a Smith normal
form.  SL subgroups and the twist projection are kernels too; their oracles
filter members.
`bv_cosets` keys cosets by their minima, the reductions by J's basis; its
oracle sorts every coset, listed from a set of covered vectors (`cosets`),
and takes minima.  It walks only the coset minima of sigma G and of the
slot-fixing kernel, by walks bounded by the pivots of J and of its
slot-fixing part; its second oracle is the walk of every element of sigma G
it replaced (`walked_bv_cosets`).  A state space counts its sector classes on
the lattice (`sector_classes`); the oracle counts (Fix v, sum v) over the
full walk.

`enumerate_k3_systems` solves for the largest weight from the divisibility
its screen asks of it; its oracle is the scan of every sorted quadruple up
to the bound (`oracle_enumerate_k3_systems`).  `weight_system` eliminates on
int rows; its oracle is the same Gauss-Jordan elimination on Fraction rows
(`oracle_weight_system`).  Records, weight systems, and exception classes
and messages must agree.
"""

import math
import re
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from hypothesis import HealthCheck, assume, given, settings, strategies as st

import pytest

from lgmirror.bvlg import (
    MalformedSector,
    _sector_epsilon,
    block_j_elements,
    build_bv,
    verify_theorem1,
    verify_twist_iso,
)
import lgmirror.chenruan as chenruan
import lgmirror.statespace as statespace
from lgmirror.catalog import (
    BoundTooSmall,
    WeightSystemRecord,
    _block_polynomials,
    enumerate_k3_systems,
    filter_bv_invertible,
    quasismooth_general,
    sample_polynomial,
)
from lgmirror.frobenius import (
    BAlgebra,
    HypothesisFailed,
    MixedSpaces,
    NonProportional,
    NotBasisElement,
    OddElement,
    associativity_and_frobenius,
    phi_bar,
    property1,
    verify_theorem2,
)
from lgmirror.milnor import (
    DegenerateSingularity,
    MilnorRing,
    TermOrder,
    _reduce_terms,
    groebner,
    jacobian_ideal,
    milnor_ring,
)
from lgmirror.polyring import (
    NonPositiveWeight,
    NonUniqueWeights,
    NotQuasihomogeneous,
    Polynomial,
    PolyError,
    WeightSystem,
    _head_aligned_rows,
    atomic_decomposition,
    direct_sum,
    exponent_matrix,
    is_invertible,
    parse_polynomial,
    restrict,
    transpose,
    weight_system,
)
from lgmirror.report import Report
from lgmirror.statespace import Invariants, build_state_space, frac_str, poincare_table, state_name
from lgmirror.symmetry import (
    GroupElement,
    GroupError,
    NotSubgroup,
    _greedy_group,
    _reduce,
    _walk,
    bv_cosets,
    fixed_indices,
    gmax,
    int_vectors,
    j_element,
    minimal_generators,
    parse_group_elements,
    sector_classes,
    sl_subgroup,
    span,
    subgroup_on,
    transpose_group,
    vector_locus,
)

E1 = parse_polynomial("x0^2+x1^3+x2^6")
E2 = parse_polynomial("x0^2+x1^4+x2^4")
K3A = parse_polynomial("y0^2+y1^6+y2^6+y3^6")
MINI = parse_polynomial("y0^2+y1^2")
OCTIC = parse_polynomial("y0^2+y1^8+y2^8+y3^8+y4^8")
OVERCAP = parse_polynomial("y0^2+y1^3+y2^12+y3^24+y4^24")
NONPRODUCT = "1/2,1/4,1/4,0,0,0,0;0,0,0,1/2,1/6,1/6,1/6;0,1/4,3/4,0,1/6,5/6,0"


def add(u, v, L: int) -> tuple:
    """u + v mod L, for int vectors over L."""
    return tuple([(a + b) % L for a, b in zip(u, v)])


def neg(v, L: int) -> tuple:
    """-v mod L, for an int vector over L."""
    return tuple([-a % L for a in v])


def as_vector(g, L: int) -> tuple:
    """The group element g as an int vector over L, a multiple of its order."""
    return tuple([a * (L // g.den) for a in g.num])


def members(group, L=None) -> list:
    """The members of `group` as int vectors over L, a multiple of its
    exponent (the exponent itself by default), in group order."""
    if L is None or L == group.L:
        return group.vectors
    scale = L // group.L
    return [tuple([a * scale for a in v]) for v in group.vectors]


def same_members(a, b) -> bool:
    """Two groups have the same members: a group's exponent L is the lcm of
    its members' orders, so equal groups have equal L and vectors."""
    return (a.n, a.L, a.vectors) == (b.n, b.L, b.vectors)


# Helpers with no caller in the package, kept here as oracles.


def fermat_milnor_number(ws):
    """Product formula for sums of Fermat monomials: mu = prod(d/w_i - 1)."""
    total = 1
    for w in ws.weights:
        if ws.degree % w:
            raise ValueError("not a Fermat weight system")
        total *= ws.degree // w - 1
    return total


def residue_pairing(f, g, ring):
    """<f, g> = mu * socle-coeff(nf(f*g)) / socle-coeff(nf(Hess(W)))."""
    return ring.residue(ring.socle_coefficient(f * g))


def action_weight(h, e):
    """Weight of h on the state e = <m; g>, m * omega_g: sum over the fixed
    j of (m_j + 1) h_j mod 1."""
    v, m = e
    total = sum((m[j] + 1) * h.num[j] for j in vector_locus(v))
    return Fraction(total % h.den, h.den)


def has_half_weight_chain(poly, ws):
    """True when some chain block contains a variable of weight 1/2."""
    for block in atomic_decomposition(poly):
        if block.kind == "chain" and any(2 * ws.weights[v] == ws.degree for v in block.variables):
            return True
    return False


def krawitz_dimension_check(poly, group):
    """Bigraded tables of A(W, G) and B(W^T, G^T) agree for invertible W.

    Returns (checked, lhs_table, rhs_table); a chain summand of weight 1/2 is
    outside the supported range, so the check is skipped with a warning and
    checked=False.
    """
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


def tw_a_map(e, model, tw, L):
    """Image of a state (v, m), v over L, under the twist map, with its
    2^(1-eps) factor; the image sector is over L too."""
    v, m = e
    eps = _sector_epsilon(model, v, L)
    for s in model.slots:
        if m[s]:
            raise MalformedSector("monomial touches a distinguished variable")
    return Fraction(2) ** (1 - eps), (tuple(v[k] for k in tw.keep), tuple(m[k] for k in tw.keep))


def z2_grading(e, nvars, flavor):
    """A-model: N_g mod 2; B-model: N - N_g mod 2."""
    ng = len(vector_locus(e[0]))
    if flavor == "A":
        return ng % 2
    return (nvars - ng) % 2


def even_basis(space):
    """The even states of an `EagerSpace`, in basis order."""
    return tuple(e for e in space.basis if z2_grading(e, space.poly.nvars, space.flavor) == 0)


def element_key(alg, e, L):
    """The key in `BAlgebra.at` of the state e, its sector over L."""
    v, m = e
    scale = L // alg.L
    return tuple([a // scale for a in v]), m


def phi_map(e, bhk_space, bv_space, sigma, rescaled=True):
    """Rescaling map B(W^T, (sigma G)^T) -> B(W^T, sigma (G^T)) on one
    state, as (scale, image); the spaces are `EagerSpace`s over one L.

    Shared states map to themselves; the others move to the sigma-shifted
    sector (the volume form toggles dx0+dy0) with factor 1/2 when g fixes
    the distinguished slots and 2 otherwise.
    """
    L = bv_space.L
    assert bhk_space.L == L
    v, m = e
    if e not in bhk_space.basis_set:
        raise NotBasisElement(f"{state_name(v, L, m, 'B')} is not in the BHK-mirror basis")
    if e in bv_space.basis_set:
        return Fraction(1), e
    s = as_vector(sigma, L)
    moved = (add(s, v, L), m)
    if moved not in bv_space.basis_set:
        raise NotBasisElement(f"neither {state_name(v, L, m, 'B')} nor its sigma-shift is in the BV basis")
    fixes = all(v[k] == 0 for k, a in enumerate(s) if a)
    if not rescaled:
        return Fraction(1), moved
    return (Fraction(1, 2) if fixes else Fraction(2)), moved


def check_property1(poly, group, ws=None):
    """All-or-nothing fixing of atomic blocks across the nonempty sectors of
    A(W, G) and B(W^T, G^T), both built here."""
    a_space = build_state_space(poly, group, "A", ws=ws)
    b_space = build_state_space(transpose(poly), transpose_group(group, poly), "B")
    return property1(a_space, b_space)


def elementwise_property1(a_space, b_space):
    """`property1` over every member of the group: each sector wrapped as a
    `GroupElement` and its locus looked up among those that split a block."""
    violations = []
    for space, side in ((a_space, "A"), (b_space, "B-mirror")):
        blocks = [(b, set(b.variables)) for b in atomic_decomposition(space.poly)]
        split = {
            locus: [(b, sorted(v & set(locus))) for b, v in blocks if 0 < len(v & set(locus)) < len(v)]
            for locus, kept in space.kept.items()
            if kept
        }
        for g in (GroupElement._raw(v, space.group.L) for v in space.group.vectors):
            for block, inside in split.get(fixed_indices(g), ()):
                violations.append({"side": side, "sector": str(g), "block": str(block), "fixed_in_block": inside})
    blocks = [str(b) for b in atomic_decomposition(a_space.poly)]
    details = {"blocks": blocks, "a_dim": a_space.dim, "b_dim": b_space.dim}
    return Report("property1", not violations, details, violations)


def smith_normal_form(matrix):
    """U*A*V = D with U, V unimodular; returns (diagonal of D, V).  The
    oracle for G^max, which the package builds as an echelon kernel.

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


def test_smith_normal_form_identity_like():
    diag, v = smith_normal_form([[2, 0], [0, 3]])
    assert sorted(diag) == [1, 6] or sorted(diag) == [2, 3]
    # divisibility chain
    assert diag[1] % diag[0] == 0


def enumerated_gmax(poly):
    """(L, int vectors mod L) of Gmax(W): the direct product of the cyclic
    groups of its Smith normal form generators."""
    n = poly.nvars
    diag, v = smith_normal_form(exponent_matrix(poly))
    L = math.lcm(*diag)
    elems = [(0,) * n]
    for i, d in enumerate(diag):
        vec = [v[j][i] * (L // d) for j in range(n)]
        elems = [
            tuple((a + k * b) % L for a, b in zip(base, vec))
            for base in elems
            for k in range(d)
        ]
    assert len(set(elems)) == math.prod(diag)
    return L, elems


def assert_same_gmax(poly):
    """The echelon kernel of A_W walks the elements of the Smith normal
    form product, sorted."""
    L, vecs = enumerated_gmax(poly)
    assert members(gmax(poly), L) == sorted(vecs)


@pytest.mark.parametrize(
    "text",
    ["x^3+x*y^4", "x^2*y+y^3*z+z^4", "x^3*y+y^3*z+z^3*x", "x^3+y^3+x*y^2", "x^4+y^4+x^2*y^2"],
)
def test_gmax_matches_smith_normal_form(text):
    assert_same_gmax(parse_polynomial(text))


def filtered_dual(group, poly):
    """{g in Gmax(W^T) : g A_W h integral for every generator h of G}."""
    aligned = _head_aligned_rows(poly, exponent_matrix(poly))
    L, vecs = enumerated_gmax(transpose(poly))
    constraints = []
    for h in group.gens:
        cnum = [sum(a * b for a, b in zip(row, h.num)) for row in aligned]
        constraints.append((cnum, L * h.den))
    kept = [vec for vec in vecs if all(sum(a * b for a, b in zip(vec, c)) % m == 0 for c, m in constraints)]
    return _greedy_group(group.n, L, kept)


def box_basis(ring):
    """Monomials of the pure-power box not divided by any leading term,
    sorted by (weighted degree, monomial)."""
    n = ring.poly.nvars
    if not ring.active:
        return ((0,) * n,)
    lead = [lt for lt, _ in ring.basis_entries]
    ranges = []
    for i in ring.active:
        pure = [
            lt[i] for lt in lead
            if lt[i] and all(e == 0 for j, e in enumerate(lt) if j != i)
        ]
        ranges.append(range(min(pure)))
    out = []
    for exps in product(*ranges):
        m = [0] * n
        for i, e in zip(ring.active, exps):
            m[i] = e
        m = tuple(m)
        if not any(all(a <= b for a, b in zip(lt, m)) for lt in lead):
            out.append(m)
    out.sort(key=lambda m: (ring.wdeg(m), m))
    return tuple(out)


def assert_same_dual(group, poly):
    dual = transpose_group(group, poly)
    oracle = filtered_dual(group, poly)
    assert same_members(dual, oracle)
    assert dual.gens == oracle.gens
    return dual


def assert_same_bases(poly, group, ws):
    """Every fixed locus of G: the walk's basis is the box's, in order."""
    for fixed in sorted({vector_locus(v) for v in group.vectors}):
        ring = milnor_ring(poly, active=fixed, ws=ws)
        assert ring.basis == box_basis(ring)
        top = max(ring.wdeg(m) for m in ring.basis)
        assert [m for m in ring.basis if ring.wdeg(m) == top] == [ring.socle]


def fermat_mu(ws, fixed):
    """mu of a Fermat potential restricted to the fixed coordinates."""
    if not fixed:
        return 1
    sub = [ws.weights[i] for i in fixed]
    g = math.gcd(ws.degree, *sub)
    return fermat_milnor_number(WeightSystem(tuple(w // g for w in sub), ws.degree // g))


def _models():
    e1k3a = build_bv(E1, K3A, block_j_elements(weight_system(E1), weight_system(K3A)))
    nonproduct = build_bv(E2, K3A, parse_group_elements(NONPRODUCT, 7))
    return {"e1k3a": e1k3a, "nonproduct": nonproduct}


def _golden_models():
    """The models of the golden reports: E1 x K3A, the nonproduct model and
    E1 x OCTIC."""
    octic = build_bv(E1, OCTIC, block_j_elements(weight_system(E1), weight_system(OCTIC)))
    return {**_models(), "e1octic": octic}


def oracle_deg_m(e, q):
    v, m = e
    fixed = vector_locus(v)
    return sum((m[j] * q[j] for j in fixed), Fraction(0)) + sum((q[j] for j in fixed), Fraction(0))


def oracle_a_bidegree(e, L, q, age_j):
    dm = oracle_deg_m(e, q)
    a = Fraction(sum(e[0]), L)
    ng = len(vector_locus(e[0]))
    return (dm + a - age_j, ng - dm + a - age_j)


def oracle_b_bidegree(e, L, q, age_j):
    dm = oracle_deg_m(e, q)
    return (dm + Fraction(sum(e[0]), L) - age_j, dm + Fraction(sum(neg(e[0], L)), L) - age_j)


def build_sector(poly, group, v, ws, rings, invariant=None):
    """The states (v, m) of the sector v: the invariant standard monomials
    of Milnor(W_v), the ring of Fix v kept in the subset-keyed `rings`; one
    `Invariants` of the group may serve all its sectors."""
    if invariant is None:
        invariant = Invariants(group)
    fixed = vector_locus(v)
    ring = rings.get(fixed)
    if ring is None:
        ring = rings[fixed] = milnor_ring(poly, active=fixed, ws=ws, rings=rings)
    return [(v, m) for m in invariant.kept(ring)]


def eager_sweep(poly, group, ws, rings):
    """The sweep that built one state per kept monomial per sector: (basis,
    {v: sector dimension}), over the sorted vectors.  The monomials of each
    locus are found once."""
    invariant = Invariants(group)
    kept = {}
    basis = []
    sector_dims = {}
    for v in group.vectors:
        fixed = vector_locus(v)
        if fixed not in kept:
            kept[fixed] = [m for _, m in build_sector(poly, group, v, ws, rings, invariant)]
        got = [(v, m) for m in kept[fixed]]
        sector_dims[v] = len(got)
        basis.extend(got)
    return basis, sector_dims


def space_bidegree(space, e, L=None):
    """(p, q) of the state (v, m) of `space`, v over L (a multiple of the
    group's exponent, the exponent by default), from its integer grades."""
    v, m = e
    scale = 1 if L is None else L // space.group.L
    fixed = vector_locus(v)
    deg = statespace._degree(m, fixed, space.ws.weights)
    p, q = space._grade(deg, sum(v) // scale, len(fixed))
    return Fraction(p, space.D), Fraction(q, space.D)


class EagerSpace:
    """The element-level view of a `StateSpace`: `basis`, one state (v, m)
    per kept monomial per sector from the eager sweep over the space's rings
    (group order, then kept order), v over `L` (a multiple of the group's
    exponent, the exponent by default), `basis_set`, and `bidegree` of one
    state (`space_bidegree`).  Every other attribute is the space's.  Build
    one per space, where a test reads states one by one."""

    def __init__(self, space, L=None):
        self.space = space
        self.L = space.group.L if L is None else L
        scale = self.L // space.group.L
        basis = eager_sweep(space.poly, space.group, space.ws, space.rings)[0]
        self.basis = tuple((tuple([a * scale for a in v]), m) for v, m in basis)
        self.basis_set = frozenset(self.basis)

    def __getattr__(self, name):
        return getattr(self.space, name)

    def bidegree(self, e):
        return space_bidegree(self.space, e, self.L)


def assert_same_as_eager_sweep(poly, group):
    """A(W, G) and B(W, G) against the eager sweep: the class table is the
    count of the Fraction-sum bidegrees, the dimension, the states read off
    `kept` in group order and the sector dimensions (in group order) are
    the sweep's, and the integer bidegree of every element is the
    Fraction-sum one."""
    ws = weight_system(poly)
    q = [Fraction(w, ws.degree) for w in ws.weights]
    age_j = sum(q, Fraction(0))
    rings: dict = {}
    L = group.L
    for flavor, oracle in (("A", oracle_a_bidegree), ("B", oracle_b_bidegree)):
        space = build_state_space(poly, group, flavor, ws=ws, rings=rings)
        basis, sector_dims = eager_sweep(poly, group, ws, rings)
        grades = [oracle(e, L, q, age_j) for e in basis]
        table: dict = {}
        for key in grades:
            table[key] = table.get(key, 0) + 1
        assert space.dim == len(basis) > 0
        assert poincare_table(space) == table
        assert [(as_vector(g, L), d) for g, d in space.sector_dims.items()] == list(sector_dims.items())
        states = [(v, m) for v in group.vectors for m in space.kept[vector_locus(v)]]
        assert states == basis
        assert [space_bidegree(space, e) for e in basis] == grades


def cosets(group, subgroup) -> tuple:
    """Coset representatives of H in G, int vectors over the exponent of G,
    each the least member of its coset, from a set of the members already
    covered."""
    if not subgroup.is_subgroup_of(group):
        raise NotSubgroup("H is not contained in G")
    L = group.L
    sub = members(subgroup, L)
    seen = set()
    reps = []
    for g in group.vectors:  # sorted, so reps are coset minima
        if g in seen:
            continue
        reps.append(g)
        seen.update(add(g, h, L) for h in sub)
    return tuple(reps)


def test_cosets_lagrange():
    g = gmax(E1)
    sl = sl_subgroup(g)
    reps = cosets(g, sl)
    assert len(reps) == g.order // sl.order
    covered = {add(rep, h, g.L) for rep in reps for h in members(sl, g.L)}
    assert covered == set(g.vectors)


def test_cosets_whole_group():
    g = gmax(E1)
    assert len(cosets(g, g)) == 1


def test_cosets_not_subgroup():
    with pytest.raises(NotSubgroup):
        cosets(sl_subgroup(gmax(E1)), gmax(E1))


def oracle_bv_cosets(sigma_group, j_group, slots, sigma):
    """Coset representatives from sorted cosets and minima, as int vectors
    over the exponent of sigma G."""
    base = cosets(sigma_group, j_group)
    i0, j0 = slots
    L = sigma_group.L
    sub = members(j_group, L)
    s = as_vector(sigma, L)
    by_key = {}
    for rep in base:
        coset = sorted(add(rep, h, L) for h in sub)
        by_key[coset[0]] = coset
    paired = set()
    first = []
    for key in sorted(by_key):
        if key in paired:
            continue
        coset = by_key[key]
        zero_slot = [e for e in coset if e[i0] == 0 and e[j0] == 0]
        if not zero_slot:
            raise GroupError("coset without a representative fixing the distinguished slots")
        partner_key = min(add(s, e, L) for e in coset)
        if partner_key == key:
            raise GroupError("sigma stabilizes a J-coset")
        first.append(min(zero_slot))
        paired.add(key)
        paired.add(partner_key)
    if 2 * len(first) != len(base):
        raise GroupError("sigma pairing did not halve the cosets")
    return first + [add(s, r, L) for r in first]


def walked_bv_cosets(sigma_group, j_group, slots, sigma):
    """The representatives from one pass over every sorted int vector of
    sigma*G: each vector below J's pivots in every coordinate is a coset
    minimum, and the first vector of each coset that fixes both slots is its
    representative."""
    if not j_group.is_subgroup_of(sigma_group):
        raise NotSubgroup("H is not contained in G")
    i0, j0 = slots
    L = sigma_group.L
    scale = L // j_group.L
    rows = [tuple(a * scale for a in row) for row in j_group.basis]
    pivots = [row[i] for i, row in enumerate(rows)]
    keys = []
    zero_slot = {}
    for v in sigma_group.vectors:
        if all(a < p for a, p in zip(v, pivots)):
            keys.append(v)
        if v[i0] == 0 and v[j0] == 0:
            zero_slot.setdefault(_reduce(v, rows), v)
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
    return first + [add(shift, r, L) for r in first]


def test_bounded_bv_cosets_match_the_walk():
    """Both sides of the 30 census models, E1 x OCTIC, the nonproduct model
    and E2 x the over-cap block: the coset minima from bounded walks give
    the representatives of the walk over all of sigma G, in order."""
    models = _census_models()
    assert len(models) == 30
    models += [_golden_models()["e1octic"], _models()["nonproduct"]]
    models.append(build_bv(E2, OVERCAP, block_j_elements(weight_system(E2), weight_system(OVERCAP))))
    for model in models:
        for side in (model, model.mirror()):
            j_group = span(side.poly.nvars, [side.j1, side.j2])
            args = (side.sigma_group, j_group, side.slots, side.sigma)
            assert bv_cosets(*args) == walked_bv_cosets(*args)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_class_count_and_bounded_walk_match_the_full_walk(data):
    """Random spans on up to six variables: the classes counted on the
    lattice are Counter((Fix v, sum v)) over the full walk, in the same
    order, and a walk bounded by multiples of the pivots is the full walk
    filtered by the bound."""
    group = data.draw(mixed_groups(data.draw(st.integers(1, 6))))
    full = _walk(group.basis, group.L)
    assert len(full) == group.order
    want = Counter([(vector_locus(v), sum(v)) for v in full])
    assert list(sector_classes(group).items()) == list(want.items())
    L = group.L
    bound = [row[i] * data.draw(st.integers(1, L // row[i])) for i, row in enumerate(group.basis)]
    assert _walk(group.basis, L, bound) == [v for v in full if all(a < b for a, b in zip(v, bound))]


def test_class_count_off_by_one_fails_theorem1(monkeypatch):
    """One narrow sector too many in the A-model count of E1 x K3A, patched
    before the first verdict: Theorem 1 must report a mismatch, and so must
    LG/CY on the same model object, which reads the A space it holds."""
    model = _models()["e1k3a"]

    def off_by_one(group):
        classes = sector_classes(group)
        if group is model.sigma_group:
            classes[next(key for key in classes if not key[0])] += 1
        return classes

    monkeypatch.setattr(statespace, "sector_classes", off_by_one)
    report = verify_theorem1(model)
    assert not report.passed
    assert report.details["lhs_total"] == report.details["rhs_total"] + 1
    assert report.mismatches
    report = chenruan.verify_lgcy(model)
    assert not report.passed and report.mismatches
    assert report.details["fjrw_total"] == report.details["cr_total"] + 1


@pytest.mark.parametrize("name", ["e1k3a", "nonproduct", "e1octic"])
def test_bidegrees_and_bv_cosets_match_oracles(name):
    model = _golden_models()[name]
    for side in (model, model.mirror()):
        assert_same_as_eager_sweep(side.poly, side.sigma_group)
        j_group = span(side.poly.nvars, [side.j1, side.j2])
        args = (side.sigma_group, j_group, side.slots, side.sigma)
        assert bv_cosets(*args) == oracle_bv_cosets(*args)


COMPONENT = st.builds(Fraction, st.integers(0, 23), st.sampled_from([1, 2, 3, 4, 6, 12]))


def close_int(gens, n):
    """The BFS closure the lattice walk replaced: every generator added to
    every member until nothing is new, mod the common denominator L.
    Returns L and the int vectors over it, sorted."""
    L, gen_vecs = int_vectors(gens)
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        new = []
        for e in frontier:
            for g in gen_vecs:
                f = tuple((a + b) % L for a, b in zip(e, g))
                if f not in seen:
                    seen.add(f)
                    new.append(f)
        frontier = new
    return L, sorted(seen)


def oracle_minimal_generators(n, L, vecs):
    """The greedy rule on sorted member sets, int vectors over L: a member
    is spanned when it lies in the set closed so far.  The generators are
    returned as `GroupElement`s."""
    spanned = {(0,) * n}
    gens = []
    for v in vecs:
        if v in spanned:
            continue
        gens.append(GroupElement._raw(v, L))
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
    return gens


@st.composite
def mixed_groups(draw, n=None):
    """The span of up to three elements whose components have mixed
    denominators, so its elements do too (order at most 12^3)."""
    if n is None:
        n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.lists(COMPONENT, min_size=n, max_size=n), min_size=1, max_size=3))
    return span(n, [GroupElement(c) for c in gens])


@settings(deadline=None, max_examples=60)
@given(mixed_groups(), st.randoms(use_true_random=False))
def test_group_order_is_the_component_order(group, rng):
    """The lattice walk gives the members of the BFS closure, sorted;
    `_greedy_group` rebuilds the same group from their int vectors in any
    order, with the oracle's greedy generators."""
    L, oracle = close_int(group.gens, group.n)
    assert members(group, L) == oracle
    assert group.order == len(oracle)
    assert minimal_generators(group) == oracle_minimal_generators(group.n, L, oracle)
    vecs = list(oracle)
    rng.shuffle(vecs)
    rebuilt = _greedy_group(group.n, L, vecs)
    assert same_members(rebuilt, group)
    assert rebuilt.gens == tuple(oracle_minimal_generators(group.n, L, oracle))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_kernel_subgroups_match_filters(data):
    """`sl_subgroup` and `subgroup_on` are kernels of characters on the
    lattice; the oracles filter the closed member set and project it."""
    group = data.draw(mixed_groups())
    n = group.n
    L, closed = close_int(group.gens, n)
    sl = [v for v in closed if sum(v) % L == 0]
    got = sl_subgroup(group)
    assert members(got, L) == sl
    assert got.gens == tuple(oracle_minimal_generators(n, L, sl))
    keep = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    projected = sorted(
        tuple([v[k] for k in keep]) for v in closed if all(v[k] == 0 for k in range(n) if k not in keep)
    )
    got = subgroup_on(group, keep)
    assert members(got, L) == projected
    assert got.gens == tuple(oracle_minimal_generators(len(keep), L, projected))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_membership_and_subgroups_by_reduction(data):
    """`in` and `is_subgroup_of` reduce by the echelon basis; the oracle
    looks up the closed member set, wrapped as canonical `GroupElement`s."""
    group = data.draw(mixed_groups())
    n = group.n
    L, vecs = close_int(group.gens, n)
    closed = {GroupElement._raw(v, L) for v in vecs}
    assert all(g in group for g in closed)
    for _ in range(20):
        g = GroupElement(data.draw(st.lists(COMPONENT, min_size=n, max_size=n)))
        assert (g in group) == (g in closed)
        M = math.lcm(L, g.den)
        member = [a * (M // L) for a in data.draw(st.sampled_from(vecs))]
        shifted = GroupElement._raw(add(as_vector(g, M), member, M), M)
        assert (shifted in group) == (shifted in closed)
    other = data.draw(mixed_groups(n))
    L2, vecs2 = close_int(other.gens, n)
    assert group.is_subgroup_of(other) == (closed <= {GroupElement._raw(v, L2) for v in vecs2})
    assert group.is_subgroup_of(span(n, group.gens + other.gens))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_bv_cosets_by_reduction_match_oracle(data):
    """Random J <= sigma*J': the coset minima by reduction give the oracle's
    representatives, or both raise GroupError."""
    n = data.draw(st.integers(2, 4))
    i0, j0 = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    sigma = GroupElement([Fraction(int(k in (i0, j0)), 2) for k in range(n)])
    j_group = data.draw(mixed_groups(n))
    extra = data.draw(mixed_groups(n))
    sigma_group = span(n, j_group.gens + extra.gens + (sigma,))
    args = (sigma_group, j_group, (i0, j0), sigma)
    try:
        want = oracle_bv_cosets(*args)
    except GroupError:
        with pytest.raises(GroupError):
            bv_cosets(*args)
    else:
        assert bv_cosets(*args) == want


def test_dual_groups_match_filter_on_bv_models():
    for model in _models().values():
        for group in (model.group, model.sigma_group):
            dual = assert_same_dual(group, model.poly)
            back = assert_same_dual(dual, transpose(model.poly))
            assert same_members(back, group)


def test_milnor_bases_match_box_on_every_fixed_locus():
    for model in _models().values():
        assert_same_bases(model.poly, model.sigma_group, model.ws)
        dual = transpose_group(model.sigma_group, model.poly)
        mirror_poly = transpose(model.poly)
        mirror_ws = weight_system(mirror_poly)
        assert_same_bases(mirror_poly, dual, mirror_ws)
        # both sides are Fermat: mu is the product formula on every locus
        for poly, group, ws in (
            (model.poly, model.sigma_group, model.ws),
            (mirror_poly, dual, mirror_ws),
        ):
            for fixed in {vector_locus(v) for v in group.vectors}:
                ring = milnor_ring(poly, active=fixed, ws=ws)
                assert ring.mu == fermat_mu(ws, fixed)


def test_milnor_basis_chain_and_loop():
    for text in ("x^3+x*y^4", "x^2*y+y^3*z+z^4", "x^3*y+y^3*z+z^3*x"):
        poly = parse_polynomial(text)
        ring = milnor_ring(poly)
        assert ring.basis == box_basis(ring)


# Calabi-Yau weight systems (sum of weights = degree, every weight dividing
# the degree) on at most four variables, so J lies in SL and
# Gmax stays in the thousands
CY_WEIGHTS = sorted(
    (d, ws)
    for d in (4, 6, 8, 12)
    for n in (2, 3, 4)
    for ws in product([w for w in range(1, d // 2 + 1) if d % w == 0], repeat=n)
    if sum(ws) == d and list(ws) == sorted(ws, reverse=True) and math.gcd(*ws) == 1
)


def fermat_locus_dims(poly, group):
    """({Fix h: count}, {locus: dimension of each of its sectors}) for an
    all-Fermat W = sum x_j^a_j, from characters alone, with no Groebner
    basis.  h acts on Jac(x_j^a_j) dx_j with trace a_j - 1 when h_j = 0 and
    -1 otherwise, so with count(T) the number of h in G with Fix h = T, the
    invariants of a sector with locus F have dimension
    (1/|G|) sum_T count(T) prod_{j in F n T} (a_j - 1) (-1)^|F - T|."""
    a = [0] * poly.nvars
    for m in poly.terms:
        (j,) = [i for i, e in enumerate(m) if e]
        a[j] = m[j]
    count = Counter(vector_locus(v) for v in group.vectors)
    dims = {}
    for locus in count:
        total = sum(
            c * math.prod(a[j] - 1 if j in fixed else -1 for j in locus)
            for fixed, c in count.items()
        )
        dims[locus], rest = divmod(total, group.order)
        assert rest == 0
    return count, dims


def fermat_total(poly, group) -> int:
    count, dims = fermat_locus_dims(poly, group)
    return sum(c * dims[locus] for locus, c in count.items())


def _fermat_golden_sides():
    """(W, G, flavor) of every all-Fermat golden model: both sides of the
    BV models and the two K3A state spaces."""
    models = _golden_models()
    models["e2overcap"] = build_bv(
        E2, OVERCAP, block_j_elements(weight_system(E2), weight_system(OVERCAP))
    )
    sides = {}
    for name, model in models.items():
        mirror = model.mirror()
        sides[name + "-A"] = (model.poly, model.sigma_group, "A")
        sides[name + "-B"] = (mirror.poly, mirror.sigma_group, "B")
    sides["k3a-A"] = (K3A, span(4, parse_group_elements("1/2,1/6,1/6,1/6", 4)), "A")
    sides["k3a-B"] = (K3A, span(4, parse_group_elements("0,1/6,1/6,2/3;1/2,1/2,0,0", 4)), "B")
    return sides


FERMAT_SIDES = [
    f"{name}-{side}"
    for name in ("e1k3a", "nonproduct", "e1octic", "e2overcap", "k3a")
    for side in "AB"
]


@pytest.mark.parametrize("name", FERMAT_SIDES)
def test_sector_dims_match_fermat_characters(name):
    poly, group, flavor = _fermat_golden_sides()[name]
    assert all(sum(1 for e in m if e) == 1 for m in poly.terms)
    space = build_state_space(poly, group, flavor)
    count, dims = fermat_locus_dims(poly, group)
    L = group.L
    got = [(as_vector(g, L), d) for g, d in space.sector_dims.items()]
    assert got == [(v, dims[vector_locus(v)]) for v in group.vectors]
    assert space.dim == sum(c * dims[locus] for locus, c in count.items())


@st.composite
def invertible_models(draw):
    """(W, G): W a sum of Fermat, chain and loop blocks of a CY weight
    system, G generated by J and up to two random elements of SL."""
    d, weights = draw(st.sampled_from(CY_WEIGHTS))
    n = len(weights)
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
    blocks = [sorted(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    terms = {}
    for block in blocks:
        options = list(_block_polynomials(weights, tuple(block), d))
        assume(options)
        _, block_terms = draw(st.sampled_from(options))
        for term in block_terms:
            mono = [0] * n
            for var, e in term.items():
                mono[var] = e
            assume(tuple(mono) not in terms)
            terms[tuple(mono)] = Fraction(1)
    poly = Polynomial(tuple(f"x{i}" for i in range(n)), terms)
    assume(is_invertible(poly))
    ws = weight_system(poly)
    sl = sl_subgroup(gmax(poly))
    extra = draw(st.lists(st.sampled_from(sl.vectors), max_size=2))
    return poly, ws, span(n, [j_element(ws)] + [GroupElement._raw(v, sl.L) for v in extra])


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
@given(invertible_models())
def test_random_invertible_models_match_oracles(model):
    poly, ws, group = model
    assert_same_gmax(poly)
    assert group.is_subgroup_of(sl_subgroup(gmax(poly)))
    dual = assert_same_dual(group, poly)
    back = assert_same_dual(dual, transpose(poly))
    assert same_members(back, group)
    assert_same_bases(poly, group, ws)
    assert_same_bases(transpose(poly), dual, weight_system(transpose(poly)))
    assert_same_as_eager_sweep(poly, group)
    assert_same_as_eager_sweep(transpose(poly), dual)


class AlgebraElement:
    """Finitely supported rational combination of one space's basis elements."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs=None):
        self.space = space
        self.coeffs = {}
        for e, c in (coeffs or {}).items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c:
                self.coeffs[e] = c

    @classmethod
    def basis(cls, space, e, coeff=1):
        return cls(space, {e: coeff})

    def __add__(self, other):
        if self.space is not other.space:
            raise MixedSpaces("cannot add elements of different state spaces")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return AlgebraElement(self.space, out)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.space is other.space
            and self.coeffs == other.coeffs
        )


class ElementwiseAlgebra:
    """The Krawitz product and residue pairing of one B-model space (an
    `EagerSpace`), one pair of states at a time, with gamma solved per pair
    of sectors and every normal form reduced afresh (no memo).  Sectors are
    int vectors over the space's `L`."""

    def __init__(self, space):
        self.space = space
        self.L = space.L
        self.poly = space.poly
        self.nvars = space.poly.nvars
        self.even = even_basis(space)
        self.index = {e: i for i, e in enumerate(self.even)}
        self._gamma = {}
        self._products = {}

    def ring(self, subset):
        subset = tuple(sorted(subset))
        if subset not in self.space.rings:
            self.space.rings[subset] = milnor_ring(
                self.poly, active=subset, ws=self.space.ws, rings=self.space.rings
            )
        return self.space.rings[subset]

    @staticmethod
    def normal_form(ring, mono):
        return _reduce_terms({mono: Fraction(1)}, ring.basis_entries, ring.order)

    def _gamma_data(self, g, h):
        """(scalar, extra socle), or (0, None) when the index condition
        fails; see `BAlgebra._gamma_data`."""
        key = (g, h)
        if key not in self._gamma:
            ig, ih, igh = (set(vector_locus(x)) for x in (g, h, add(g, h, self.L)))
            if ig | ih | igh != set(range(self.nvars)):
                self._gamma[key] = (Fraction(0), None)
            else:
                meet = ig & ih
                extra = tuple(sorted(igh - meet))
                assert restrict(self.poly, igh) == restrict(self.poly, meet) + restrict(self.poly, extra)
                ring = self.ring(extra)
                self._gamma[key] = (ring.hessian_socle_coefficient() / ring.mu, ring.socle)
        return self._gamma[key]

    def gamma(self, g, h):
        return self._gamma_data(g, h)[0]

    def unit(self):
        e = ((0,) * self.nvars, (0,) * self.nvars)
        if e not in self.space.basis_set:
            raise NotBasisElement("identity-sector unit missing from the basis")
        return AlgebraElement.basis(self.space, e)

    def _product_index(self, i, j):
        """{k: c} with e_i e_j = sum_k c e_k over the even basis."""
        key = (i, j)
        if key in self._products:
            return self._products[key]
        (g, m1), (h, m2) = self.even[i], self.even[j]
        coeff, extra_socle = self._gamma_data(g, h)
        out = {}
        if coeff:
            gh = add(g, h, self.L)
            mono = tuple(map(sum, zip(m1, m2, extra_socle)))
            if all(e == 0 or gh[k] == 0 for k, e in enumerate(mono)):
                for b_mono, c in self.normal_form(self.ring(vector_locus(gh)), mono).items():
                    target = (gh, b_mono)
                    if target not in self.index:
                        name = state_name(gh, self.L, b_mono, "B")
                        raise NotBasisElement(f"product lands outside the even basis: {name}")
                    out[self.index[target]] = coeff * c
        self._products[key] = out
        return out

    def _even_index(self, e):
        if e not in self.space.basis_set:
            raise NotBasisElement(f"{state_name(e[0], self.L, e[1], 'B')} is not a basis element")
        if z2_grading(e, self.nvars, "B"):
            raise OddElement("products are defined on the even subspace")
        return self.index[e]

    def product(self, a, b):
        if a.space is not self.space or b.space is not self.space:
            raise MixedSpaces("operands belong to a different state space")
        out = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                row = self._product_index(self._even_index(e1), self._even_index(e2))
                for k, c in row.items():
                    out[self.even[k]] = out.get(self.even[k], 0) + c1 * c2 * c
        return AlgebraElement(self.space, out)

    def pairing_basis(self, e1, e2):
        (g, m1), (h, m2) = e1, e2
        if h != neg(g, self.L):
            return Fraction(0)
        ring = self.ring(vector_locus(g))
        mono = tuple(map(sum, zip(m1, m2)))
        return ring.residue(self.normal_form(ring, mono).get(ring.socle, Fraction(0)))

    def pairing(self, a, b):
        if a.space is not self.space or b.space is not self.space:
            raise MixedSpaces("operands belong to a different state space")
        total = Fraction(0)
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                total += c1 * c2 * self.pairing_basis(e1, e2)
        return total

    def structure_constants(self):
        """C[i] = {j: (k, c)} over every basis pair, nonzero products only;
        unpacking the one term of each product fails on a second."""
        idx = range(len(self.even))
        C = [{} for _ in idx]
        for i in idx:
            for j in idx:
                row = self._product_index(i, j)
                if row:
                    ((k, c),) = row.items()
                    C[i][j] = (k, c)
        return C

    def pairing_table(self):
        """P[i] = {j: <e_i, e_j>} over every basis pair, nonzero only."""
        return [
            {j: p for j, f in enumerate(self.even) if (p := self.pairing_basis(e, f))}
            for e in self.even
        ]


def elementwise_gamma_lemma(algebra, sigma, sectors):
    """`gamma_lemma_cases` over every pair of sectors, int vectors over the
    algebra's L, evaluated."""
    L = algebra.L
    s = as_vector(sigma, L)
    slots = [k for k, a in enumerate(s) if a]
    failures = []
    checked = 0
    for g in sectors:
        g_half = all(2 * g[k] == L for k in slots)
        for h in sectors:
            h_half = all(2 * h[k] == L for k in slots)
            h_zero = all(h[k] == 0 for k in slots)
            lhs = algebra.gamma(g, h)
            rhs = algebra.gamma(g, add(s, h, L))
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
                        "g": str(GroupElement._raw(g, L)),
                        "h": str(GroupElement._raw(h, L)),
                        "gamma": str(lhs),
                        "gamma_sigma": str(rhs),
                        "expected_factor": str(factor),
                    }
                )
    return checked, failures


def elementwise_theorem2(model, rescaled=True):
    """Theorem 2 checked one basis pair and one basis triple at a time, the
    states of both mirrors over the exponent L of sigma (G^T), which the
    exponent of (sigma G)^T divides."""
    prop = check_property1(model.poly, model.sigma_group, ws=model.ws)
    if not prop.passed:
        raise HypothesisFailed(prop.mismatches)
    mirror = model.mirror()
    bhk_group = transpose_group(model.sigma_group, model.poly)
    shared_rings: dict = {}
    L = mirror.sigma_group.L
    b2_space = EagerSpace(build_state_space(mirror.poly, bhk_group, "B", rings=shared_rings), L)
    b0_space = EagerSpace(build_state_space(mirror.poly, mirror.sigma_group, "B", rings=shared_rings), L)

    def name(e):
        return state_name(e[0], L, e[1], "B")

    even2 = even_basis(b2_space)
    even0 = even_basis(b0_space)
    mismatches = []
    details = {
        "dim_b2_even": len(even2),
        "dim_b0_even": len(even0),
        "b2_total": b2_space.dim,
        "b0_total": b0_space.dim,
    }
    if len(even2) != len(even0):
        mismatches.append({"reason": "even subspace dimensions differ"})

    mapping = {}
    images = set()
    for e in even2:
        k, image = phi_map(e, b2_space, b0_space, mirror.sigma, rescaled=rescaled)
        mapping[e] = (k, image)
        if image in images:
            mismatches.append({"reason": "phi image duplicated", "element": name(e)})
        images.add(image)
        if z2_grading(image, b0_space.poly.nvars, "B"):
            mismatches.append({"reason": "phi image is odd", "element": name(e)})
        if b2_space.bidegree(e) != b0_space.bidegree(image):
            mismatches.append({"reason": "phi changed the bidegree", "element": name(e)})
    if images != set(even0):
        mismatches.append({"reason": "phi is not onto the even BV basis"})

    alg2 = ElementwiseAlgebra(b2_space)
    alg0 = ElementwiseAlgebra(b0_space)
    def phi(elt):
        out = AlgebraElement(b0_space)
        for e, c in elt.coeffs.items():
            k, image = mapping[e]
            out = out + AlgebraElement.basis(b0_space, image, k * c)
        return out

    product_fail = pairing_fail = 0
    for e1 in even2:
        a1 = AlgebraElement.basis(b2_space, e1)
        for e2 in even2:
            a2 = AlgebraElement.basis(b2_space, e2)
            lhs = phi(alg2.product(a1, a2))
            k1, im1 = mapping[e1]
            k2, im2 = mapping[e2]
            rhs = alg0.product(
                AlgebraElement.basis(b0_space, im1, k1),
                AlgebraElement.basis(b0_space, im2, k2),
            )
            if lhs != rhs:
                product_fail += 1
                if len(mismatches) < 20:
                    mismatches.append(
                        {"reason": "product not preserved", "pair": [name(e1), name(e2)]}
                    )
            lp = alg2.pairing(a1, a2)
            rp = alg0.pairing(
                AlgebraElement.basis(b0_space, im1, k1),
                AlgebraElement.basis(b0_space, im2, k2),
            )
            if lp != rp:
                pairing_fail += 1
                if len(mismatches) < 20:
                    mismatches.append(
                        {"reason": "pairing not preserved", "pair": [name(e1), name(e2)]}
                    )
    details["product_failures"] = product_fail
    details["pairing_failures"] = pairing_fail

    unit = alg0.unit()
    for e in even0:
        a = AlgebraElement.basis(b0_space, e)
        if alg0.product(unit, a) != a or alg0.product(a, unit) != a:
            mismatches.append({"reason": "unit fails", "element": name(e)})

    assoc_fail = frob_fail = 0
    cache = {
        (e1, e2): alg0.product(
            AlgebraElement.basis(b0_space, e1), AlgebraElement.basis(b0_space, e2)
        )
        for e1 in even0
        for e2 in even0
    }
    for e1 in even0:
        a = AlgebraElement.basis(b0_space, e1)
        for e2 in even0:
            ab = cache[(e1, e2)]
            for e3 in even0:
                c = AlgebraElement.basis(b0_space, e3)
                bc = cache[(e2, e3)]
                if alg0.product(ab, c) != alg0.product(a, bc):
                    assoc_fail += 1
                if alg0.pairing(ab, c) != alg0.pairing(a, bc):
                    frob_fail += 1
    details["associativity_failures"] = assoc_fail
    details["frobenius_failures"] = frob_fail
    if assoc_fail:
        mismatches.append({"reason": f"{assoc_fail} associativity failures"})
    if frob_fail:
        mismatches.append({"reason": f"{frob_fail} Frobenius-identity failures"})

    sectors = sorted({v for v, _ in even0})
    checked, gamma_failures = elementwise_gamma_lemma(alg0, mirror.sigma, sectors)
    details["gamma_pairs_checked"] = checked
    if gamma_failures:
        mismatches.append({"reason": "gamma lemma failures", "cases": gamma_failures[:10]})

    return Report("theorem2", not mismatches, details, mismatches)


THEOREM2_MODELS = {
    "e1mini": lambda: build_bv(E1, MINI, block_j_elements(weight_system(E1), weight_system(MINI))),
    "e1k3a": lambda: _models()["e1k3a"],
    "nonproduct": lambda: _models()["nonproduct"],
}


@pytest.mark.parametrize("rescaled", [True, False])
@pytest.mark.parametrize("name", sorted(THEOREM2_MODELS))
def test_theorem2_matches_elementwise_oracle(name, rescaled):
    model = THEOREM2_MODELS[name]()
    report = verify_theorem2(model, rescaled=rescaled).to_json()
    assert report == elementwise_theorem2(model, rescaled=rescaled).to_json()


@pytest.mark.parametrize("name", sorted(THEOREM2_MODELS))
def test_tables_match_basis_pair_oracle(name):
    """C and P of both mirror B-models, built sector pair by sector pair,
    equal the basis-pair tables entry for entry.  The tables do not depend
    on the rescaling, which acts only on phi-bar."""
    model = THEOREM2_MODELS[name]()
    mirror = model.mirror()
    bhk_group = transpose_group(model.sigma_group, model.poly)
    for group in (bhk_group, mirror.sigma_group):
        space = build_state_space(mirror.poly, group, "B")
        alg, oracle = BAlgebra(space), ElementwiseAlgebra(EagerSpace(space))
        assert alg.at == {e: i for i, e in enumerate(oracle.even)}
        assert alg.dim == len(oracle.even)
        C = alg.structure_constants()
        assert any(C)
        assert C == oracle.structure_constants()
        assert alg.pairing_table() == oracle.pairing_table()


CHAIN_K3 = parse_polynomial("y0^2+y1^3*y2+y2^10+y3^10")
PHI_MODELS = {
    "e1k3a": THEOREM2_MODELS["e1k3a"],
    "nonproduct": THEOREM2_MODELS["nonproduct"],
    "e1chain": lambda: build_bv(E1, CHAIN_K3, block_j_elements(weight_system(E1), weight_system(CHAIN_K3))),
}


def _mirror_algebras(model):
    """The spaces and algebras of B(W^T, (sigma G)^T) and B(W^T, sigma(G^T))."""
    mirror = model.mirror()
    shared = {}
    bhk = build_state_space(mirror.poly, transpose_group(model.sigma_group, model.poly), "B", rings=shared)
    bv = build_state_space(mirror.poly, mirror.sigma_group, "B", rings=shared)
    return bhk, bv, BAlgebra(bhk), BAlgebra(bv)


@pytest.mark.parametrize("rescaled", [True, False])
@pytest.mark.parametrize("name", sorted(PHI_MODELS))
def test_phi_bar_matches_phi_map(name, rescaled):
    """phi-bar on int vectors sends each even element of the BHK mirror to
    the image of `phi_map`, with twice its scale."""
    model = PHI_MODELS[name]()
    bhk, bv, alg2, alg0 = _mirror_algebras(model)
    L = alg0.L
    bhk, bv = EagerSpace(bhk, L), EagerSpace(bv)
    phi = phi_bar(alg2, alg0, model.mirror().sigma, rescaled)
    even2 = even_basis(bhk)
    assert len(phi) == len(even2) == alg2.dim
    scales = set()
    for e in even2:
        k, image = phi_map(e, bhk, bv, model.mirror().sigma, rescaled=rescaled)
        assert phi[alg2.at[element_key(alg2, e, L)]] == (2 * k, alg0.at[image])
        scales.add(k)
    assert len(scales) > 1 if rescaled else scales == {1}


def test_chain_tables_keep_fractions():
    """The chain model passes Theorem 2 with exact coefficients: its tables
    hold non-integral Fractions, and ints everywhere else."""
    model = PHI_MODELS["e1chain"]()
    assert verify_theorem2(model).passed
    _, _, alg2, alg0 = _mirror_algebras(model)
    products = pairings = 0
    for alg in (alg2, alg0):
        C = [c for row in alg.structure_constants() for _, c in row.values()]
        P = [c for row in alg.pairing_table() for c in row.values()]
        assert all(type(c) is int or c.denominator > 1 for c in C + P)
        products += sum(type(c) is Fraction for c in C)
        pairings += sum(type(c) is Fraction for c in P)
    assert (products, pairings) == (34, 52)


def test_census_tables_have_single_terms():
    """Both B-algebras of every third census model: every product has one
    term (`structure_constants` raises MultiTermProduct on a second), a
    target inside the even basis and a nonzero exact coefficient.  Off
    property 1, W on some Fix gh has cross terms and gamma is undefined."""
    built = undefined = 0
    for model in _census_models():
        _, _, alg2, alg0 = _mirror_algebras(model)
        for alg in (alg2, alg0):
            try:
                C = alg.structure_constants()
            except NonProportional:
                assert not check_property1(model.poly, model.sigma_group, ws=model.ws).passed
                undefined += 1
                continue
            built += 1
            assert any(C)
            for row in C:
                for k, c in row.values():
                    assert 0 <= k < alg.dim and c
    assert (built, undefined) == (56, 4)


def test_property1_matches_the_element_walk():
    """On E1 and E2 times each of the 44 invertible K3 samples, with
    G = J1 x J2, `property1` gives the report of the walk over every
    element, violations in order; 38 of the 88 models fail it."""
    failed = 0
    for record in filter_bv_invertible(enumerate_k3_systems()):
        k3 = sample_polynomial(record.weight_system)
        for curve in (E1, E2):
            model = build_bv(curve, k3, block_j_elements(weight_system(curve), weight_system(k3)))
            a_space = model.space("A")
            dual = transpose_group(model.sigma_group, model.poly)
            b_space = build_state_space(transpose(model.poly), dual, "B")
            report = property1(a_space, b_space).to_json()
            assert report == elementwise_property1(a_space, b_space).to_json()
            failed += not report["pass"]
    assert failed == 38


def _corrupt_one_gamma(monkeypatch):
    """Double gamma on one locus triple, (everything, Fix h, Fix h) for h
    the first nonidentity even sector of the E1 x K3A BV mirror, in
    `BAlgebra` and in the oracle alike; returns the model."""
    model = _models()["e1k3a"]
    mirror = model.mirror()
    space = EagerSpace(build_state_space(mirror.poly, mirror.sigma_group, "B"))
    h = next(v for v, _ in even_basis(space) if any(v))
    triple = (tuple(range(space.poly.nvars)), vector_locus(h), vector_locus(h))
    original, oracle = BAlgebra._gamma_data, ElementwiseAlgebra._gamma_data

    def corrupted(self, fg, fh, fgh):
        scalar, socle = original(self, fg, fh, fgh)
        return (2 * scalar if (fg, fh, fgh) == triple else scalar), socle

    def corrupted_oracle(self, g2, h2):
        scalar, socle = oracle(self, g2, h2)
        loci = (vector_locus(g2), vector_locus(h2), vector_locus(add(g2, h2, self.L)))
        return (2 * scalar if loci == triple else scalar), socle

    monkeypatch.setattr(BAlgebra, "_gamma_data", corrupted)
    monkeypatch.setattr(ElementwiseAlgebra, "_gamma_data", corrupted_oracle)
    return model


def test_theorem2_corrupted_gamma_fails_like_the_oracle(monkeypatch):
    model = _corrupt_one_gamma(monkeypatch)
    report = verify_theorem2(model).to_json()
    assert report["associativity_failures"] > 0
    assert report["frobenius_failures"] > 0
    assert not report["pass"]
    assert report == elementwise_theorem2(model).to_json()


def elementwise_twist_iso(model, flavor, tw_group_override=None):
    """`verify_twist_iso` one state at a time: each mapped by `tw_a_map`,
    looked up in the twist basis and graded by Fraction bidegrees.  The
    states of both spaces are over one common multiple L of their groups'
    exponents."""
    tw = model.twist()
    group = tw_group_override if tw_group_override is not None else tw.group
    L = math.lcm(model.sigma_group.L, group.L)
    source = EagerSpace(build_state_space(model.poly, model.sigma_group, flavor), L)
    target = EagerSpace(build_state_space(tw.poly, group, flavor), L)
    mismatches = []
    images = set()
    for e in source.basis:
        _, image = tw_a_map(e, model, tw, L)
        name = state_name(e[0], L, e[1], flavor)
        if image not in target.basis_set:
            mismatches.append({"element": name, "reason": "image not in twist basis"})
            continue
        if image in images:
            mismatches.append({"element": name, "reason": "image duplicated"})
            continue
        images.add(image)
        if source.bidegree(e) != target.bidegree(image):
            mismatches.append(
                {
                    "element": name,
                    "reason": "bidegree changed",
                    "source": [frac_str(x) for x in source.bidegree(e)],
                    "target": [frac_str(x) for x in target.bidegree(image)],
                }
            )
    unmatched = len(target.basis_set) - len(images)
    if unmatched:
        mismatches.append({"reason": f"{unmatched} twist basis elements unmatched"})
    details = {"flavor": flavor, "source_dim": source.dim, "target_dim": target.dim, "delta": tw.delta}
    return Report(f"twist-iso-{flavor}", not mismatches, details, mismatches)


@pytest.mark.parametrize("flavor", ["A", "B"])
@pytest.mark.parametrize("name", ["e1k3a", "nonproduct"])
def test_twist_iso_matches_elementwise_map(name, flavor):
    """The same reports, and under a twist group cut down (to its J
    subgroup for A, to the identity for B) the same mismatches, in order."""
    model = THEOREM2_MODELS[name]()
    assert verify_twist_iso(model, flavor).to_json() == elementwise_twist_iso(model, flavor).to_json()
    tw = model.twist()
    smaller = span(tw.group.n, [j_element(tw.ws)] if flavor == "A" else [])
    bad = verify_twist_iso(model, flavor, tw_group_override=smaller).to_json()
    assert not bad["pass"]
    assert bad == elementwise_twist_iso(model, flavor, tw_group_override=smaller).to_json()


def dense_triple_counts(C, P, n):
    """The failure counts of associativity_and_frobenius from dense arrays,
    one triple at a time."""
    T = [[[0] * n for j in range(n)] for i in range(n)]
    for i, row in enumerate(C):
        for j, (k, c) in row.items():
            T[i][j][k] = c
    Q = [[P[i].get(j, 0) for j in range(n)] for i in range(n)]
    assoc = frob = 0
    for i, j, k in product(range(n), repeat=3):
        left = [sum(T[i][j][l] * T[l][k][m] for l in range(n)) for m in range(n)]
        right = [sum(T[j][k][l] * T[i][l][m] for l in range(n)) for m in range(n)]
        assoc += left != right
        frob += sum(T[i][j][l] * Q[l][k] for l in range(n)) != sum(
            T[j][k][l] * Q[i][l] for l in range(n)
        )
    return assoc, frob


@st.composite
def sparse_tables(draw):
    """Random sparse single-term tables C, P on n <= 4 indices, with ints
    and Fractions as `BAlgebra` holds them."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    coeff = st.integers(-2, 2).filter(bool) | st.integers(-2, 2).filter(bool).map(lambda a: Fraction(a, 3))
    C = [draw(st.dictionaries(index, st.tuples(index, coeff), max_size=n)) for _ in range(n)]
    P = [draw(st.dictionaries(index, coeff, max_size=n)) for _ in range(n)]
    return C, P, n


@settings(deadline=None, max_examples=200)
@given(sparse_tables())
def test_sparse_contraction_matches_dense_triples(tables):
    C, P, n = tables
    assert associativity_and_frobenius(C, P) == dense_triple_counts(C, P, n)


def one_shot_ring(poly, active, ws):
    """The ring of the locus from one Buchberger run, its basis walked."""
    active = tuple(sorted(active))
    restricted = restrict(poly, active)
    order = TermOrder(ws.weights)
    entries = groebner(jacobian_ideal(restricted, active), order)
    return MilnorRing(restricted, active, ws.weights, order, entries)


def walk_and_filter(poly, group, fixed, ws):
    """Invariant standard monomials of a locus: every monomial of the
    one-shot basis, tested on every generator."""
    L, gen_vecs = int_vectors(group.gens)
    return [
        m
        for m in one_shot_ring(poly, fixed, ws).basis
        if all(sum((m[j] + 1) * hv[j] for j in fixed) % L == 0 for hv in gen_vecs)
    ]


def assert_same_sectors(poly, group, ws):
    """Every locus of G: the character join keeps the monomials the walk
    keeps, in the same order.  Returns the number of loci."""
    rings: dict = {}
    invariant = Invariants(group)
    loci = {vector_locus(v): v for v in group.vectors}
    for fixed, v in sorted(loci.items()):
        got = build_sector(poly, group, v, ws, rings, invariant)
        assert [m for _, m in got] == walk_and_filter(poly, group, fixed, ws)
    return len(loci)


@st.composite
def block_sums(draw):
    """A sum of two or three chain and loop blocks (a block of one variable
    is Fermat) on at most five variables, at least one block of several
    variables, the variables shuffled so blocks interleave."""
    blocks = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["chain", "loop"]),
                st.lists(st.integers(2, 4), min_size=1, max_size=3),
            ),
            min_size=2,
            max_size=3,
        )
    )
    assume(sum(len(exps) for _, exps in blocks) <= 5)
    assume(any(len(exps) > 1 for _, exps in blocks))
    n = sum(len(exps) for _, exps in blocks)
    perm = draw(st.permutations(range(n)))
    terms = {}
    offset = 0
    for kind, exps in blocks:
        k = len(exps)
        for i, e in enumerate(exps):
            mono = [0] * n
            mono[perm[offset + i]] = e
            if kind == "loop" and k > 1:
                mono[perm[offset + (i + 1) % k]] = 1
            elif i + 1 < k:
                mono[perm[offset + i + 1]] = 1
            terms[tuple(mono)] = Fraction(1)
        offset += k
    poly = Polynomial(tuple(f"x{i}" for i in range(n)), terms)
    ws = weight_system(poly)
    big = gmax(poly)
    extra = draw(st.lists(st.sampled_from(big.vectors), max_size=2))
    return poly, ws, span(n, [j_element(ws)] + [GroupElement._raw(v, big.L) for v in extra])


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
@given(block_sums(), st.randoms(use_true_random=False))
def test_assembled_rings_match_one_shot_rings(model, rng):
    """Every subset of the variables: the ring assembled from block rings is
    the one-shot ring, or both raise DegenerateSingularity."""
    poly, ws, _ = model
    n = poly.nvars
    rings: dict = {}
    for size in range(n + 1):
        for active in combinations(range(n), size):
            try:
                want = one_shot_ring(poly, active, ws)
            except DegenerateSingularity:
                with pytest.raises(DegenerateSingularity):
                    milnor_ring(poly, active, ws, rings)
                continue
            got = milnor_ring(poly, active, ws, rings)
            assert got.basis_entries == want.basis_entries
            assert (got.mu, got.socle) == (want.mu, want.socle)
            assert got.basis == want.basis
            assert got.hessian_socle_coefficient() == want.hessian_socle_coefficient()
            for _ in range(3):
                mono = tuple(rng.randrange(6) if i in active else 0 for i in range(n))
                p = Polynomial(poly.variables, {mono: Fraction(1)})
                assert got.normal_form(p) == want.normal_form(p)


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
@given(block_sums())
def test_character_join_matches_walk_and_filter(model):
    poly, ws, group = model
    assert_same_sectors(poly, group, ws)


def test_character_join_matches_walk_and_filter_on_octic_mirror():
    mirror = _golden_models()["e1octic"].mirror()
    assert assert_same_sectors(mirror.poly, mirror.sigma_group, mirror.ws) == 172


def ambient_classes(dim: int):
    """One (i, i) class for i = 0..dim; empty when dim < 0."""
    return [(i, i) for i in range(dim + 1)]


def primitive_hodge(poly, active=None, ws=None):
    """Primitive Hodge numbers of the degree-d hypersurface on the active
    coordinates: h^{D-q, q} = dim of the Milnor-ring graded piece whose
    monomial-plus-form weight is the integer q + 1 (Griffiths-Steenbrink)."""
    if ws is None:
        ws = weight_system(poly)
    if active is None:
        active = tuple(range(poly.nvars))
    active = tuple(sorted(active))
    table: dict = {}
    for p, q, _ in primitive_classes(poly, active, ws):
        table[(p, q)] = table.get((p, q), 0) + 1
    return table


def primitive_classes(poly, active, ws):
    """(p, q, monomial) for each primitive class of the restricted
    hypersurface, from a walk over the basis of the whole locus ring."""
    d = ws.degree
    dim = len(active) - 2
    if dim < 0:
        return []
    ring = milnor_ring(poly, active=active, ws=ws)
    form_weight = sum(ws.weights[k] for k in active)
    out = []
    for m in ring.basis:
        total = ring.wdeg(m) + form_weight
        if total % d:
            continue
        q = total // d - 1
        if not 0 <= q <= dim:
            raise ValueError(
                f"Griffiths-Steenbrink grade {q} outside 0..{dim} for {poly}"
            )
        out.append((dim - q, q, m))
    return out


def block_classes(poly, fixed, ws):
    """Cohomology classes of X_{W | fixed}: list of (p, q, monomial), the
    monomial None for an ambient class."""
    fixed = tuple(sorted(fixed))
    if not fixed:
        return []
    restricted = restrict(poly, fixed)
    if restricted.is_zero():
        return [(i, i, None) for i, _ in ambient_classes(len(fixed) - 1)]
    dim = len(fixed) - 2
    if dim < 0:
        return []
    classes = [(i, i, None) for i, _ in ambient_classes(dim)]
    classes.extend(primitive_classes(poly, fixed, ws))
    return classes


def hodge_diamond(poly, ws=None):
    """Hodge table of the single quasismooth hypersurface X_W (no quotient):
    ambient (i, i) ladder plus the Griffiths-Steenbrink primitive part."""
    if ws is None:
        ws = weight_system(poly)
    table: dict = {}
    for p, q, _ in block_classes(poly, tuple(range(poly.nvars)), ws):
        key = (Fraction(p), Fraction(q))
        table[key] = table.get(key, 0) + 1
    return table


def walked_classes(poly, ws, gen_vecs, L, fixed):
    """[(p, q, character)] of X_{W | fixed}: every class of the walk, its
    character under each generator computed from its monomial (0 for an
    ambient class)."""
    out = []
    for p, q, mono in block_classes(poly, fixed, ws):
        if mono is None:
            sig = (0,) * len(gen_vecs)
        else:
            sig = tuple(sum((mono[k] + 1) * h[k] for k in fixed) % L for h in gen_vecs)
        out.append((p, q, sig))
    return out


def walked_cr_table(model):
    """The Chen-Ruan table from class lists: the classes of each locus
    walked, in the model's variables, and every pair of classes with
    characters summing to 0 counted one by one.  The coset representatives
    are read as canonical elements, each over its own order.  Returns the
    table and the walked classes by locus."""
    n1 = model.n1
    j_group = span(model.poly.nvars, [model.j1, model.j2])
    vectors = bv_cosets(model.sigma_group, j_group, model.slots, model.sigma)
    L, gen_vecs = int_vectors(model.sigma_group.gens)
    cache: dict = {}

    def classes(fixed):
        if fixed not in cache:
            cache[fixed] = walked_classes(model.poly, model.ws, gen_vecs, L, fixed)
        return cache[fixed]

    table: dict = {}
    ws1, ws2 = model.ws1, model.ws2
    for rep in (GroupElement._raw(v, model.sigma_group.L) for v in vectors):
        g1, g2 = rep.num[:n1], rep.num[n1:]
        D1, thetas1 = chenruan.lambda_set(g1, rep.den, ws1)
        D2, thetas2 = chenruan.lambda_set(g2, rep.den, ws2)
        side2 = []
        for t2 in thetas2:
            s2 = chenruan.scaled_element(g2, rep.den, t2, D2, ws2)
            cls2 = classes(tuple(n1 + i for i in vector_locus(s2)))
            if cls2:
                buckets: dict = {}
                for p2, q2, sig2 in cls2:
                    buckets.setdefault(sig2, []).append((p2, q2))
                side2.append((t2, s2, buckets))
        for t1 in thetas1:
            s1 = chenruan.scaled_element(g1, rep.den, t1, D1, ws1)
            cls1 = classes(vector_locus(s1))
            if not cls1:
                continue
            for t2, s2, buckets in side2:
                shift = chenruan.age_shift(s1, s2, t1, D1, t2, D2, ws1.degree, ws2.degree)
                for p1, q1, sig1 in cls1:
                    want = tuple((-s) % L for s in sig1)
                    for p2, q2 in buckets.get(want, ()):
                        key = (p1 + p2 + shift, q1 + q2 + shift)
                        table[key] = table.get(key, 0) + 1
    return table, cache


def _census_models():
    """Every third of the invertible K3 samples of the catalog, as in the
    benchmark's census, times E1 and E2, with G = J1 x J2."""
    out = []
    for record in filter_bv_invertible(enumerate_k3_systems())[::3]:
        k3 = sample_polynomial(record.weight_system)
        for curve in (E1, E2):
            out.append(build_bv(curve, k3, block_j_elements(weight_system(curve), weight_system(k3))))
    return out


def _counted(walked):
    out: dict = {}
    for p, q, sig in walked:
        out.setdefault(sig, Counter())[(p, q)] += 1
    return out


def assert_same_cr_table(model):
    """The table of `cr_table` is that of the walk, and so are the counted
    classes of every locus the walk visits."""
    cr = chenruan.cr_table(model)
    table, walked = walked_cr_table(model)
    assert cr.table == table
    assert cr.total == sum(table.values())
    invariant = Invariants(model.sigma_group)
    for locus, classes in walked.items():
        assert chenruan.locus_classes(model, locus, invariant) == _counted(classes)


def assert_same_factor_classes(model):
    """Every subset of either factor's variables, taken in the model's
    variables: the classes counted from the block buckets are the walked
    classes, or both raise alike."""
    L, gen_vecs = int_vectors(model.sigma_group.gens)
    invariant = Invariants(model.sigma_group)
    for factor in (range(model.n1), range(model.n1, model.poly.nvars)):
        for size in range(len(factor) + 1):
            for locus in combinations(factor, size):
                try:
                    walked = walked_classes(model.poly, model.ws, gen_vecs, L, locus)
                except DegenerateSingularity as exc:
                    with pytest.raises(DegenerateSingularity, match=re.escape(str(exc))):
                        chenruan.locus_classes(model, locus, invariant)
                    continue
                assert chenruan.locus_classes(model, locus, invariant) == _counted(walked)


def test_cr_tables_match_the_walk_on_the_census():
    models = _census_models()
    assert len(models) == 30
    for model in models:
        for side in (model, model.mirror()):
            assert_same_cr_table(side)


def test_cr_classes_and_tables_match_the_walk_on_e1_octic():
    model = _golden_models()["e1octic"]
    for side in (model, model.mirror()):
        assert_same_factor_classes(side)
        assert_same_cr_table(side)


def test_cr_classes_match_the_walk_on_every_locus_of_a_chain():
    """A chain factor and an extended group: loci where the polynomial
    vanishes, and subsets where a variable lies in no monomial and both
    raise."""
    chain = parse_polynomial("y0^2+y1^4*y2+y2^7+y3^7")
    j1, j2 = block_j_elements(weight_system(E1), weight_system(chain))
    lift = [GroupElement._raw((0,) * 3 + g.num, g.den) for g in sl_subgroup(gmax(chain)).gens]
    model = build_bv(E1, chain, [j1, j2] + lift)
    assert_same_factor_classes(model)
    assert_same_cr_table(model)


def oracle_enumerate_k3_systems(max_weight: int):
    """Every sorted quadruple up to the bound, screened one variable at a
    time and then by the full criterion, with no samples."""
    found = []
    for w3 in range(1, max_weight + 1):
        for w2 in range(w3, max_weight + 1):
            for w1 in range(w2, max_weight + 1):
                for w0 in range(w1, max_weight + 1):
                    d = w0 + w1 + w2 + w3
                    if math.gcd(w0, w1, w2, w3) != 1:
                        continue
                    weights = (w0, w1, w2, w3)
                    if not all(
                        d % weights[i] == 0
                        or any((d - weights[e]) % weights[i] == 0 for e in range(4) if e != i)
                        for i in range(4)
                    ):
                        continue
                    if quasismooth_general(weights, d):
                        bv = any(2 * w == d for w in weights)
                        found.append(WeightSystemRecord(weights, d, True, bv, ""))
    found.sort(key=lambda r: (r.degree, r.weights))
    if len(found) < 95:
        raise BoundTooSmall(
            f"found {len(found)} systems with max weight {max_weight}; raise the bound"
        )
    return found


def _enumerated(enumerator, max_weight):
    try:
        return [r.fields() for r in enumerator(max_weight)]
    except BoundTooSmall as exc:
        return str(exc)


@pytest.mark.parametrize(
    "max_weight, found", [(10, 55), (20, 87), (30, 94), (32, 94), (33, 95), (40, 95), (45, 95)]
)
def test_enumeration_matches_the_scan(max_weight, found):
    """(33,22,6,5;66) has the largest weight of the 95, so 32 misses it."""
    got = _enumerated(enumerate_k3_systems, max_weight)
    assert got == _enumerated(oracle_enumerate_k3_systems, max_weight)
    if found == 95:
        assert len(got) == 95
    else:
        assert got == f"found {found} systems with max weight {max_weight}; raise the bound"


def oracle_weight_system(poly: Polynomial) -> WeightSystem:
    """Gauss-Jordan elimination on Fraction rows, pivot rows normalized."""
    if poly.is_zero():
        raise NotQuasihomogeneous("zero polynomial")
    n = poly.nvars
    rows = [[Fraction(e) for e in m] + [Fraction(1)] for m in poly.monomials()]
    pivot_cols = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][n] != 0:
            raise NotQuasihomogeneous(f"no weight solution for {poly}")
    if len(pivot_cols) < n:
        raise NonUniqueWeights(f"rank {len(pivot_cols)} < {n} variables")
    q = [Fraction(0)] * n
    for i, col in enumerate(pivot_cols):
        q[col] = rows[i][n]
    if any(x <= 0 for x in q):
        raise NonPositiveWeight(f"non-positive weight quotient in {q}")
    if any(x >= 1 for x in q):
        raise NonPositiveWeight(f"weight quotient >= 1 in {q}")
    d = math.lcm(*(x.denominator for x in q))
    weights = [int(x * d) for x in q]
    g = math.gcd(*weights)
    if g > 1:
        if d % g:
            raise NotQuasihomogeneous(f"weights {weights} do not scale to gcd 1")
        weights = [w // g for w in weights]
        d //= g
    return WeightSystem(tuple(weights), d)


@st.composite
def exponent_matrices(draw):
    """Monomials over 1-4 variables: any small exponents (mostly rank
    deficient, inconsistent or non-positive), or near-diagonal square
    matrices, which are mostly quasihomogeneous with positive weights."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=6))
    else:
        rows = [
            tuple(
                draw(st.integers(2, 9)) if j == i else draw(st.sampled_from([0, 0, 0, 1, 2]))
                for j in range(n)
            )
            for i in range(n)
        ]
    return Polynomial([f"x{i}" for i in range(n)], {row: 1 for row in rows})


def _solved(solve, poly):
    try:
        return solve(poly)
    except PolyError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(exponent_matrices())
def test_weight_system_matches_fraction_elimination(poly):
    assert _solved(weight_system, poly) == _solved(oracle_weight_system, poly)


def test_weight_system_builds_only_the_quotients(monkeypatch):
    poly = direct_sum(E1, OCTIC)
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    ws = weight_system(poly)
    monkeypatch.undo()
    assert len(built) <= poly.nvars
    assert ws == oracle_weight_system(poly) == WeightSystem((12, 8, 4, 12, 3, 3, 3, 3), 24)
