"""Weight-system catalog: K3 hypersurface systems, the half-degree filter,
sample potentials of the shape z0^2 + f, and CSV output.

Quasismoothness of the general degree-d hypersurface in P(w0..w3) is decided
by the standard combinatorial criterion over nonempty variable subsets I:
either some monomial in the I-variables has degree d, or there are |I|
monomials x^M * x_e (M supported on I) with |I| distinct outside variables e.
For I = {i} it asks for x_i^a or x_i^a * x_e of degree d, so the largest
weight w0 divides s or s - w_e, where s is the sum of the other three.  The
enumeration solves for w0 from these (s/1, s/2, s/3, (s - w_e)/1 and
(s - w_e)/2) instead of scanning it, before the full subset sweep.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

from .milnor import DegenerateSingularity, milnor_ring
from .polyring import (
    Frozen,
    Polynomial,
    WeightSystem,
    is_invertible,
    parse_polynomial,
    weight_system,
)
from .report import PreconditionError


class CatalogError(PreconditionError):
    pass


class BoundTooSmall(CatalogError):
    pass


class NoInvertibleRepresentative(CatalogError):
    pass


class WeightSystemRecord(Frozen):
    """Weights in descending order; sample_poly is the text of an invertible
    sample polynomial, empty when there is none."""

    __slots__ = ("weights", "degree", "quasismooth", "bv_admissible", "sample_poly")

    @property
    def weight_system(self) -> WeightSystem:
        return WeightSystem(self.weights, self.degree)


def representable(target: int, weights) -> bool:
    """Is target a non-negative integer combination of the weights?"""
    if target < 0:
        return False
    if target == 0:
        return True
    head, *rest = weights
    if not rest:
        return target % head == 0
    return any(representable(target - head * k, rest) for k in range(target // head + 1))


def quasismooth_general(weights, degree: int) -> bool:
    """Iano-Fletcher-style criterion for the general hypersurface."""
    n = len(weights)
    idx = range(n)
    for size in range(1, n + 1):
        for subset in combinations(idx, size):
            wsub = [weights[i] for i in subset]
            if representable(degree, wsub):
                continue
            outside = [
                e
                for e in idx
                if e not in subset and representable(degree - weights[e], wsub)
            ]
            if len(outside) < size:
                return False
    return True


def enumerate_k3_systems(max_weight: int = 40, with_samples: bool = False):
    """All CY quadruples (w0 >= ... >= w3; d = sum w) passing the
    quasismoothness criterion, deduplicated up to permutation.

    The largest weight w0 is solved for, not scanned.  With s = w1 + w2 + w3,
    the screen below needs w0 to divide d = w0 + s or some d - w_e, that is
    s or s - w_e; as 0 < s <= 3 w0 and 0 < s - w_e <= 2 w0, w0 is one of
    s/k (k = 1, 2, 3) or (s - w_e)/k (k = 1, 2), at most 9 candidates per
    triple, of which the integers in [w1, max_weight] are screened.

    Raises BoundTooSmall when fewer than 95 systems are found."""
    found = []
    for w3 in range(1, max_weight + 1):
        for w2 in range(w3, max_weight + 1):
            for w1 in range(w2, max_weight + 1):
                s = w1 + w2 + w3
                candidates = {s // k for k in (1, 2, 3) if s % k == 0}
                candidates.update(
                    (s - w) // k for w in (w1, w2, w3) for k in (1, 2) if (s - w) % k == 0
                )
                for w0 in candidates:
                    if not w1 <= w0 <= max_weight:
                        continue
                    d = w0 + s
                    if math.gcd(w0, w1, w2, w3) != 1:
                        continue
                    weights = (w0, w1, w2, w3)
                    # cheap single-variable screen before the full subset sweep
                    ok = True
                    for i in range(4):
                        if d % weights[i] == 0:
                            continue
                        if not any(
                            (d - weights[e]) % weights[i] == 0
                            for e in range(4)
                            if e != i
                        ):
                            ok = False
                            break
                    if not ok or not quasismooth_general(weights, d):
                        continue
                    bv = any(2 * w == d for w in weights)
                    sample = ""
                    if with_samples and bv:
                        try:
                            sample = str(sample_polynomial(WeightSystem(weights, d)))
                        except NoInvertibleRepresentative:
                            sample = ""
                    found.append(
                        WeightSystemRecord(weights, d, True, bv, sample)
                    )
    found.sort(key=lambda r: (r.degree, r.weights))
    if len(found) < 95:
        raise BoundTooSmall(
            f"found {len(found)} systems with max weight {max_weight}; raise the bound"
        )
    return found


def filter_bv(records):
    """Keep the systems with 2 w_i = d for some i (the necessary condition
    for the z0^2 + f shape; 48 of the 95 satisfy it)."""
    return [r for r in records if r.bv_admissible]


def filter_bv_invertible(records):
    """Keep the systems that admit an invertible polynomial z0^2 + f; this is
    the count of 44 usable in the mirror constructions.  Samples are searched
    on demand when the records do not carry them."""
    out = []
    for r in filter_bv(records):
        if r.sample_poly:
            out.append(r)
            continue
        try:
            sample_polynomial(r.weight_system)
        except NoInvertibleRepresentative:
            continue
        out.append(r)
    return out


def _block_polynomials(weights, var_indices, degree):
    """Candidate invertible blocks on the given variables, smallest first.

    Yields {variable index: exponent dict}-style term lists: each term is a
    dict {var: exponent}."""
    k = len(var_indices)
    if k == 1:
        i = var_indices[0]
        if degree % weights[i] == 0 and degree // weights[i] >= 2:
            yield ("fermat", [{i: degree // weights[i]}])
        return
    for order in permutations(var_indices):
        # chain x_{o1}^{a1} x_{o2} + ... + x_{ok}^{ak}
        terms = []
        good = True
        for pos, var in enumerate(order):
            w = weights[var]
            if pos + 1 < k:
                nxt = order[pos + 1]
                top = degree - weights[nxt]
                if top <= 0 or top % w:
                    good = False
                    break
                terms.append({var: top // w, nxt: 1})
            else:
                if degree % w or degree // w < 2:
                    good = False
                    break
                terms.append({var: degree // w})
        if good:
            yield ("chain", terms)
    seen_loops = set()
    for order in permutations(var_indices):
        if order[0] != min(order):
            continue  # loops are rotation-invariant; pin the smallest first
        key = order
        if key in seen_loops:
            continue
        seen_loops.add(key)
        terms = []
        good = True
        for pos, var in enumerate(order):
            w = weights[var]
            nxt = order[(pos + 1) % k]
            top = degree - weights[nxt]
            if top <= 0 or top % w:
                good = False
                break
            terms.append({var: top // w, nxt: 1})
        if good:
            yield ("loop", terms)


def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for split in _partitions(rest):
        yield [[head]] + split
        for i in range(len(split)):
            yield split[:i] + [[head] + split[i]] + split[i + 1 :]


def sample_polynomial(ws: WeightSystem) -> Polynomial:
    """Deterministic invertible polynomial z0^2 + f for a half-degree system.

    Searches Fermat/chain/loop block combinations over the non-distinguished
    variables (lexicographically first decomposition wins) and verifies
    nondegeneracy through the Milnor engine."""
    weights = ws.weights
    d = ws.degree
    dist = next((i for i, w in enumerate(weights) if 2 * w == d), None)
    if dist is None:
        raise NoInvertibleRepresentative(f"{ws} has no half-degree weight")
    others = [i for i in range(len(weights)) if i != dist]
    names = [f"y{k}" for k in range(len(weights))]

    def build(partition_blocks):
        # deterministic: each block contributes its first viable shape
        choices = []
        for block in partition_blocks:
            options = list(_block_polynomials(weights, tuple(block), d))
            if not options:
                return None
            choices.append(options)

        def rec(i, acc):
            if i == len(choices):
                return list(acc)
            for _, terms in choices[i]:
                got = rec(i + 1, acc + terms)
                if got is not None:
                    return got
            return None

        return rec(0, [])

    for partition in sorted(
        _partitions(others), key=lambda p: sorted(tuple(b) for b in p)
    ):
        terms = build([sorted(b) for b in sorted(partition)])
        if terms is None:
            continue
        mono = [0] * len(weights)
        mono[dist] = 2
        poly_terms = {tuple(mono): Fraction(1)}
        ok = True
        for term in terms:
            mono = [0] * len(weights)
            for var, e in term.items():
                mono[var] = e
            key = tuple(mono)
            if key in poly_terms:
                ok = False
                break
            poly_terms[key] = Fraction(1)
        if not ok:
            continue
        candidate = Polynomial(tuple(names), poly_terms)
        try:
            if weight_system(candidate) != ws:
                continue
        except Exception:
            continue
        if not is_invertible(candidate):
            continue
        return candidate
    raise NoInvertibleRepresentative(f"no invertible z0^2 + f found for {ws}")


def csv_text(records) -> str:
    """The records as CSV, a header line and then one line per record; the
    one writer of the catalog's CSV, to a file or to standard output."""
    lines = ["w0,w1,w2,w3,d,quasismooth,bv_admissible,sample_poly"]
    for r in records:
        w = r.weights
        lines.append(
            f"{w[0]},{w[1]},{w[2]},{w[3]},{r.degree},"
            f"{int(r.quasismooth)},{int(r.bv_admissible)},{r.sample_poly}"
        )
    return "\n".join(lines) + "\n"


def genericity_spot_check(record: WeightSystemRecord, seed: int = 0) -> bool:
    """Sparse random-coefficient member of the family has a finite Milnor
    number (so the general member is nondegenerate)."""
    import random

    rng = random.Random(seed)
    if not record.sample_poly:
        return False
    base = parse_polynomial(record.sample_poly)
    terms = {
        m: Fraction(rng.randint(1, 9), rng.randint(1, 3))
        for m in base.terms
    }
    poly = Polynomial(base.variables, terms)
    try:
        milnor_ring(poly)
    except DegenerateSingularity:
        return False
    return True
