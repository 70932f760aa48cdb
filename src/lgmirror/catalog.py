"""Weight-system catalog: K3 hypersurface systems, the half-degree filter,
sample potentials of the shape z0^2 + f, and CSV output.

Quasismoothness of the general degree-d hypersurface in P(w0..w3) is decided
by the standard combinatorial criterion over nonempty variable subsets I:
either some monomial in the I-variables has degree d, or there are |I|
monomials x^M * x_e (M supported on I) with |I| distinct outside variables e.
For I = {i} it asks for x_i^a or x_i^a * x_e of degree d, so the largest
weight w0 divides s or s - w_e, where s is the sum of the other three.  The
enumeration solves for w0 from these instead of scanning it, keeps only the
solutions in range (s, s/2, w1 + w2, w1 + w3, w2 + w3, and w1 when w1 = w2),
and screens the other three weights by the same divisibility on integers
before the full subset sweep.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

from .polyring import (
    Frozen,
    Polynomial,
    WeightSystem,
    is_invertible,
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


def quasismooth_general(weights, degree: int) -> bool:
    """Iano-Fletcher-style criterion for the general hypersurface.

    The degrees up to d that the weights of a subset I represent are one
    bitset, bit t set when t is a non-negative integer combination of them;
    it is grown from the bitset of I less its last variable, which the sweep
    (by size, in combination order) has already built."""
    n = len(weights)
    full = (1 << degree + 1) - 1
    reach = {(): 1}
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            bits, w = reach[subset[:-1]], weights[subset[-1]]
            while w <= degree:
                bits |= bits << w & full
                w *= 2
            reach[subset] = bits
            if bits >> degree & 1:
                continue
            outside = [
                e
                for e in range(n)
                if e not in subset and weights[e] <= degree and bits >> degree - weights[e] & 1
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
    s/k (k = 1, 2, 3) or (s - w_e)/k (k = 1, 2).  Of these only s, s/2 and
    the pair sums w1 + w2, w1 + w3, w2 + w3 can lie in [w1, max_weight]
    (s/2 and w2 + w3 when w2 + w3 >= w1); s/3 and the halves of pair sums
    reach w1 only as w1 itself, when w1 = w2.  Each candidate passes its own
    w0 clause by construction, so the integer screen tests w1, w2 and w3
    (w_i divides d or some d - w_e) before gcd and the subset sweep.

    Raises BoundTooSmall when fewer than 95 systems are found."""
    found = []
    for w3 in range(1, max_weight + 1):
        for w2 in range(w3, max_weight + 1):
            for w1 in range(w2, max_weight + 1):
                s = w1 + w2 + w3
                candidates = {s, w1 + w2, w1 + w3}
                if w2 + w3 >= w1:
                    candidates.add(w2 + w3)
                    if s % 2 == 0:
                        candidates.add(s // 2)
                if w1 == w2:
                    candidates.add(w1)
                for w0 in candidates:
                    if w0 > max_weight:
                        continue
                    d = w0 + s
                    if not (
                        (d % w1 == 0 or (d - w0) % w1 == 0 or (d - w2) % w1 == 0 or (d - w3) % w1 == 0)
                        and (d % w2 == 0 or (d - w0) % w2 == 0 or (d - w1) % w2 == 0 or (d - w3) % w2 == 0)
                        and (d % w3 == 0 or (d - w0) % w3 == 0 or (d - w1) % w3 == 0 or (d - w2) % w3 == 0)
                    ) or math.gcd(w0, w1, w2, w3) != 1:
                        continue
                    weights = (w0, w1, w2, w3)
                    if not quasismooth_general(weights, d):
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
    for order in permutations(var_indices):
        if order[0] != min(order):
            continue  # loops are rotation-invariant; pin the smallest first
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
    variables (lexicographically first decomposition wins) and keeps the
    first candidate that `is_invertible` passes.  Every term has degree d by
    construction, so a candidate whose weights solve has the weights ws; and
    as a Kreuzer-Skarke sum of blocks it is nondegenerate, with no Milnor
    ring built."""
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
        if is_invertible(candidate):
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

