"""Sparse exact-rational multivariate polynomials and weight-system tools.

Monomials are plain tuples of non-negative integer exponents, one slot per
ambient variable.  All coefficient arithmetic uses `fractions.Fraction`;
nothing in this module ever touches floats.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class PolyError(Exception):
    pass


class ParseError(PolyError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotQuasihomogeneous(PolyError):
    """The linear system for the weights has no solution."""


class NonUniqueWeights(PolyError):
    """Rank-deficient exponent matrix: weights are not uniquely determined."""


class NonPositiveWeight(PolyError):
    """A solved weight quotient falls outside (0, 1)."""


class NotInvertible(PolyError):
    pass


class NotClassifiable(PolyError):
    """Square invertible polynomial that is not a sum of Fermat/chain/loop blocks."""


class VariableCollision(PolyError):
    """Two potentials to be summed share a variable name."""


Monomial = tuple  # tuple[int, ...], length == number of ambient variables


class Frozen:
    """An immutable value with the fields named by its ``__slots__``, in
    order: equal only within its class, hashed and shown by those fields, as
    a frozen dataclass is."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.fields() == other.fields()
        return NotImplemented

    def __hash__(self):
        return hash(self.fields())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return type(self), self.fields()


def _mono_sort_key(m: Monomial):
    # graded-lex: total degree first, then lexicographic on exponents
    return (sum(m), m)


class Polynomial:
    """Immutable sparse polynomial over Q with an ordered variable list."""

    __slots__ = ("variables", "terms", "_hash", "_supports")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        n = len(self.variables)
        clean = {}
        for mono, coeff in terms.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != n:
                raise ValueError("monomial length does not match variable count")
            if any(e < 0 for e in mono):
                raise ValueError("negative exponent")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[mono] = clean.get(mono, Fraction(0)) + coeff
        self.terms = {m: c for m, c in clean.items() if c != 0}
        self._hash = None
        self._supports = None

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def _clean(cls, variables: tuple, terms: dict) -> "Polynomial":
        """A polynomial from terms that are already canonical: int exponent
        tuples of the right length mapped to nonzero Fractions."""
        p = cls.__new__(cls)
        p.variables = variables
        p.terms = terms
        p._hash = None
        p._supports = None
        return p

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def supports(self) -> tuple:
        """The variable sets of the monomials as bitmasks, bit i for x_i."""
        if self._supports is None:
            self._supports = tuple({sum([1 << i for i, e in enumerate(m) if e]) for m in self.terms})
        return self._supports

    def monomials(self):
        return sorted(self.terms, key=_mono_sort_key, reverse=True)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.variables != other.variables:
            raise ValueError("variable mismatch")
        res = dict(self.terms)
        for m, c in other.terms.items():
            res[m] = res.get(m, Fraction(0)) + c
        return Polynomial(self.variables, res)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.variables, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        if self.variables != other.variables:
            raise ValueError("variable mismatch")
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                res[m] = res.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.variables, res)

    __rmul__ = __mul__

    def diff(self, i: int) -> "Polynomial":
        # canonical as it stands: m -> m - e_i is one-to-one, and c * m[i] != 0
        terms = {m[:i] + (m[i] - 1,) + m[i + 1 :]: c * m[i] for m, c in self.terms.items() if m[i]}
        return Polynomial._clean(self.variables, terms)

    def normalized(self) -> "Polynomial":
        """Same monomials with every coefficient set to 1."""
        return Polynomial(self.variables, {m: Fraction(1) for m in self.terms})

    def _key(self):
        return (self.variables, frozenset(self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in self.monomials():
            c = self.terms[m]
            factors = []
            for name, e in zip(self.variables, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(("+ " if c > 0 else "- ") + text)
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({str(self)!r})"


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group(1) is not None:
            tokens.append(("num", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def parse_polynomial(text: str) -> Polynomial:
    """Parse `c*x0^2*x1 + ... - ...` into a canonical sparse polynomial.

    Variables are ordered by first appearance.  Coefficients may be integers
    or rationals (`3/2`); a missing coefficient defaults to 1.
    """
    tokens = _tokenize(text)
    var_index: dict[str, int] = {}
    raw_terms = []  # (coeff, {index: exponent})
    k = 0

    def peek():
        return tokens[k]

    def take():
        nonlocal k
        tok = tokens[k]
        k += 1
        return tok

    def parse_number(ctx: str) -> Fraction:
        kind, val, pos = take()
        if kind != "num":
            raise ParseError(f"expected number in {ctx}", pos)
        if peek()[0] == "op" and peek()[1] == "/":
            take()
            kind2, val2, pos2 = take()
            if kind2 != "num":
                raise ParseError("expected denominator", pos2)
            if val2 == 0:
                raise ParseError("zero denominator", pos2)
            return Fraction(val, val2)
        return Fraction(val)

    def parse_term(sign: int):
        coeff = Fraction(sign)
        exps: dict[int, int] = {}
        saw_factor = False
        while True:
            kind, val, pos = peek()
            if kind == "num":
                coeff *= parse_number("coefficient")
                saw_factor = True
            elif kind == "name":
                take()
                idx = var_index.setdefault(val, len(var_index))
                power = 1
                if peek()[0] == "op" and peek()[1] == "^":
                    take()
                    kind2, val2, pos2 = peek()
                    if kind2 == "op" and val2 == "-":
                        raise ParseError("negative exponent", pos2)
                    if kind2 != "num":
                        raise ParseError("expected exponent", pos2)
                    take()
                    power = val2
                exps[idx] = exps.get(idx, 0) + power
                saw_factor = True
            else:
                break
            if peek()[0] == "op" and peek()[1] == "*":
                take()
                kind, val, pos = peek()
                if kind not in ("num", "name"):
                    raise ParseError("expected factor after '*'", pos)
        if not saw_factor:
            raise ParseError("empty term", peek()[2])
        raw_terms.append((coeff, exps))

    kind, val, pos = peek()
    sign = 1
    if kind == "op" and val in "+-":
        take()
        sign = -1 if val == "-" else 1
    parse_term(sign)
    while True:
        kind, val, pos = peek()
        if kind == "end":
            break
        if kind != "op" or val not in "+-":
            raise ParseError(f"expected '+' or '-', got {val!r}", pos)
        take()
        parse_term(-1 if val == "-" else 1)

    n = len(var_index)
    terms = {}
    for coeff, exps in raw_terms:
        mono = tuple(exps.get(i, 0) for i in range(n))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Polynomial(tuple(var_index), terms)


class WeightSystem(Frozen):
    """Integer weight system (w_1, ..., w_n; d) with gcd(w) = 1."""

    __slots__ = ("weights", "degree")

    def __init__(self, weights: tuple, degree: int):
        super().__init__(weights, degree)
        if self.degree <= 0 or any(w <= 0 for w in self.weights):
            raise NonPositiveWeight(f"bad weight system {self}")
        if math.gcd(*self.weights) != 1:
            raise NonPositiveWeight(f"weights {self.weights} not primitive")
        if any(w >= self.degree for w in self.weights):
            raise NonPositiveWeight(f"weight quotient not in (0,1) for {self}")

    def __str__(self):
        return "(" + ",".join(str(w) for w in self.weights) + f";{self.degree})"


def weight_system(poly: Polynomial) -> WeightSystem:
    """Solve A q = 1 for the unique primitive integer weight system.

    Gauss-Jordan elimination runs on the int rows of the augmented matrix,
    each row cross-multiplied by the pivot and divided by its gcd, so only
    the n quotients are built as Fractions.  Raises NotQuasihomogeneous when
    inconsistent, NonUniqueWeights when the exponent matrix has rank < n,
    NonPositiveWeight when a quotient leaves (0, 1).
    """
    if poly.is_zero():
        raise NotQuasihomogeneous("zero polynomial")
    n = poly.nvars
    rows = [[*m, 1] for m in poly.monomials()]
    r = 0  # rank so far
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f != 0:
                row = [pv * a - f * b for a, b in zip(row, prow)]
                g = math.gcd(*row)
                rows[i] = [a // g for a in row] if g > 1 else row
        r += 1
    for i in range(r, len(rows)):
        if rows[i][n] != 0:
            raise NotQuasihomogeneous(f"no weight solution for {poly}")
    if r < n:
        raise NonUniqueWeights(f"rank {r} < {n} variables")
    # rank n: the pivot columns are 0..n-1, row i solves q_i
    q = [Fraction(rows[i][n], rows[i][i]) for i in range(n)]
    if any(x <= 0 for x in q):
        raise NonPositiveWeight(f"non-positive weight quotient in {q}")
    if any(x >= 1 for x in q):
        raise NonPositiveWeight(f"weight quotient >= 1 in {q}")
    d = math.lcm(*(x.denominator for x in q))
    weights = [x.numerator * (d // x.denominator) for x in q]
    g = math.gcd(*weights)
    if g > 1:
        if d % g:
            raise NotQuasihomogeneous(f"weights {weights} do not scale to gcd 1")
        weights = [w // g for w in weights]
        d //= g
    return WeightSystem(tuple(weights), d)


def check_cy(ws: WeightSystem) -> bool:
    """Calabi-Yau condition: the weights sum to the degree."""
    return sum(ws.weights) == ws.degree


def exponent_matrix(poly: Polynomial):
    """Rows are the monomial exponent vectors, in canonical (graded-lex) order."""
    return [list(m) for m in poly.monomials()]


def _int_det(matrix) -> int:
    # fraction-free Bareiss; matrix is small (n <= ~10)
    a = [row[:] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_invertible(poly: Polynomial) -> bool:
    """Invertible in the sense of the BHK mirror: the weights solve and the
    polynomial is a Thom-Sebastiani sum of Fermat, chain and loop blocks
    (`atomic_decomposition`).  The blocks make the exponent matrix square,
    and unique weights give it rank n, so its determinant is nonzero.

    By Kreuzer-Skarke ("On the classification of quasihomogeneous
    functions", CMP 150, 1992) a quasihomogeneous polynomial with n
    monomials in n variables and no mass term x_i*x_j (i != j) is
    nondegenerate exactly when it is such a sum, so no Milnor ring is
    built.  A nondegenerate polynomial with a mass term that is not such a
    sum reads False, as `transpose` rejects it."""
    try:
        weight_system(poly)
        atomic_decomposition(poly)
    except PolyError:
        return False
    return True


def transpose(poly: Polynomial) -> Polynomial:
    """BHK mirror potential: the polynomial of the transposed exponent matrix.

    Rows are aligned so that the monomial headed by variable i sits in row i
    (the usual Berglund-Hubsch indexing); this makes the map an involution on
    the nose.
    """
    rows = exponent_matrix(poly)
    if len(rows) != poly.nvars or _int_det(rows) == 0:
        raise NotInvertible(f"{poly} has no square invertible exponent matrix")
    n = poly.nvars
    try:
        head_rows = _head_aligned_rows(poly, rows)
    except NotClassifiable as exc:
        raise NotInvertible(str(exc)) from exc
    terms = {}
    for i in range(n):
        mono = tuple(head_rows[j][i] for j in range(n))
        if mono in terms:
            raise NotInvertible(f"transpose of {poly} collapses monomials")
        terms[mono] = Fraction(1)
    return Polynomial(poly.variables, terms)


def restrict(poly: Polynomial, fixed) -> Polynomial:
    """Set every variable outside `fixed` to zero (keep the ambient slots)."""
    fixed = set(fixed)
    terms = {
        m: c
        for m, c in poly.terms.items()
        if all(e == 0 or i in fixed for i, e in enumerate(m))
    }
    return Polynomial._clean(poly.variables, terms)


def is_bv_form(poly: Polynomial):
    """Detect the shape z0^2 + f(other variables).

    Returns (True, index-of-the-squared-variable) or (False, None).
    """
    for i in range(poly.nvars):
        square = tuple(2 if j == i else 0 for j in range(poly.nvars))
        if square not in poly.terms:
            continue
        if all(m == square or m[i] == 0 for m in poly.terms):
            return True, i
    return False, None


class AtomicBlock(Frozen):
    """kind "fermat", "chain" or "loop"; variable indices in chain/loop order."""

    __slots__ = ("kind", "variables")

    def __str__(self):
        return f"{self.kind}{list(self.variables)}"


def _head_assignment(poly: Polynomial, rows):
    """Bijection variable -> row index, where the non-head exponent of each
    two-variable monomial x_j^a * x_k must be exactly 1 (found by backtracking)."""
    n = poly.nvars
    if len(rows) != n:
        raise NotClassifiable(f"{poly}: {len(rows)} monomials over {n} variables")
    supports = []
    for row in rows:
        sup = [j for j, e in enumerate(row) if e]
        if not 1 <= len(sup) <= 2:
            raise NotClassifiable(f"monomial with support {sup} in {poly}")
        supports.append(sup)

    candidates = []
    for row, sup in zip(rows, supports):
        cand = []
        if len(sup) == 1:
            if row[sup[0]] < 2:
                raise NotClassifiable(f"linear pure-power term in {poly}")
            cand.append(sup[0])
        else:
            j, k = sup
            if row[k] == 1:
                cand.append(j)
            if row[j] == 1:
                cand.append(k)
            if not cand:
                raise NotClassifiable(f"monomial x{j}^{row[j]}*x{k}^{row[k]} fits no block")
        candidates.append(cand)

    head_of: dict[int, int] = {}  # variable -> term index

    def assign(i: int) -> bool:
        if i == len(rows):
            return True
        for h in candidates[i]:
            if h not in head_of:
                head_of[h] = i
                if assign(i + 1):
                    return True
                del head_of[h]
        return False

    if not assign(0) or len(head_of) != n:
        raise NotClassifiable(f"no consistent head assignment for {poly}")
    return head_of, supports


def _head_aligned_rows(poly: Polynomial, rows):
    head_of, _ = _head_assignment(poly, rows)
    return [tuple(rows[head_of[v]]) for v in range(poly.nvars)]


def atomic_decomposition(poly: Polynomial):
    """Split an invertible polynomial into Fermat / chain / loop blocks.

    Each monomial must be x_j^a or x_j^a * x_k; a consistent head assignment
    (one term per variable) is found by backtracking, then successor edges are
    followed to cut chains and loops.
    """
    rows = exponent_matrix(poly)
    n = poly.nvars
    if len(rows) != n:
        raise NotInvertible(f"{poly}: {len(rows)} monomials over {n} variables")
    head_of, supports = _head_assignment(poly, rows)

    succ = {}
    for var, ti in head_of.items():
        sup = supports[ti]
        succ[var] = None if len(sup) == 1 else (sup[0] if sup[1] == var else sup[1])

    incoming = {v: 0 for v in range(n)}
    for v, s in succ.items():
        if s is not None:
            incoming[s] += 1

    blocks = []
    seen = set()
    for start in range(n):
        if incoming[start] == 0 and start not in seen:
            path = []
            v = start
            while v is not None:
                if v in seen:
                    raise NotClassifiable(f"chain re-enters a block in {poly}")
                seen.add(v)
                path.append(v)
                v = succ[v]
            blocks.append(AtomicBlock("fermat" if len(path) == 1 else "chain", tuple(path)))
    for start in range(n):
        if start not in seen:
            path = []
            v = start
            while v not in seen:
                seen.add(v)
                path.append(v)
                v = succ[v]
            if v != path[0]:
                raise NotClassifiable(f"broken loop through x{start} in {poly}")
            blocks.append(AtomicBlock("loop", tuple(path)))
    blocks.sort(key=lambda b: b.variables[0])
    return blocks


def direct_sum(p1: Polynomial, p2: Polynomial) -> Polynomial:
    """Place two polynomials in disjoint variables side by side."""
    shared = sorted(set(p1.variables) & set(p2.variables))
    if shared:
        raise VariableCollision(f"variable names collide: {', '.join(shared)}")
    variables = p1.variables + p2.variables
    n1, n2 = p1.nvars, p2.nvars
    terms = {m + (0,) * n2: c for m, c in p1.terms.items()}
    for m, c in p2.terms.items():
        terms[(0,) * n1 + m] = terms.get((0,) * n1 + m, Fraction(0)) + c
    return Polynomial(variables, terms)
