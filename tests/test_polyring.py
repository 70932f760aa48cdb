import copy
import random

import pytest
from fractions import Fraction

from lgmirror.polyring import (
    AtomicBlock,
    NonPositiveWeight,
    NonUniqueWeights,
    NotClassifiable,
    NotQuasihomogeneous,
    ParseError,
    Polynomial,
    WeightSystem,
    atomic_decomposition,
    check_cy,
    direct_sum,
    exponent_matrix,
    is_bv_form,
    is_invertible,
    parse_polynomial,
    restrict,
    transpose,
    weight_system,
)


def test_parse_basic():
    p = parse_polynomial("x0^2+x1^3+x2^6")
    assert p.variables == ("x0", "x1", "x2")
    assert len(p.terms) == 3
    assert p.coefficient((2, 0, 0)) == 1


def test_parse_four_terms():
    p = parse_polynomial("y0^2 + y1^6 + y2^6 + y3^6")
    assert len(p.terms) == 4
    assert p.variables == ("y0", "y1", "y2", "y3")


def test_parse_coefficients_and_rationals():
    p = parse_polynomial("3*x^2 - 1/2*x*y + y")
    assert p.coefficient((2, 0)) == 3
    assert p.coefficient((1, 1)) == Fraction(-1, 2)
    assert p.coefficient((0, 1)) == 1


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x0^2 - x1^-1")


def test_parse_merges_duplicate_monomials():
    p = parse_polynomial("x + x")
    assert p.coefficient((1,)) == 2


def test_print_parse_roundtrip():
    rng = random.Random(7)
    names = ("x0", "x1", "x2")
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            mono = tuple(rng.randint(0, 4) for _ in names)
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if coeff:
                terms[mono] = coeff
        if not terms:
            continue
        p = Polynomial(names, terms)
        if p.is_zero():
            continue
        q = parse_polynomial(str(p))
        mapping = {q.variables.index(v): i for i, v in enumerate(p.variables) if v in q.variables}
        remapped = {}
        for m, c in q.terms.items():
            full = [0] * len(names)
            for qi, e in enumerate(m):
                full[mapping[qi]] = e
            remapped[tuple(full)] = c
        assert remapped == p.terms


def test_weight_system_elliptic():
    ws = weight_system(parse_polynomial("x0^2+x1^3+x2^6"))
    assert ws == WeightSystem((3, 2, 1), 6)


def test_weight_system_second_elliptic():
    ws = weight_system(parse_polynomial("x0^2+x1^4+x2^4"))
    assert ws == WeightSystem((2, 1, 1), 4)


def test_weight_system_rank_deficient():
    with pytest.raises(NonUniqueWeights):
        weight_system(parse_polynomial("x0^2+x1^2*x2"))


def test_weight_system_inconsistent():
    with pytest.raises(NotQuasihomogeneous):
        weight_system(parse_polynomial("x^2 + x^3 + y^5"))


def test_weight_system_nonpositive():
    with pytest.raises((NonPositiveWeight, NotQuasihomogeneous)):
        weight_system(parse_polynomial("x^2*y + y"))


# the values a frozen dataclass gave these classes before they became
# __slots__ classes over `Frozen`
def test_weight_system_value_semantics():
    ws = WeightSystem((3, 1, 1, 1), 6)
    assert repr(ws) == "WeightSystem(weights=(3, 1, 1, 1), degree=6)"
    assert str(ws) == "(3,1,1,1;6)"
    assert ws == WeightSystem((3, 1, 1, 1), 6)
    assert ws != WeightSystem((2, 1, 1), 4)
    assert ws != ((3, 1, 1, 1), 6)
    assert hash(ws) == hash(((3, 1, 1, 1), 6))
    assert len({ws, WeightSystem((3, 1, 1, 1), 6)}) == 1
    with pytest.raises(AttributeError, match="cannot assign to field 'degree'"):
        ws.degree = 5
    assert copy.deepcopy(ws) == ws


@pytest.mark.parametrize(
    "weights, degree, message",
    [
        ((3, 1, 1, 1), 0, "bad weight system (3,1,1,1;0)"),
        ((3, 0, 1, 1), 6, "bad weight system (3,0,1,1;6)"),
        ((3, -1, 1), 6, "bad weight system (3,-1,1;6)"),
        ((2, 2, 2), 6, "weights (2, 2, 2) not primitive"),
        ((6, 1, 1), 6, "weight quotient not in (0,1) for (6,1,1;6)"),
    ],
)
def test_non_positive_weight_messages(weights, degree, message):
    with pytest.raises(NonPositiveWeight) as exc:
        WeightSystem(weights, degree)
    assert str(exc.value) == message


def test_atomic_block_value_semantics():
    chain, fermat = atomic_decomposition(parse_polynomial("x0^2*x1+x1^3+x2^2"))
    assert repr(chain) == "AtomicBlock(kind='chain', variables=(0, 1))"
    assert repr(fermat) == "AtomicBlock(kind='fermat', variables=(2,))"
    assert [str(chain), str(fermat)] == ["chain[0, 1]", "fermat[2]"]
    assert chain == AtomicBlock("chain", (0, 1)) != AtomicBlock("loop", (0, 1))
    assert hash(fermat) == hash(("fermat", (2,)))
    # equal only within a class, as dataclasses are, even on equal fields
    assert AtomicBlock((2, 1, 1), 4) != WeightSystem((2, 1, 1), 4)


def test_every_monomial_has_degree_d():
    for text in ("x0^2+x1^3+x2^6", "y0^2+y1^6+y2^6+y3^6", "x^3+x*y^4"):
        p = parse_polynomial(text)
        ws = weight_system(p)
        for m in p.terms:
            assert sum(e * w for e, w in zip(m, ws.weights)) == ws.degree


def test_check_cy():
    assert check_cy(WeightSystem((3, 2, 1), 6))
    assert check_cy(WeightSystem((3, 1, 1, 1), 6))
    assert not check_cy(WeightSystem((1, 1, 1), 5))


def test_is_invertible_fermat():
    assert is_invertible(parse_polynomial("x0^2+x1^3+x2^6"))


def test_is_invertible_count_mismatch():
    assert not is_invertible(parse_polynomial("x0^2+x1^3+x2^6+x1*x2^3"))


def test_is_invertible_nonisolated():
    # square exponent matrix with nonzero det but infinite Milnor number
    assert not is_invertible(parse_polynomial("x^3+x^2*y"))


def test_transpose_fermat_self():
    p = parse_polynomial("x0^2+x1^3+x2^6")
    assert transpose(p) == p


def test_transpose_chain():
    p = parse_polynomial("x^3+x*y^4")
    t = transpose(p)
    assert t == parse_polynomial("x^3*y+y^4")


def test_transpose_involution():
    rng = random.Random(3)
    samples = [
        "x0^2+x1^3+x2^6",
        "x^3*y+y^4",
        "x^2*y+y^2*x",
        "x^3*y+y^5*z+z^4",
        "y0^2+y1^6+y2^6+y3^6",
    ]
    for text in rng.sample(samples, len(samples)):
        p = parse_polynomial(text).normalized()
        assert transpose(transpose(p)) == p


def test_restrict():
    p = parse_polynomial("x0^2+x1^3+x2^6")
    assert restrict(p, {1}) == Polynomial(p.variables, {(0, 3, 0): 1})
    assert restrict(p, {0, 1, 2}) == p
    assert restrict(p, set()).is_zero()


def test_is_bv_form():
    ok, idx = is_bv_form(parse_polynomial("y0^2+y1^6+y2^6+y3^6"))
    assert ok and idx == 0
    ok, idx = is_bv_form(parse_polynomial("x1^3+x2^6"))
    assert not ok
    ok, idx = is_bv_form(parse_polynomial("x0^2*x1+x1^3"))
    assert not ok


def test_bv_form_weight_is_half_degree():
    p = parse_polynomial("y0^2+y1^6+y2^6+y3^6")
    ok, idx = is_bv_form(p)
    ws = weight_system(p)
    assert ok and 2 * ws.weights[idx] == ws.degree


def test_atomic_fermat():
    blocks = atomic_decomposition(parse_polynomial("x0^2+x1^3+x2^6"))
    assert [b.kind for b in blocks] == ["fermat", "fermat", "fermat"]


def test_atomic_chain():
    blocks = atomic_decomposition(parse_polynomial("x^3*y+y^4"))
    assert len(blocks) == 1 and blocks[0].kind == "chain"
    assert blocks[0].variables == (0, 1)


def test_atomic_loop():
    blocks = atomic_decomposition(parse_polynomial("x^2*y+y^2*x"))
    assert len(blocks) == 1 and blocks[0].kind == "loop"


def test_atomic_two_chains_into_one_variable_are_not_classified():
    # x2 is the successor of both x0 and x1 (in-degree 2): the second chain
    # walked reaches x2 again
    poly = parse_polynomial("x0^2*x2+x1^2*x2+x2^3")
    with pytest.raises(NotClassifiable, match="chain re-enters a block"):
        atomic_decomposition(poly)
    assert not is_invertible(poly)


def test_atomic_mixed():
    blocks = atomic_decomposition(parse_polynomial("x^2*y+y^3+z^2*w+w^2*z+u^5"))
    kinds = sorted(b.kind for b in blocks)
    assert kinds == ["chain", "fermat", "loop"]


def test_exponent_matrix_square_for_invertible():
    p = parse_polynomial("x^3*y+y^4")
    assert exponent_matrix(p) == [[3, 1], [0, 4]]


def test_transpose_weight_system_exists():
    for text in ("x0^2+x1^3+x2^6", "x^3*y+y^4", "x^2*y+y^2*x"):
        p = parse_polynomial(text)
        weight_system(transpose(p))  # must not raise


def test_direct_sum():
    p = parse_polynomial("x0^2+x1^3+x2^6")
    q = parse_polynomial("y0^2+y1^6+y2^6+y3^6")
    s = direct_sum(p, q)
    assert s.nvars == 7
    assert len(s.terms) == 7
    assert weight_system(s).degree == 6
