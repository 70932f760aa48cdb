"""GroupElement against a plain reference: tuples of Fractions reduced mod 1."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from lgmirror.symmetry import GroupElement, age, fixed_indices

RATIONALS = st.builds(
    Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 30])
)


def _vectors(count):
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(*[st.lists(RATIONALS, min_size=n, max_size=n)] * count)
    )


def ref(components):
    return tuple(Fraction(c) % 1 for c in components)


@settings(deadline=None)
@given(_vectors(2))
def test_equality_and_hash_match_fraction_tuples(pair):
    c, d = pair
    g, h = GroupElement(c), GroupElement(d)
    rc, rd = ref(c), ref(d)
    assert g.components == rc
    assert (g == h) == (rc == rd)
    if g == h:
        assert hash(g) == hash(h)


@settings(deadline=None)
@given(_vectors(1))
def test_invariants_match_fraction_tuples(single):
    (c,) = single
    g = GroupElement(c)
    rc = ref(c)
    assert age(g) == sum(rc, Fraction(0))
    assert fixed_indices(g) == tuple(i for i, a in enumerate(rc) if a == 0)
    assert g.is_identity() == all(a == 0 for a in rc)
    assert str(g) == ",".join(str(a) for a in rc)
    # canonical form: den is the order and the numerators share no factor with it
    assert g.den == math.lcm(*(a.denominator for a in rc)) and math.gcd(g.den, *g.num) == 1
    assert GroupElement._raw([a * 5 for a in g.num], g.den * 5) == g


def test_int_hot_paths_build_no_fraction(monkeypatch):
    g = GroupElement([Fraction(1, 2), Fraction(1, 3), 0])
    h = GroupElement([Fraction(1, 4), Fraction(2, 3), Fraction(1, 6)])
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    _ = (g == h, hash(g), g.is_identity(), fixed_indices(g), GroupElement._raw(h.num, h.den))
    assert built == []
