import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gk3.scalar import (
    GaussRational,
    NonUnitDivisor,
    PoleAtSample,
    Scalar,
    _bilinear,
)
from strategies import fractions as fraction_strategy

T = Scalar.t()
Z = Scalar.zeta()
ZB = Scalar.zetabar()


fractions = fraction_strategy(-9, 9, max_denominator=9)
gauss = st.builds(GaussRational, fractions, fractions)
exponents = st.integers(min_value=-2, max_value=2)
scalars = st.dictionaries(
    st.tuples(exponents, exponents, exponents), gauss, max_size=3
).map(Scalar)


def test_unit_cancellation():
    assert T * (Scalar.one() / T) == Scalar.one()


def test_conj_symmetric_combination():
    s = Z + ZB
    assert s.conj() == s


def test_laurent_multiply_out():
    assert ((T * T + 1) / T) * T == T * T + 1


def test_div_unit_examples():
    # t divided by 2*zeta
    assert T / (2 * Z) == Scalar.monomial("1/2", e_t=1, e_zeta=-1)
    assert Scalar.one() / Scalar.one() == Scalar.one()
    assert (T * T + 1) / T == T + Scalar.one() / T


def test_div_non_unit_raises():
    with pytest.raises(NonUnitDivisor):
        T / (T + 1)
    with pytest.raises(NonUnitDivisor):
        T / Scalar.zero()


def test_eval_examples():
    assert ((T * T - 1) / T).eval(t0=2) == GaussRational(Fraction(3, 2))
    assert (Z * ZB).eval(zeta0=GaussRational(0, 1)) == GaussRational(1)


def test_eval_takes_both_samples_by_one_rule():
    # t0, like zeta0, may be a GaussRational; t is real, so t0 must be too
    s = (T * T - 1) / T + Z
    z0 = GaussRational(0, 1)
    assert s.eval(GaussRational(2), z0) == s.eval(2, z0) == GaussRational(Fraction(3, 2), 1)
    with pytest.raises(ValueError, match="^t is real"):
        T.eval(t0=GaussRational(2, 1))


def test_eval_decay_sequence():
    half_inv_t = Scalar.one() / (2 * T)
    values = [abs(half_inv_t.eval(t0=Fraction(10) ** k).re) for k in range(1, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == Fraction(1, 2_000_000)


def test_eval_pole():
    with pytest.raises(PoleAtSample):
        (Scalar.one() / T).eval(t0=0)
    with pytest.raises(PoleAtSample):
        (Scalar.one() / Z).eval(zeta0=GaussRational(0))


def test_conj_rules():
    s = Scalar.monomial(GaussRational(1, 2), e_t=3, e_zeta=1, e_zetabar=-2)
    c = s.conj()
    assert c == Scalar.monomial(GaussRational(1, -2), e_t=3, e_zeta=-2, e_zetabar=1)


def test_gauss_field_ops():
    x = GaussRational(Fraction(1, 2), Fraction(-2, 3))
    assert x * x.inverse() == GaussRational(1)
    assert (x**-2) * (x**2) == GaussRational(1)
    assert x.conj().conj() == x


def test_canonical_printing_is_sorted():
    s = Scalar.one() + T**2 - 3 * Z
    assert str(s) == "t^2 - 3*zeta + 1"


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(scalars, scalars)
def test_conj_is_ring_automorphism(a, b):
    assert a.conj().conj() == a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


@given(scalars, scalars, fraction_strategy("1/4", 4, max_denominator=6))
def test_eval_is_ring_homomorphism(a, b, t0):
    z0 = GaussRational(Fraction(1, 3), Fraction(-1, 2))
    assert (a * b).eval(t0, z0) == a.eval(t0, z0) * b.eval(t0, z0)
    assert (a + b).eval(t0, z0) == a.eval(t0, z0) + b.eval(t0, z0)


def _pair(x):
    return (x.re, x.im)


def _reference_str(re, im):
    # the printing rule, written on the (Fraction, Fraction) pair
    if not im:
        return str(re)
    im_text = {1: "i", -1: "-i"}.get(im, f"{im}*i")
    if not re:
        return im_text
    return f"{re}{'+' if im > 0 else ''}{im_text}"


def _assert_canonical(x):
    assert x._d > 0 and math.gcd(x._a, x._b, x._d) == 1
    assert type(x.re) is Fraction and type(x.im) is Fraction


@given(gauss, gauss, st.integers(min_value=-4, max_value=4))
def test_gauss_matches_fraction_pair_reference(x, y, n):
    (a, b), (c, d) = _pair(x), _pair(y)
    results = {
        "+": (x + y, (a + c, b + d)),
        "-": (x - y, (a - c, b - d)),
        "*": (x * y, (a * c - b * d, a * d + b * c)),
        "neg": (-x, (-a, -b)),
        "conj": (x.conj(), (a, -b)),
        "int-": (1 - x, (1 - a, -b)),
        "*fraction": (Fraction(2, 3) * x, (Fraction(2, 3) * a, Fraction(2, 3) * b)),
    }
    if y:
        m = c * c + d * d
        results["inverse"] = (y.inverse(), (c / m, -d / m))
        results["/"] = (x / y, ((a * c + b * d) / m, (b * c - a * d) / m))
    if x or n >= 0:
        power = (Fraction(1), Fraction(0))
        base = (a, b) if n >= 0 else (a / (a * a + b * b), -b / (a * a + b * b))
        for _ in range(abs(n)):
            power = (power[0] * base[0] - power[1] * base[1],
                     power[0] * base[1] + power[1] * base[0])
        results["**"] = (x**n, power)
    for op, (value, expected) in results.items():
        assert _pair(value) == expected, op
        _assert_canonical(value)
    assert x.norm_sq() == a * a + b * b
    assert (x == y) == ((a, b) == (c, d))
    twin = GaussRational(a, b)
    assert twin == x and hash(twin) == hash(x)
    assert (GaussRational(a / 2, b / 2) == x) == (not x)
    assert str(x) == _reference_str(a, b)
    assert repr(x) == f"GaussRational({a!r}, {b!r})"
    assert bool(x) == x.is_unit() == bool(a or b)


def test_gauss_canonical_form_and_inputs():
    x = GaussRational("2/4", Fraction(-6, 8))
    assert (x._a, x._b, x._d) == (2, -3, 4)
    assert GaussRational("1/2", "-3/4") == x
    zero = GaussRational(Fraction(0, 7), 0)
    assert (zero._a, zero._b, zero._d) == (0, 0, 1)
    assert (x - x) == zero and hash(x - x) == hash(zero)
    assert GaussRational(3) == 3 and GaussRational(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        GaussRational(0.5)
    for divide in (zero.inverse, zero.unit_inverse, lambda: 1 / zero,
                   lambda: x / zero, lambda: zero**-1):
        with pytest.raises(ZeroDivisionError):
            divide()


@pytest.mark.parametrize("x", ["1/2", 0.5], ids=["str", "float"])
def test_scalar_coerces_no_str_or_float(x):
    with pytest.raises(TypeError):
        Scalar.from_value(x)
    one = Scalar.one()
    for op in (one.__add__, one.__sub__, one.__mul__, one.__rsub__, one.__truediv__,
               one.__rtruediv__, one.__eq__):
        assert op(x) is NotImplemented


@given(scalars, scalars, st.integers(min_value=-2, max_value=2))
def test_results_hold_no_zero_coefficient(a, b, k):
    # b - b, a + (-a), (a + b) - b and the cross terms of (a + b)*(a - b)
    # cancel whole terms
    results = [a + b, a - b, a * b, -a, a.conj(), a - a, a + (-a), (a + b) - b,
               (a + b) * (a - b), a.zeta_coefficient(k), 1 + a, 2 - a, a * 2]
    if b.is_unit():
        results += [b.unit_inverse(), a / b]
    for r in results:
        _assert_reduced_triples(r)
    assert not (a - a).terms and not (a + (-a)).terms


def test_constructor_drops_zero_coefficients_of_every_kind():
    x = Scalar({(0, 0, 0): "0", (1, 0, 0): 0, (2, 0, 0): Fraction(0), (3, 0, 0): GaussRational(0),
                (4, 0, 0): "-2/4", (5, 0, 0): GaussRational(Fraction(2, 6), 1)})
    assert x.terms == {(4, 0, 0): (-1, 0, 2), (5, 0, 0): (1, 3, 3)}
    _assert_reduced_triples(x)


def _assert_reduced_triples(x):
    """Every coefficient of the Scalar ``x`` is a reduced nonzero triple."""
    assert type(x) is Scalar
    for a, b, d in x.terms.values():
        assert d > 0 and math.gcd(a, b, d) == 1 and (a, b) != (0, 0)


def _reference_terms(x):
    """An int, Fraction, GaussRational or Scalar as a term map of GaussRationals."""
    if isinstance(x, Scalar):
        return {k: GaussRational(Fraction(a, d), Fraction(b, d))
                for k, (a, b, d) in x.terms.items()}
    return {(0, 0, 0): x if isinstance(x, GaussRational) else GaussRational(x)}


def _triples(terms):
    """A term map of GaussRationals as the map of their integer triples."""
    return {k: (v._a, v._b, v._d) for k, v in terms.items()}


def _reference_sum(x, y, sign):
    # term by term, one GaussRational operation per term, zeros dropped last
    out = _reference_terms(x)
    for k, v in _reference_terms(y).items():
        out[k] = out.get(k, GaussRational(0)) + v * sign
    return {k: v for k, v in out.items() if v}


def _reference_product(x, y):
    out = {}
    for (a1, b1, c1), v1 in _reference_terms(x).items():
        for (a2, b2, c2), v2 in _reference_terms(y).items():
            k = (a1 + a2, b1 + b2, c1 + c2)
            out[k] = out.get(k, GaussRational(0)) + v1 * v2
    return {k: v for k, v in out.items() if v}


constants = st.one_of(st.integers(min_value=-5, max_value=5), fractions, gauss)


@given(scalars, scalars, constants)
@example(  # the product's cross terms cancel, over different denominators
    Scalar.monomial("1/2", e_t=1) + Scalar.monomial("1/3", e_zeta=1),
    Scalar.monomial("1/2", e_t=1) - Scalar.monomial("1/3", e_zeta=1),
    0,
)
@example(T + Scalar.monomial("2/3"), -T - Scalar.monomial("2/3"), Fraction(-2, 3))
def test_fused_arithmetic_matches_term_by_term_reference(a, b, c):
    # (a, a), (a, -a) and (a + b, b) cancel whole terms; the coefficients
    # of a, b and c come with different denominators
    cases = []
    for x, y in [(a, b), (a, a), (a, -a), (a + b, b), (a, c), (c, a)]:
        cases += [(x + y, _reference_sum(x, y, 1)),
                  (x - y, _reference_sum(x, y, -1)),
                  (x * y, _reference_product(x, y))]
    cases.append((a.__rsub__(b), _reference_sum(b, a, -1)))
    for result, expected in cases:
        assert result.terms == _triples(expected)
        _assert_reduced_triples(result)


weighted_terms = st.lists(st.tuples(st.integers(min_value=-2, max_value=4), scalars, scalars),
                          max_size=4)


def _bilinear_of(terms):
    """A ``_bilinear`` call with two outputs for the terms ``(s, c, x, y)``,
    each adding ``c*x*y`` to output ``s``."""
    table = [[(c, r, r) for r, (s, c, _, _) in enumerate(terms) if s == out] for out in (0, 1)]
    return table, [x for _, _, x, _ in terms], [y for _, _, _, y in terms]


@given(weighted_terms)
@example([])
@example([(0, T, Z)])
@example(  # one key over the denominators 2 and 3, cancelling completely
    [(-2, Scalar.monomial("1/2", e_t=1), Z), (3, Scalar.monomial("1/3", e_t=1), Z)])
def test_bilinear_matches_term_by_term_sum(terms):
    # term r goes to output r % 2
    split = [(r % 2, c, x, y) for r, (c, x, y) in enumerate(terms)]
    expected = [Scalar.zero(), Scalar.zero()]
    for s, c, x, y in split:
        expected[s] = expected[s] + c * x * y
    result = _bilinear(*_bilinear_of(split))
    assert [s.terms for s in result] == [s.terms for s in expected]
    for s in result:
        _assert_reduced_triples(s)
    # each term against its negated transpose: sums that cancel completely
    both = [*split, *((s, -c, y, x) for s, c, x, y in split)]
    assert [s.terms for s in _bilinear(*_bilinear_of(both))] == [{}, {}]


def test_bilinear_examples():
    half_t, third_t, one = Scalar.monomial("1/2", e_t=1), Scalar.monomial("1/3", e_t=1), Scalar.one()
    xs, ys = (half_t, third_t, T), (one, Z, T)
    assert _bilinear((), xs, ys) == []
    assert _bilinear([[(1, 0, 0), (1, 1, 0)]], xs, ys) == [Scalar.monomial("5/6", e_t=1)]
    assert _bilinear([[(-2, 0, 1), (4, 1, 0), (0, 2, 2)]], xs, ys) == [4 * third_t - T * Z]
    assert _bilinear([[(-2, 0, 1), (3, 1, 1)]], xs, ys)[0].terms == {}
    # one table row per output, and an output with no rows
    assert _bilinear([[(-1, 0, 1)], [], [(1, 2, 2)]], xs, ys) == [-half_t * Z, Scalar.zero(), T * T]


@given(st.one_of(gauss, fractions.map(GaussRational), st.integers(-5, 5).map(GaussRational)),
       st.one_of(scalars, gauss.map(Scalar.from_value)))
@example(GaussRational(0), Scalar.zero())
@example(GaussRational(3), Scalar.from_value(3))
@example(GaussRational(Fraction(-1, 2)), Scalar.monomial("-1/2"))
def test_hash_agrees_with_equality_across_coefficient_types(g, s):
    # g as every type that can equal it, beside an independent scalar
    forms = [g, Scalar.from_value(g), s]
    if not g.im:
        forms += [g.re, g.re.numerator] if g.re.denominator == 1 else [g.re]
    for x in forms:
        for y in forms:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert g == Scalar.from_value(g) and (g.im or g == g.re)
