
from hypothesis import example, given
from hypothesis import strategies as st

from gk3 import cohomology as coh
from gk3.cohomology import (
    CohClass,
    alpha_class,
    gualtieri_spinor_class,
    mukai_pairing,
    real_part,
    twistor_period,
    wedge,
)
from gk3.harmonic import phi_homega
from gk3.scalar import GaussRational, Scalar
from strategies import fractions as fraction_strategy
from test_scalar import _assert_reduced_triples

T = Scalar.t()
Z = Scalar.zeta()

BASIS = (coh.ONE, coh.C, coh.F, coh.SIGMA, coh.SIGMABAR, coh.ETA)


def test_intersection_numbers():
    assert wedge(coh.C, coh.C) == coh.ETA * (-2)
    assert wedge(coh.C, coh.F) == coh.ETA
    assert not wedge(coh.F, coh.F)
    assert wedge(coh.SIGMA, coh.SIGMABAR) == coh.ETA * 4
    assert not wedge(coh.SIGMA, coh.SIGMA)


def test_unit_and_truncation():
    x = CohClass(a=3, cC=1, cF=-2, cs=5, csb=1, b=7)
    assert wedge(coh.ONE, x) == x
    # degree-two times degree-four and higher vanishes
    assert not wedge(coh.C, coh.ETA)
    assert not wedge(coh.ETA, coh.ETA)


def test_hyperbolic_gram_matrix():
    gram = [
        [mukai_pairing(x, y) for y in (coh.C, coh.F)] for x in (coh.C, coh.F)
    ]
    assert gram == [
        [Scalar.from_value(-2), Scalar.one()],
        [Scalar.one(), Scalar.zero()],
    ]


def test_mukai_pairing_values():
    assert mukai_pairing(coh.C, coh.C) == Scalar.from_value(-2)
    assert mukai_pairing(coh.ONE, coh.ETA) == Scalar.from_value(-1)
    assert mukai_pairing(coh.SIGMA, coh.SIGMABAR) == Scalar.from_value(4)


def test_todd_half():
    # the square roots 1 + eta and 1 - eta of the Todd class and its inverse
    assert wedge(coh.ONE + coh.ETA, coh.ONE - coh.ETA) == coh.ONE


def test_alpha_class_pairings():
    a = alpha_class(T)
    assert mukai_pairing(a, coh.C) == (T * T - 1) / T
    assert mukai_pairing(a, coh.F) == Scalar.one() / T
    assert mukai_pairing(a, a) == Scalar.from_value(2)
    assert wedge(a, a) == coh.ETA * 2
    at1 = alpha_class(Scalar.one())
    assert mukai_pairing(at1, coh.C) == Scalar.zero()


def test_twistor_period():
    period = twistor_period(T, Z)
    assert not wedge(period, period)
    assert twistor_period(T, Scalar.zero()) == coh.SIGMA
    lcs = coh.SIGMA + coh.F * (2 * Z)
    assert not wedge(lcs, lcs)


def test_fourier_mukai_carries_twistor_periods_to_spinor_classes():
    # identically in t and zeta, not only in the zeta-linear terms
    assert phi_homega(twistor_period(T, Z)) == gualtieri_spinor_class(T, Z)


def test_gualtieri_spinor_class():
    cls = gualtieri_spinor_class(T, Z)
    assert gualtieri_spinor_class(T, Scalar.zero()) == coh.SIGMA
    linear = cls.zeta_coefficient(1)
    assert linear.a == 2 * Scalar.one() / T
    assert linear.b == -2 * T


def test_conjugation_swaps_sigma_slots():
    x = CohClass(cs=Z, csb=3)
    assert x.conj() == CohClass(cs=3, csb=Scalar.zetabar())
    a = alpha_class(T)
    assert a.conj() == a


def test_real_imag_parts():
    x = coh.SIGMA * (Scalar.one() / Z)
    assert real_part(x).conj() == real_part(x)


small = fraction_strategy(-6, 6, max_denominator=4)
sclasses = st.builds(
    CohClass, *(st.builds(lambda f: Scalar.from_value(f), small) for _ in range(6))
)


@given(sclasses, sclasses, sclasses)
def test_wedge_bilinear_associative(x, y, z):
    assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))
    assert wedge(x, y) == wedge(y, x)
    assert wedge(x + y, z) == wedge(x, z) + wedge(y, z)


@given(sclasses, sclasses)
def test_pairing_symmetric_and_conj_isometric(x, y):
    assert mukai_pairing(x, y) == mukai_pairing(y, x)
    assert mukai_pairing(x.conj(), y.conj()) == mukai_pairing(x, y).conj()


def _reference_q(x, y):
    # the form written out with Laurent products and sums
    return (
        Scalar.from_value(-2) * x.cC * y.cC
        + x.cC * y.cF
        + x.cF * y.cC
        + Scalar.from_value(4) * (x.cs * y.csb + x.csb * y.cs)
    )


def _reference_wedge(x, y):
    return CohClass(
        a=x.a * y.a,
        cC=x.a * y.cC + y.a * x.cC,
        cF=x.a * y.cF + y.a * x.cF,
        cs=x.a * y.cs + y.a * x.cs,
        csb=x.a * y.csb + y.a * x.csb,
        b=x.a * y.b + y.a * x.b + _reference_q(x, y),
    )


def _reference_mukai_pairing(x, y):
    return _reference_q(x, y) - x.a * y.b - y.a * x.b


# classes whose components have 0-3 terms, negative exponents and complex
# coefficients
exponents = st.integers(min_value=-2, max_value=2)
laurent = st.dictionaries(st.tuples(exponents, exponents, exponents),
                          st.builds(GaussRational, small, small), max_size=3).map(Scalar)
lclasses = st.builds(CohClass, *(laurent for _ in range(6)))


def test_forms_match_written_out_formula_on_basis_pairs():
    for x in BASIS:
        for y in BASIS:
            assert wedge(x, y) == _reference_wedge(x, y)
            assert mukai_pairing(x, y) == _reference_mukai_pairing(x, y)


@given(lclasses, lclasses)
@example(twistor_period(T, Z), gualtieri_spinor_class(T, Z).conj())
@example(alpha_class(T), CohClass(a=Z, cC=T, cF=-1, cs=Scalar.zetabar(), csb=T * Z, b=Z / T))
def test_forms_match_written_out_formula(x, y):
    product, pairing = wedge(x, y), mukai_pairing(x, y)
    assert product == _reference_wedge(x, y)
    assert pairing == _reference_mukai_pairing(x, y)
    for s in (*product.components(), pairing):
        _assert_reduced_triples(s)
