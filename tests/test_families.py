from fractions import Fraction

from gk3 import families as fam
from gk3 import harmonic as ht
from gk3.cohomology import gualtieri_spinor_class, twistor_period
from gk3.harmonic import HTClass
from gk3.scalar import Scalar

T = Scalar.t()


def test_direction_X_closed_form():
    u = fam.direction_X(T)
    assert u == HTClass(
        qC=Scalar.from_value(-2) / T, qF=Scalar.from_value(-2) * (T * T + 1) / T
    )
    assert fam.direction_X(Scalar.one()) == HTClass(qC=-2, qF=-4)


def test_direction_Y_closed_form():
    v = fam.direction_Y(T)
    half = Scalar.monomial("1/2")
    assert v == HTClass(p=-(half / T), r=half * T)


def test_infinity_directions():
    assert fam.direction_X_infinity() == HTClass(qF=-2)
    assert fam.direction_Y_infinity() == HTClass(r=Scalar.monomial("1/2"))
    assert ht.phi_t(fam.direction_X_infinity()) == fam.direction_Y_infinity()


def test_bfield_correction_symbolic():
    corr = fam.bfield_correction(T)
    assert corr == HTClass(r=-(Scalar.monomial("1/2") / T))
    assert not corr.p and not corr.qC and not corr.qF
    assert not fam.bfield_correction_untwisted(T)


def test_bfield_correction_sampled():
    corr = fam.bfield_correction(Scalar.from_value(2))
    assert corr == HTClass(r=Scalar.monomial("-1/4"))


def test_correction_decays():
    corr = fam.bfield_correction(T)
    values = [abs(corr.r.eval(t0=Fraction(10) ** k).re) for k in range(1, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_direction_extraction_from_families():
    z = Scalar.zeta()
    assert fam.direction_from_spinor_family(twistor_period(T, z)) == fam.direction_X(T)
    assert fam.direction_from_spinor_family(gualtieri_spinor_class(T, z)) == fam.direction_Y(T)


def test_direction_extraction_no_zeta_term():
    # a family with no zeta-linear part yields the zero direction; the
    # twistor period evaluated at zeta = 0 is such a family
    assert not fam.direction_from_spinor_family(twistor_period(T, Scalar.zero()))


def test_poisson_direction_at_t_1():
    u1 = fam.direction_X(Scalar.one())
    assert ht.phi_t(u1) == HTClass(p=Scalar.monomial("-1/2"))


def test_direction_Y_numeric():
    assert fam.direction_Y(Fraction(3, 2)) == HTClass(
        p=Scalar.monomial("-1/3"), r=Scalar.monomial("3/4")
    )
