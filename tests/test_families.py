from fractions import Fraction
from itertools import product

import pytest

from gk3 import families as fam
from gk3 import harmonic as ht
from gk3 import mirror as mir
from gk3.cohomology import gualtieri_spinor_class, twistor_period
from gk3.harmonic import HTClass
from gk3.scalar import GaussRational, Scalar

T = Scalar.t()

# t = 2, zeta = 1/2 and zeta = i as each constant type that holds them
T_FORMS = (2, Fraction(2), GaussRational(2), Scalar.from_value(2))
ZETA_FORMS = ((Fraction(1, 2), GaussRational(Fraction(1, 2)), Scalar.monomial("1/2")),
              (GaussRational(0, 1), Scalar.i()))


def _one_class(values):
    assert all(type(c) is Scalar for v in values for c in v.components())
    assert all(v == values[0] for v in values[1:])


@pytest.mark.parametrize("entry", [fam.direction_X, fam.direction_Y, fam.bfield_correction,
                                   fam.bfield_correction_untwisted], ids=lambda f: f.__name__)
def test_t_entry_points_take_every_constant_type(entry):
    # the class constructors and the Scalar operators coerce the parameter
    _one_class([entry(t) for t in T_FORMS])


@pytest.mark.parametrize("entry", [twistor_period, gualtieri_spinor_class, mir.mirror_target,
                                   mir.normalized_twistor_period], ids=lambda f: f.__name__)
def test_t_zeta_entry_points_take_every_constant_type(entry):
    for zetas in ZETA_FORMS:
        _one_class([entry(t, z) for t, z in product(T_FORMS, zetas)])


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
