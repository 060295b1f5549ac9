from fractions import Fraction

import pytest

from gk3 import cohomology as coh
from gk3 import mirror as mir
from gk3.cohomology import mukai_pairing, real_part
from gk3.mirror import DegeneratePeriod, gross_mirror, normalize_mod_F, verify_theorem4
from gk3.linalg import NoUniqueSolution
from gk3.scalar import GaussRational, NonUnitDivisor, Scalar

T = Scalar.t()
Z = Scalar.zeta()
HALF = Scalar.monomial("1/2")


def test_normalizer_value():
    period = mir.normalized_twistor_period(T, Z)
    n = mukai_pairing(coh.F, real_part(period))
    assert n == Scalar.one() / T


def test_gross_mirror_congruence():
    period = mir.normalized_twistor_period(T, Z)
    mirror_kahler, mirror_period = gross_mirror(period)
    assert mirror_period is None
    target = mir.mirror_target(T, Z)
    assert mirror_kahler == mir._mod_f(target)
    # the difference before canonicalization is a multiple of F only
    raw = period * T - coh.C
    diff = raw - target
    assert not (diff.a or diff.cC or diff.cs or diff.csb or diff.b)


def test_gross_mirror_two_sided():
    period = mir.normalized_twistor_period(T, Z)
    kahler = coh.alpha_class(T) * Scalar.i()
    mirror_kahler, mirror_period = gross_mirror(period, kahler)
    assert mirror_kahler == gross_mirror(period)[0]
    assert mirror_period == mir._mod_f((coh.C + kahler) * T)


def test_gross_mirror_period_squares_to_zero():
    # F . C = 1 is a unit: only the square of C rules it out
    with pytest.raises(ValueError, match="self-intersection"):
        gross_mirror(coh.C)  # C^2 = -2


def test_gross_mirror_errors():
    with pytest.raises(DegeneratePeriod):
        gross_mirror(coh.SIGMA)  # F . Re(sigma) = 0
    # F . Re of the unscaled twistor period is (zeta + zetabar)/t, not a monomial
    with pytest.raises(NonUnitDivisor):
        gross_mirror(coh.twistor_period(T, Z))


def test_verify_theorem4_symbolic_and_sampled():
    assert verify_theorem4(T, Z) is True
    assert verify_theorem4(2, GaussRational(Fraction(1, 2), Fraction(1, 3))) is True
    assert verify_theorem4(Fraction(3, 2), GaussRational(0, 1)) is True


def _normalized_quadruple():
    omega = coh.C + coh.F * 2
    re_sigma = (coh.SIGMA + coh.SIGMABAR) * HALF
    im_sigma = (coh.SIGMA - coh.SIGMABAR) * Scalar.monomial(GaussRational(0, "-1/2"))
    bfield = (coh.SIGMA + coh.SIGMABAR) * HALF
    return bfield, omega, re_sigma, im_sigma


def test_quadruple_is_normalized():
    b, w, r, m = _normalized_quadruple()
    assert mukai_pairing(w, w) == mukai_pairing(r, r) == mukai_pairing(m, m)
    assert not mukai_pairing(w, r)
    assert not mukai_pairing(w, m)
    assert not mukai_pairing(r, m)
    assert not mukai_pairing(coh.F, b)  # B lies in the F-perp space


def test_normalize_fixed_point():
    quad = _normalized_quadruple()
    assert normalize_mod_F(quad) == quad


def test_normalize_perturbation_roundtrip():
    quad = _normalized_quadruple()
    shifts = (Scalar.from_value(5), T * 3, Scalar.from_value(-7), T * T + 11)
    perturbed = tuple(x + coh.F * s for x, s in zip(quad, shifts))
    assert normalize_mod_F(perturbed) == quad


def test_normalize_output_constraints():
    quad = _normalized_quadruple()
    perturbed = tuple(x + coh.F * s for x, s in zip(quad, (1, 2, 3, 4)))
    _, w, r, m = normalize_mod_F(perturbed)
    assert mukai_pairing(w, w) == mukai_pairing(r, r) == mukai_pairing(m, m)
    assert not mukai_pairing(w, r)
    assert not mukai_pairing(w, m)
    assert not mukai_pairing(r, m)


def test_normalize_underdetermined():
    # all F-pairings vanish: no multiplier is determined
    quad = (
        coh.SIGMA + coh.SIGMABAR,
        (coh.SIGMA + coh.SIGMABAR) * HALF,
        (coh.SIGMA - coh.SIGMABAR) * Scalar.monomial(GaussRational(0, "-1/2")),
        coh.F,
    )
    with pytest.raises(NoUniqueSolution):
        normalize_mod_F(quad)


def test_normalize_inconsistent():
    # every multiplier has a unit pivot, but the six equations disagree
    quad = (coh.SIGMA + coh.SIGMABAR, coh.C + coh.ONE, coh.C * 2 + coh.ETA, coh.C * 3)
    with pytest.raises(NoUniqueSolution, match="inconsistent"):
        normalize_mod_F(quad)
