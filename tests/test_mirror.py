from fractions import Fraction

import pytest

from gk3 import cohomology as coh
from gk3 import mirror as mir
from gk3.cohomology import mukai_pairing, real_part
from gk3.mirror import (
    DegeneratePeriod,
    HyperbolicFrame,
    MirrorTriple,
    gross_mirror,
    normalize_mod_F,
    standard_frame,
    verify_theorem4,
)
from gk3.linalg import NoUniqueSolution
from gk3.scalar import GaussRational, NonUnitDivisor, Scalar

T = Scalar.t()
Z = Scalar.zeta()
HALF = Scalar.monomial("1/2")


def test_frame_invariants():
    standard_frame()
    with pytest.raises(ValueError):
        HyperbolicFrame(coh.C, coh.F)  # C^2 = -2 is not 0
    with pytest.raises(ValueError):
        HyperbolicFrame(coh.F, coh.F)


def test_triple_invariants():
    MirrorTriple(period=coh.SIGMA)
    with pytest.raises(ValueError):
        MirrorTriple(period=coh.C)  # C^2 = -2 does not square to zero


def test_normalizer_value():
    period = mir.normalized_twistor_period(T, Z)
    n = mukai_pairing(coh.F, real_part(period))
    assert n == Scalar.one() / T


def test_gross_mirror_congruence():
    frame = standard_frame()
    period = mir.normalized_twistor_period(T, Z)
    mirrored = gross_mirror(MirrorTriple(period=period), frame)
    target = mir.mirror_target(T, Z)
    assert mirrored.complexified_kahler == mir._mod_f(target)
    # the difference before canonicalization is a multiple of F only
    raw = period * T - coh.C
    diff = raw - target
    assert not (diff.a or diff.cC or diff.cs or diff.csb or diff.b)


def test_gross_mirror_two_sided():
    frame = standard_frame()
    period = mir.normalized_twistor_period(T, Z)
    kahler = coh.alpha_class(T) * Scalar.i()
    mirrored = gross_mirror(
        MirrorTriple(period=period, complexified_kahler=kahler), frame
    )
    expected_period = mir._mod_f((coh.C + kahler) * T)
    assert mirrored.period == expected_period


def test_gross_mirror_errors():
    frame = standard_frame()
    with pytest.raises(DegeneratePeriod):
        gross_mirror(MirrorTriple(period=None), frame)
    with pytest.raises(DegeneratePeriod):
        gross_mirror(MirrorTriple(period=coh.SIGMA), frame)
    swapped = HyperbolicFrame.unchecked(coh.C, coh.F)
    with pytest.raises(NonUnitDivisor):
        gross_mirror(MirrorTriple(period=mir.normalized_twistor_period(T, Z)), swapped)


def test_verify_theorem4_symbolic_and_sampled():
    assert verify_theorem4(T, Z) is True
    assert verify_theorem4(2, GaussRational(Fraction(1, 2), Fraction(1, 3))) is True
    assert verify_theorem4(Fraction(3, 2), GaussRational(0, 1)) is True


def test_verify_theorem4_frame_dependence():
    swapped = HyperbolicFrame.unchecked(coh.C, coh.F)
    # at sampled t the normalizer is a nonzero rational, so the mirror
    # map runs but produces a different class: the identity fails
    assert verify_theorem4(2, GaussRational(Fraction(1, 2)), frame=swapped) is False
    with pytest.raises(NonUnitDivisor):
        verify_theorem4(T, Z, frame=swapped)


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
    frame = standard_frame()
    quad = _normalized_quadruple()
    assert normalize_mod_F(quad, frame) == quad


def test_normalize_perturbation_roundtrip():
    frame = standard_frame()
    quad = _normalized_quadruple()
    shifts = (Scalar.from_value(5), T * 3, Scalar.from_value(-7), T * T + 11)
    perturbed = tuple(x + coh.F * s for x, s in zip(quad, shifts))
    assert normalize_mod_F(perturbed, frame) == quad


def test_normalize_output_constraints():
    frame = standard_frame()
    quad = _normalized_quadruple()
    perturbed = tuple(x + coh.F * s for x, s in zip(quad, (1, 2, 3, 4)))
    _, w, r, m = normalize_mod_F(perturbed, frame)
    assert mukai_pairing(w, w) == mukai_pairing(r, r) == mukai_pairing(m, m)
    assert not mukai_pairing(w, r)
    assert not mukai_pairing(w, m)
    assert not mukai_pairing(r, m)


def test_normalize_underdetermined():
    frame = standard_frame()
    # all F-pairings vanish: no multiplier is determined
    quad = (
        coh.SIGMA + coh.SIGMABAR,
        (coh.SIGMA + coh.SIGMABAR) * HALF,
        (coh.SIGMA - coh.SIGMABAR) * Scalar.monomial(GaussRational(0, "-1/2")),
        coh.F,
    )
    with pytest.raises(NoUniqueSolution):
        normalize_mod_F(quad, frame)


def test_normalize_inconsistent():
    # every multiplier has a unit pivot, but the six equations disagree
    quad = (coh.SIGMA + coh.SIGMABAR, coh.C + coh.ONE, coh.C * 2 + coh.ETA, coh.C * 3)
    with pytest.raises(NoUniqueSolution, match="inconsistent"):
        normalize_mod_F(quad, standard_frame())
