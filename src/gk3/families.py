"""Lattice-level data of the two deformation families.

For each real parameter ``t > 1`` the twistor family deforms the
elliptic surface in a direction ``u_t`` inside the polyvector classes,
while the interpolation family deforms the dual fibration in a
direction ``v_t``.  The Todd-twisted transform carries ``u_t`` to
``v_t`` up to the correction ``-(1/(2t)) * sigmabar``, an exact Laurent
identity in ``t``; the untwisted transform carries ``u_t`` to ``v_t``
on the nose.  Everything here is symbolic in ``t`` unless a numeric
value is supplied.

:func:`family_identities` writes each identity about the families once,
as a residual that vanishes exactly when the identity holds; the check
registry certifies them at symbolic ``t``, and ``gk3 families`` prints
those records.
"""

from __future__ import annotations

from . import cohomology
from .cohomology import alpha_class, gualtieri_spinor_class, mukai_pairing, twistor_period
from .harmonic import HTClass, contract_sigma_inv, phi_ht, phi_t
from .scalar import Scalar


def direction_X(t) -> HTClass:
    """Deformation direction of the twistor family.

    Minus twice the polarizing class, pulled back through the
    contraction isomorphism: ``-(2/t)*sigma^-1*C -
    (2(t^2+1)/t)*sigma^-1*F``.
    """
    t = Scalar.from_value(t)
    return contract_sigma_inv(alpha_class(t)) * (-2)


def direction_Y(t) -> HTClass:
    """Deformation direction of the interpolation family.

    ``(1/2) * (-(1/t)*sigma^-1 + t*sigmabar)``.
    """
    t = Scalar.from_value(t)
    half = Scalar.monomial("1/2")
    return HTClass(p=-half / t, r=half * t)


def direction_X_infinity() -> HTClass:
    """Renormalized large-parameter direction ``-2*sigma^-1*F``."""
    return HTClass(qF=-2)


def direction_Y_infinity() -> HTClass:
    """Renormalized large-parameter direction ``(1/2)*sigmabar``."""
    return HTClass(r=Scalar.monomial("1/2"))


def bfield_correction(t) -> HTClass:
    """``phi_t(u_t) - v_t``; equals ``-(1/(2t))*sigmabar`` identically."""
    t = Scalar.from_value(t)
    return phi_t(direction_X(t)) - direction_Y(t)


def bfield_correction_untwisted(t) -> HTClass:
    """``phi_ht(u_t) - v_t``; vanishes identically."""
    t = Scalar.from_value(t)
    return phi_ht(direction_X(t)) - direction_Y(t)


def direction_from_spinor_family(cls) -> HTClass:
    """Recover a deformation direction from its family of period classes.

    ``cls`` is the family's period (or spinor) class, symbolic in
    ``zeta``; the direction is minus the inverse contraction of its
    ``zeta`` coefficient.
    """
    return -contract_sigma_inv(cls.zeta_coefficient(1))


def family_identities(t) -> dict:
    """Residual of each family identity at ``t``, keyed by its name.

    Covers the intersection numbers of the polarizing class
    (``alpha.C = (t^2-1)/t``, ``alpha.F = 1/t``, ``alpha^2 = 2``, and
    ``alpha.C = 0`` at ``t = 1``), both correction identities, and the
    recovery of the directions from their families.  An identity holds
    exactly when its residual is zero.
    """
    t = Scalar.from_value(t)
    alpha = alpha_class(t)
    one = Scalar.one()
    half = Scalar.monomial("1/2")
    zeta = Scalar.zeta()
    return {
        "alpha-dot-C": mukai_pairing(alpha, cohomology.C) - (t * t - 1) / t,
        "alpha-dot-F": mukai_pairing(alpha, cohomology.F) - one / t,
        "alpha-squared": mukai_pairing(alpha, alpha) - 2 * one,
        "alpha-dot-C-at-t-1": mukai_pairing(alpha_class(one), cohomology.C),
        "correction-is-halved-inverse-t": bfield_correction(t) - HTClass(r=-(half / t)),
        "untwisted-correction-vanishes": bfield_correction_untwisted(t),
        "twistor-direction-recovered":
            direction_from_spinor_family(twistor_period(t, zeta)) - direction_X(t),
        "interpolation-direction-recovered":
            direction_from_spinor_family(gualtieri_spinor_class(t, zeta)) - direction_Y(t),
    }
