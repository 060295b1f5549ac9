"""Lattice-level data of the two deformation families.

For each real parameter ``t > 1`` the twistor family deforms the
elliptic surface in a direction ``u_t`` inside the polyvector classes,
while the interpolation family deforms the dual fibration in a
direction ``v_t``.  The Todd-twisted transform carries ``u_t`` to
``v_t`` up to the correction ``-(1/(2t)) * sigmabar``, an exact Laurent
identity in ``t``; the untwisted transform carries ``u_t`` to ``v_t``
on the nose.  Everything here is symbolic in ``t`` unless a numeric
value is supplied.

The identities about the families are rows of the check registry
(``bfield-correction``, ``kahler-arithmetic`` and ``direction-lattice``),
each computing its residual from the functions here at symbolic ``t``;
``gk3 families`` prints those records.
"""

from __future__ import annotations

from . import cohomology as coh
from .harmonic import HTClass, contract_sigma_inv, phi_ht, phi_t
from .scalar import Scalar


def direction_X(t) -> HTClass:
    """Deformation direction of the twistor family.

    Minus twice the polarizing class, pulled back through the
    contraction isomorphism: ``-(2/t)*sigma^-1*C -
    (2(t^2+1)/t)*sigma^-1*F``.
    """
    return contract_sigma_inv(coh.alpha_class(t)) * (-2)


def direction_Y(t) -> HTClass:
    """Deformation direction of the interpolation family.

    ``(1/2) * (-(1/t)*sigma^-1 + t*sigmabar)``.
    """
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
    return phi_t(direction_X(t)) - direction_Y(t)


def bfield_correction_untwisted(t) -> HTClass:
    """``phi_ht(u_t) - v_t``; vanishes identically."""
    return phi_ht(direction_X(t)) - direction_Y(t)


def direction_from_spinor_family(cls) -> HTClass:
    """Recover a deformation direction from its family of period classes.

    ``cls`` is the family's period (or spinor) class, symbolic in
    ``zeta``; the direction is minus the inverse contraction of its
    ``zeta`` coefficient.
    """
    return -contract_sigma_inv(cls.zeta_coefficient(1))
