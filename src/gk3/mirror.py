"""Lattice-level mirror map on K3 period/Kaehler data.

The map acts on a period class and, optionally, a complexified Kaehler
class, relative to the hyperbolic plane spanned by the fibre class
``F`` and the section class ``C`` (``F.F = 0``, ``C.C = -2``,
``F.C = 1``).  Writing ``n = F . Re(period)``, the mirror data
satisfies, modulo ``F``:

    mirror period           =  n^-1 * (C + kahler)
    mirror Kaehler class    =  n^-1 * period - C

Congruence classes modulo ``F`` are canonicalized by zeroing the
``F``-coefficient.  Real and imaginary parts are taken with the formal
conjugation (``zeta <-> zetabar``), so the verification of the mirror
relationship between the two families is an exact identity in the
Laurent ring rather than a sampled check.
"""

from __future__ import annotations

from . import cohomology
from .cohomology import CohClass, mukai_pairing, real_part, wedge
from .linalg import CMatrix, solve
from .scalar import Scalar, as_scalar


class DegeneratePeriod(ValueError):
    """``F . Re(period)`` vanishes; the mirror map is undefined."""


def _mod_f(x: CohClass) -> CohClass:
    """Canonical representative modulo the fibre class: F-coefficient zero."""
    return CohClass(a=x.a, cC=x.cC, cF=0, cs=x.cs, csb=x.csb, b=x.b)


def gross_mirror(period: CohClass, kahler: CohClass | None = None):
    """Apply the mirror map: ``(mirror_kahler, mirror_period)``.

    Both outputs are canonical mod-F representatives; ``mirror_period``
    is ``None`` when no complexified Kaehler class is given.  The period
    must square to zero (else ``ValueError``), and ``F . Re(period)``
    must be a unit: zero raises :class:`DegeneratePeriod`, a non-unit
    :class:`~gk3.scalar.NonUnitDivisor` (an ``ArithmeticError``).
    """
    if wedge(period, period):
        raise ValueError("period class must have vanishing self-intersection")
    n = mukai_pairing(cohomology.F, real_part(period))
    if not n:
        raise DegeneratePeriod("fibre class pairs to zero with Re(period)")
    n_inv = n.unit_inverse()
    mirror_kahler = _mod_f(period * n_inv - cohomology.C)
    mirror_period = None if kahler is None else _mod_f((cohomology.C + kahler) * n_inv)
    return mirror_kahler, mirror_period


def normalize_mod_F(classes):
    """Fix the mod-F ambiguity of ``(B, omega, Re sigma, Im sigma)``.

    Adds a multiple of the fibre class to each input so that the three
    geometric classes have equal squares and pairwise vanishing
    products.  Since ``F.F = 0`` those constraints are six linear
    equations over the Laurent ring in the three multipliers, solved by
    :func:`gk3.linalg.solve` with monomial pivots; raises
    :class:`~gk3.linalg.NoUniqueSolution` when they have no unique
    solution that way, or none at all.  The B-field class genuinely
    lives modulo the fibre class, so its multiplier is fixed by
    canonicalization (zero F-coefficient) rather than by a pairing.
    """
    b, omega, re_sigma, im_sigma = classes
    f = cohomology.F
    mu = mukai_pairing
    two = Scalar.from_value(2)
    zero = Scalar.zero()

    fw = mu(f, omega)
    fr = mu(f, re_sigma)
    fm = mu(f, im_sigma)
    w2 = mu(omega, omega)
    r2 = mu(re_sigma, re_sigma)
    m2 = mu(im_sigma, im_sigma)

    # Unknowns: multipliers for (omega, Re sigma, Im sigma).
    system = CMatrix([
        [zero, two * fr, -(two * fm)],   # Re^2 = Im^2
        [-(two * fw), zero, two * fm],   # Im^2 = omega^2
        [-(two * fw), two * fr, zero],   # Re^2 = omega^2
        [fr, fw, zero],                  # omega . Re = 0
        [fm, zero, fw],                  # omega . Im = 0
        [zero, fm, fr],                  # Re . Im = 0
    ])
    rhs = [m2 - r2, w2 - m2, w2 - r2,
           -mu(omega, re_sigma), -mu(omega, im_sigma), -mu(re_sigma, im_sigma)]
    lam_w, lam_r, lam_m = solve(system, rhs)
    return (
        _mod_f(b),
        omega + f * lam_w,
        re_sigma + f * lam_r,
        im_sigma + f * lam_m,
    )


def mirror_target(t, zeta) -> CohClass:
    """The interpolation family's complexified Kaehler class.

    ``t*sigma/(2*zeta) - zeta*t*sigmabar/2``, written on the dual side.
    """
    t = as_scalar(t)
    z = as_scalar(zeta)
    half = Scalar.monomial("1/2")
    return cohomology.SIGMA * (half * t / z) - cohomology.SIGMABAR * (half * t * z)


def normalized_twistor_period(t, zeta) -> CohClass:
    """Twistor period scaled by ``1/(2*zeta)`` so its fibre pairing is real."""
    t = as_scalar(t)
    z = as_scalar(zeta)
    return cohomology.twistor_period(t, z) * (Scalar.monomial("1/2") / z)


def verify_theorem4(t, zeta) -> bool:
    """Check that the two families are mirror partners.

    Builds the normalized twistor period, applies the mirror map, and
    compares the resulting complexified Kaehler class against the
    interpolation family's class modulo the fibre class.  With symbolic
    ``t`` and ``zeta`` this is an exact identity in the Laurent ring.
    """
    mirror_kahler, _ = gross_mirror(normalized_twistor_period(t, zeta))
    return mirror_kahler == _mod_f(mirror_target(t, zeta))
