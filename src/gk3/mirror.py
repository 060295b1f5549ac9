"""Lattice-level mirror map on K3 period/Kaehler data.

The map acts on triples (marked surface, complexified Kaehler class,
period class) relative to a hyperbolic-plane frame with generators
``f`` and ``c`` satisfying ``f.f = 0``, ``c.c = -2``, ``f.c = 1`` (here
the fibre and section classes).  Writing ``n = f . Re(period)``, the
mirror data satisfies, modulo ``f``:

    mirror period           =  n^-1 * (c + kahler)
    mirror Kaehler class    =  n^-1 * period - c

Congruence classes modulo ``f`` are canonicalized by zeroing the
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
    """``f . Re(period)`` vanishes; the mirror map is undefined."""


class HyperbolicFrame:
    """Pair of classes spanning a hyperbolic plane in degree two."""

    __slots__ = ("fclass", "cclass")

    def __init__(self, fclass: CohClass, cclass: CohClass):
        if mukai_pairing(fclass, fclass) != Scalar.zero():
            raise ValueError("fclass must have square zero")
        if mukai_pairing(cclass, cclass) != Scalar.from_value(-2):
            raise ValueError("cclass must have square -2")
        if mukai_pairing(fclass, cclass) != Scalar.one():
            raise ValueError("fclass and cclass must pair to 1")
        self.fclass = fclass
        self.cclass = cclass

    @classmethod
    def unchecked(cls, fclass: CohClass, cclass: CohClass) -> "HyperbolicFrame":
        """Skip the invariant checks; for deliberately invalid frames."""
        frame = object.__new__(cls)
        frame.fclass = fclass
        frame.cclass = cclass
        return frame


def standard_frame() -> HyperbolicFrame:
    return HyperbolicFrame(cohomology.F, cohomology.C)


class MirrorTriple:
    """Period and/or complexified Kaehler data of a marked surface.

    Either slot may be ``None``; a present period must have vanishing
    self-intersection.
    """

    __slots__ = ("period", "complexified_kahler")

    def __init__(self, period=None, complexified_kahler=None):
        if period is not None and wedge(period, period):
            raise ValueError("period class must have vanishing self-intersection")
        self.period = period
        self.complexified_kahler = complexified_kahler

    @classmethod
    def _mod_f_representative(cls, period, complexified_kahler) -> "MirrorTriple":
        # Mirror outputs hold canonical mod-F representatives; the
        # period congruence class contains a square-zero representative
        # but the zeroed-F one generally is not it, so skip the check.
        triple = object.__new__(cls)
        triple.period = period
        triple.complexified_kahler = complexified_kahler
        return triple


def _mod_f(x: CohClass) -> CohClass:
    """Canonical representative modulo the fibre class: F-coefficient zero."""
    return CohClass(a=x.a, cC=x.cC, cF=0, cs=x.cs, csb=x.csb, b=x.b)


def gross_mirror(tr: MirrorTriple, frame: HyperbolicFrame) -> MirrorTriple:
    """Apply the mirror map; outputs are canonical mod-F representatives.

    ``f . Re(period)`` must be a unit: zero raises :class:`DegeneratePeriod`,
    a non-unit :class:`~gk3.scalar.NonUnitDivisor` (an ``ArithmeticError``).
    """
    if tr.period is None:
        raise DegeneratePeriod("mirror map needs a period class on the input")
    n = mukai_pairing(frame.fclass, real_part(tr.period))
    if not n:
        raise DegeneratePeriod("fibre class pairs to zero with Re(period)")
    n_inv = n.unit_inverse()
    kahler = _mod_f(tr.period * n_inv - frame.cclass)
    period = None
    if tr.complexified_kahler is not None:
        period = _mod_f((frame.cclass + tr.complexified_kahler) * n_inv)
    return MirrorTriple._mod_f_representative(period, kahler)


def normalize_mod_F(classes, frame: HyperbolicFrame):
    """Fix the mod-F ambiguity of ``(B, omega, Re sigma, Im sigma)``.

    Adds a multiple of the fibre class to each input so that the three
    geometric classes have equal squares and pairwise vanishing
    products.  Since ``f.f = 0`` those constraints are six linear
    equations over the Laurent ring in the three multipliers, solved by
    :func:`gk3.linalg.solve` with monomial pivots; raises
    :class:`~gk3.linalg.NoUniqueSolution` when they have no unique
    solution that way, or none at all.  The B-field class genuinely
    lives modulo the fibre class, so its multiplier is fixed by
    canonicalization (zero F-coefficient) rather than by a pairing.
    """
    b, omega, re_sigma, im_sigma = classes
    f = frame.fclass
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
        omega + cohomology.F * lam_w,
        re_sigma + cohomology.F * lam_r,
        im_sigma + cohomology.F * lam_m,
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


def verify_theorem4(t, zeta, frame: HyperbolicFrame | None = None) -> bool:
    """Check that the two families are mirror partners.

    Builds the normalized twistor period, applies the mirror map with
    the given frame, and compares the resulting complexified Kaehler
    class against the interpolation family's class modulo the fibre
    class.  With symbolic ``t`` and ``zeta`` this is an exact identity
    in the Laurent ring.
    """
    if frame is None:
        frame = standard_frame()
    period = normalized_twistor_period(t, zeta)
    mirrored = gross_mirror(MirrorTriple(period=period), frame)
    return mirrored.complexified_kahler == _mod_f(mirror_target(t, zeta))
