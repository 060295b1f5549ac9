"""Complexified exterior algebra on the flat four-dimensional model.

The model carries coordinates ``(x1, y1, x2, y2)`` with complex
coordinates ``z_k = x_k + i*y_k``.  Forms are elements of the exterior
algebra on the one-forms ``dx1, dy1, dx2, dy2`` (16 coefficients),
stored sparsely by bitmask.  Coefficients are usually Gaussian
rationals; symbolic :class:`~gk3.scalar.Scalar` coefficients work for
the ring operations, but :func:`clifford_annihilator`, a kernel over
Q(i), needs Gaussian ones and raises ``TypeError`` on any other.

Distinguished constant forms, each one value built at import:

* ``OMEGA_I = dx1^dy1 + dx2^dy2``
* ``SIGMA = dz1^dz2`` and its conjugate ``SIGMABAR``, with ``OMEGA_J``
  and ``OMEGA_K`` the real and imaginary parts of ``SIGMA``
* ``VOLUME = dx1^dy1^dx2^dy2``; note ``SIGMA^SIGMABAR = 4*VOLUME``.

These and the one-forms ``DX1, DY1, DX2, DY2`` are shared by every
caller, so no operation changes a spinor's ``terms`` in place: each
builds a new spinor through the constructor.

The Clifford action of a tangent vector plus one-form on a spinor is
``(X + xi) . rho = iota_X rho + xi ^ rho``, with the interior product
the antiderivation dual to the coordinate one-forms.  Annihilators are
computed as exact null spaces; coordinates on ``(T + T*) (x) C`` are
ordered tangent-first: ``(dx1*, dy1*, dx2*, dy2*, dx1, dy1, dx2, dy2)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .linalg import CMatrix, Subspace, kernel
from .scalar import GR_I, GR_ONE, GR_ZERO, GaussRational, PoleAtSample, as_coefficient

NFORMS = 4
FORM_NAMES = ("dx1", "dy1", "dx2", "dy2")


class WrongDegree(ValueError):
    """Form does not have the degree the operation requires."""


class ZeroSpinor(ValueError):
    """The zero spinor has no annihilator line."""


#: ``_WEDGE_SIGN[m1][m2]`` is the sign of ``e_m1 ^ e_m2`` against
#: ``e_(m1|m2)``, one factor -1 for each generator of ``m2`` moved past a
#: generator of ``m1`` above it; 0 when the masks share a generator.
_WEDGE_SIGN = tuple(
    tuple(
        0 if m1 & m2
        else (-1) ** sum((m1 >> (j + 1)).bit_count() for j in range(NFORMS) if m2 >> j & 1)
        for m2 in range(1 << NFORMS)
    )
    for m1 in range(1 << NFORMS)
)


def _front(bit, m, c):
    """``c`` times the sign of ``e_bit ^ e_m``, and of ``iota_bit e_(bit|m)``."""
    return c if _WEDGE_SIGN[bit][m] > 0 else -c


class Spinor:
    """Sparse element of the exterior algebra on four one-forms.

    Built from a ``{mask: coefficient}`` map or from ``(mask,
    coefficient)`` pairs, which the constructor sums by mask; it drops
    the zero coefficients, and every operation builds its result
    through it.
    """

    __slots__ = ("terms",)

    def __init__(self, pairs=()):
        if not isinstance(pairs, dict):
            terms = {}
            for m, c in pairs:
                terms[m] = terms[m] + c if m in terms else c
            pairs = terms
        self.terms = {m: c for m, c in pairs.items() if c}

    @classmethod
    def scalar(cls, c) -> "Spinor":
        return cls({0: as_coefficient(c)})

    @classmethod
    def one_form(cls, k: int) -> "Spinor":
        return cls({1 << k: GR_ONE})

    @classmethod
    def zero(cls) -> "Spinor":
        return cls()

    def __add__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        return Spinor(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        return Spinor(chain(self.terms.items(), ((m, -c) for m, c in other.terms.items())))

    def __neg__(self):
        return Spinor({m: -c for m, c in self.terms.items()})

    def __mul__(self, c):
        c = as_coefficient(c)
        return Spinor({m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: "Spinor") -> "Spinor":
        return Spinor(
            (m1 | m2, c1 * c2 if sign > 0 else -(c1 * c2))
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
            if (sign := _WEDGE_SIGN[m1][m2])
        )

    def interior(self, k: int) -> "Spinor":
        """Interior product with the tangent vector dual to one-form ``k``."""
        bit = 1 << k
        return Spinor({m ^ bit: _front(bit, m ^ bit, c) for m, c in self.terms.items() if m & bit})

    def conj(self) -> "Spinor":
        return Spinor({m: c.conj() for m, c in self.terms.items()})

    def is_homogeneous(self, d: int) -> bool:
        return all(m.bit_count() == d for m in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            names = [FORM_NAMES[k] for k in range(NFORMS) if m & (1 << k)]
            mono = "^".join(names) if names else "1"
            parts.append(f"({self.terms[m]})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Spinor<{self}>"


DX1, DY1, DX2, DY2 = (Spinor.one_form(k) for k in range(NFORMS))

OMEGA_I = DX1.wedge(DY1) + DX2.wedge(DY2)
#: ``dz1 ^ dz2`` with ``dz_k = dx_k + i dy_k``.
SIGMA = (DX1 + DY1 * GR_I).wedge(DX2 + DY2 * GR_I)
SIGMABAR = SIGMA.conj()
OMEGA_J = (SIGMA + SIGMABAR) * Fraction(1, 2)
OMEGA_K = (SIGMA - SIGMABAR) * GaussRational(0, Fraction(-1, 2))
VOLUME = DX1.wedge(DY1).wedge(DX2).wedge(DY2)


def exp_two_form(B: Spinor) -> Spinor:
    """``1 + B + (1/2) B^B`` for a degree-two form; exact, as B^B^B = 0."""
    if not B.is_homogeneous(2):
        raise WrongDegree("exponential argument must be homogeneous of degree 2")
    return Spinor.scalar(1) + B + B.wedge(B) * Fraction(1, 2)


def bfield_symplectic_data(zeta, t) -> tuple[Spinor, Spinor]:
    """Two-form data ``(B, omega)`` of the interpolation family member.

    Splits ``B + i*omega = t*sigma/(2 zeta) - zeta*t*sigmabar/2`` into
    real and imaginary parts; both outputs are real two-forms.  The
    parameters are samples or the symbols ``Scalar.zeta()`` and
    ``Scalar.t()``; a sampled ``zeta = 0`` raises ``PoleAtSample``.
    """
    if not zeta:
        raise PoleAtSample("the B-field/symplectic split has a pole at zeta = 0")
    form = SIGMA * (t / (2 * zeta)) - SIGMABAR * (zeta * t / 2)
    b = (form + form.conj()) * Fraction(1, 2)
    om = (form - form.conj()) * GaussRational(0, Fraction(-1, 2))
    return b, om


def family_spinor(zeta, t) -> Spinor:
    """Pure spinor ``s + 2*zeta*(1 - s*sbar/4) - zeta^2*sbar`` with ``s = t*sigma``.

    Works with sampled (GaussRational) or symbolic (Scalar) parameters,
    provided both are of the same kind.
    """
    st = SIGMA * t
    stbar = SIGMABAR * t
    middle = Spinor.scalar(1) - st.wedge(stbar) * Fraction(1, 4)
    return st + middle * (2 * zeta) - stbar * (zeta * zeta)


def family_spinor_infinity(t) -> Spinor:
    """The spinor of the family's chart at infinity: ``t*sigmabar``."""
    return SIGMABAR * t


def clifford_annihilator(rho: Spinor) -> Subspace:
    """Space of ``X + xi`` with ``iota_X rho + xi ^ rho = 0``.

    The kernel of a system read off the terms of ``rho``: a term ``(m, c)``
    puts ``+-c`` at row ``m ^ bit`` of column ``k`` if ``m`` holds ``bit = 1 << k``
    (the interior product), else at row ``m | bit`` of column ``4 + k`` (the
    wedge).  Zero rows, such as the even masks' for an even spinor, are dropped.
    """
    if not rho:
        raise ZeroSpinor("annihilator of the zero spinor is everything")
    system = [[GR_ZERO] * (2 * NFORMS) for _ in range(1 << NFORMS)]
    for m, c in rho.terms.items():
        for k in range(NFORMS):
            bit = 1 << k
            row, col = (m ^ bit, k) if m & bit else (m | bit, NFORMS + k)
            system[row][col] = _front(bit, m & ~bit, as_coefficient(c))
    return kernel(CMatrix._of([row for row in system if any(row)]))
