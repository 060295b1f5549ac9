"""Complexified exterior algebra on the flat four-dimensional model.

The model carries coordinates ``(x1, y1, x2, y2)`` with complex
coordinates ``z_k = x_k + i*y_k``.  Forms are elements of the exterior
algebra on the one-forms ``dx1, dy1, dx2, dy2`` (16 coefficients),
stored sparsely by bitmask.  Coefficients are usually Gaussian
rationals; symbolic :class:`~gk3.scalar.Scalar` coefficients also work
for the operations that need them since only ring arithmetic is used.

Distinguished constant forms:

* ``omega_i = dx1^dy1 + dx2^dy2``
* ``sigma = dz1^dz2``, with ``omega_j``/``omega_k`` its real and
  imaginary parts
* ``volume = dx1^dy1^dx2^dy2``; note ``sigma^sigmabar = 4*volume``.

The Clifford action of a tangent vector plus one-form on a spinor is
``(X + xi) . rho = iota_X rho + xi ^ rho``, with the interior product
the antiderivation dual to the coordinate one-forms.  Annihilators are
computed as exact null spaces; coordinates on ``(T + T*) (x) C`` are
ordered tangent-first: ``(dx1*, dy1*, dx2*, dy2*, dx1, dy1, dx2, dy2)``.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import CMatrix, Subspace, kernel
from .scalar import GR_I, GR_ONE, GR_ZERO, GaussRational, PoleAtSample, as_coefficient

NFORMS = 4
FORM_NAMES = ("dx1", "dy1", "dx2", "dy2")


class WrongDegree(ValueError):
    """Form does not have the degree the operation requires."""


class ZeroSpinor(ValueError):
    """The zero spinor has no annihilator line."""


def _wedge_sign(m1: int, m2: int) -> int:
    # Sign from moving each generator of m2 past the generators of m1
    # that sit above it.
    sign = 1
    for j in range(NFORMS):
        if m2 & (1 << j):
            higher = m1 >> (j + 1)
            if bin(higher).count("1") % 2:
                sign = -sign
    return sign


class Spinor:
    """Sparse element of the exterior algebra on four one-forms."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def scalar(cls, c) -> "Spinor":
        return cls({0: as_coefficient(c)})

    @classmethod
    def one_form(cls, k: int) -> "Spinor":
        return cls({1 << k: GR_ONE})

    @classmethod
    def zero(cls) -> "Spinor":
        return cls()

    def coefficient(self, mask: int):
        return self.terms.get(mask, GR_ZERO)

    def __add__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, GR_ZERO) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Spinor(terms)

    def __sub__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Spinor({m: -c for m, c in self.terms.items()})

    def __mul__(self, c):
        c = as_coefficient(c)
        return Spinor({m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: "Spinor") -> "Spinor":
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                c = c1 * c2 * _wedge_sign(m1, m2)
                s = terms.get(m, GR_ZERO) + c
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Spinor(terms)

    def interior(self, k: int) -> "Spinor":
        """Interior product with the tangent vector dual to one-form ``k``."""
        terms = {}
        bit = 1 << k
        for m, c in self.terms.items():
            if not (m & bit):
                continue
            below = m & (bit - 1)
            sign = -1 if bin(below).count("1") % 2 else 1
            terms[m ^ bit] = c * sign
        return Spinor(terms)

    def conj(self) -> "Spinor":
        return Spinor({m: c.conj() for m, c in self.terms.items()})

    def is_homogeneous(self, d: int) -> bool:
        return all(bin(m).count("1") == d for m in self.terms)

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


DX1, DY1, DX2, DY2 = (Spinor.one_form(k) for k in range(4))


def omega_i() -> Spinor:
    return DX1.wedge(DY1) + DX2.wedge(DY2)


def sigma() -> Spinor:
    """``dz1 ^ dz2`` with ``dz_k = dx_k + i dy_k``."""
    dz1 = DX1 + DY1 * GR_I
    dz2 = DX2 + DY2 * GR_I
    return dz1.wedge(dz2)


def sigmabar() -> Spinor:
    return sigma().conj()


def omega_j() -> Spinor:
    return (sigma() + sigmabar()) * Fraction(1, 2)


def omega_k() -> Spinor:
    return (sigma() - sigmabar()) * GaussRational(0, Fraction(-1, 2))


def volume() -> Spinor:
    return DX1.wedge(DY1).wedge(DX2).wedge(DY2)


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
    form = sigma() * (t / (2 * zeta)) - sigmabar() * (zeta * t / 2)
    b = (form + form.conj()) * Fraction(1, 2)
    om = (form - form.conj()) * GaussRational(0, Fraction(-1, 2))
    return b, om


def family_spinor(zeta, t) -> Spinor:
    """Pure spinor ``s + 2*zeta*(1 - s*sbar/4) - zeta^2*sbar`` with ``s = t*sigma``.

    Works with sampled (GaussRational) or symbolic (Scalar) parameters,
    provided both are of the same kind.
    """
    st = sigma() * t
    stbar = sigmabar() * t
    middle = Spinor.scalar(1) - st.wedge(stbar) * Fraction(1, 4)
    return st + middle * (2 * zeta) - stbar * (zeta * zeta)


def family_spinor_infinity(t) -> Spinor:
    """The spinor of the family's chart at infinity: ``t*sigmabar``."""
    return sigmabar() * t


def clifford_annihilator(rho: Spinor) -> Subspace:
    """Space of ``X + xi`` with ``iota_X rho + xi ^ rho = 0``.

    Solved as an exact 16-equation linear system in 8 unknowns;
    requires sampled (GaussRational) coefficients.
    """
    if not rho:
        raise ZeroSpinor("annihilator of the zero spinor is everything")
    columns = []
    for k in range(4):
        columns.append(rho.interior(k))
    for k in range(4):
        columns.append(Spinor.one_form(k).wedge(rho))
    system = CMatrix(
        [[col.coefficient(mask) for col in columns] for mask in range(16)]
    )
    return kernel(system)
