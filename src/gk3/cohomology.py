"""Even cohomology of an elliptic K3 surface with a section.

Classes live in the span of six generators:

* ``1`` and ``eta``, the degree-0 and degree-4 generators,
* ``C`` (section) and ``F`` (fibre) with intersection numbers
  ``C.C = -2``, ``C.F = 1``, ``F.F = 0``,
* ``sigma`` and ``sigmabar``, a holomorphic two-form and its conjugate,
  normalized so that ``sigma*sigmabar = 4*eta``.

The dual fibration has structurally identical cohomology, so one
representation serves both sides; the transform maps in
:mod:`gk3.harmonic` are the relabelings from one side to the other.

:class:`BasisClass` implements the arithmetic, comparison and printing
that :class:`CohClass` shares with :class:`~gk3.harmonic.HTClass`; each
class names its basis once, in ``NAMES``, which printing and
:mod:`gk3.parser` both read.

The Mukai pairing of ``(a, v, b)`` and ``(a', v', b')`` is
``Q(v, v') - a*b' - a'*b`` where ``Q`` is the symmetric intersection
form on degree two.  With this sign the transform on even cohomology
is an isometry, which the test suite checks on all basis pairs.  Both
forms are constant tables of weighted terms, one tuple of terms per
component, and each form is evaluated in one pass, as one call of the
bilinear kernel :func:`~gk3.scalar._bilinear`.
"""

from __future__ import annotations

from .scalar import Scalar, _bilinear


def _factor(c) -> str:
    """The coefficient ``c`` in parentheses, as a factor of a product.

    A complex constant already prints as one parenthesized group, such
    as ``(1+2*i)``, and gets no second pair.
    """
    text = str(c)
    if text.startswith("(") and text.index(")") == len(text) - 1:
        return text
    return f"({text})"


class BasisClass:
    """Scalar combination of a named basis, with the shared arithmetic.

    A subclass names its basis in ``NAMES`` and gives its coefficients
    in that order from ``components()`` and to its constructor.  Classes
    of different kinds never add or compare equal.
    """

    __slots__ = ()
    NAMES: tuple = ()

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(*(x + y for x, y in zip(self.components(), other.components())))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(*(x - y for x, y in zip(self.components(), other.components())))

    def __neg__(self):
        return type(self)(*(-x for x in self.components()))

    def __mul__(self, scalar):
        s = Scalar.from_value(scalar)
        return type(self)(*(x * s for x in self.components()))

    __rmul__ = __mul__

    def zeta_coefficient(self, k: int):
        return type(self)(*(x.zeta_coefficient(k) for x in self.components()))

    def __bool__(self):
        return any(self.components())

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.components() == other.components()

    def __str__(self):
        parts = [f"{_factor(c)}*{n}" for c, n in zip(self.components(), self.NAMES) if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"{type(self).__name__}<{self}>"


class CohClass(BasisClass):
    """Element ``a*1 + cC*C + cF*F + cs*sigma + csb*sigmabar + b*eta``.

    All six coefficients are :class:`~gk3.scalar.Scalar` values, so a
    single class can carry symbolic dependence on ``t`` and ``zeta``.
    """

    __slots__ = ("a", "cC", "cF", "cs", "csb", "b")
    NAMES = ("one", "C", "F", "sigma", "sigmabar", "eta")

    def __init__(self, a=0, cC=0, cF=0, cs=0, csb=0, b=0):
        self.a = Scalar.from_value(a)
        self.cC = Scalar.from_value(cC)
        self.cF = Scalar.from_value(cF)
        self.cs = Scalar.from_value(cs)
        self.csb = Scalar.from_value(csb)
        self.b = Scalar.from_value(b)

    def components(self):
        return (self.a, self.cC, self.cF, self.cs, self.csb, self.b)

    def conj(self) -> "CohClass":
        """Conjugate all coefficients and swap the sigma/sigmabar slots."""
        return CohClass(
            a=self.a.conj(),
            cC=self.cC.conj(),
            cF=self.cF.conj(),
            cs=self.csb.conj(),
            csb=self.cs.conj(),
            b=self.b.conj(),
        )

    def wedge(self, other: "CohClass") -> "CohClass":
        return wedge(self, other)


ONE = CohClass(a=1)
C = CohClass(cC=1)
F = CohClass(cF=1)
SIGMA = CohClass(cs=1)
SIGMABAR = CohClass(csb=1)
ETA = CohClass(b=1)


# the component indices of CohClass.components()
_A, _C, _F, _S, _SB, _B = range(6)

# Rows (c, i, j) of c * x[i] * y[j]: the symmetric form Q on degree two, with
# Q(C,C) = -2, Q(C,F) = 1, Q(sigma, sigmabar) = 4 and zero otherwise; then the
# tables of _bilinear, one tuple of rows per output, of the cup product
# truncated to degree four and of the pairing Q(v, v') - a*b' - a'*b.
_Q = ((-2, _C, _C), (1, _C, _F), (1, _F, _C), (4, _S, _SB), (4, _SB, _S))
_WEDGE = (
    ((1, _A, _A),),
    ((1, _A, _C), (1, _C, _A)),
    ((1, _A, _F), (1, _F, _A)),
    ((1, _A, _S), (1, _S, _A)),
    ((1, _A, _SB), (1, _SB, _A)),
    ((1, _A, _B), (1, _B, _A), *_Q),
)
_MUKAI = ((*_Q, (-1, _A, _B), (-1, _B, _A)),)


def wedge(x: CohClass, y: CohClass) -> CohClass:
    """Cup product truncated to even degree at most four."""
    out = object.__new__(CohClass)
    out.a, out.cC, out.cF, out.cs, out.csb, out.b = _bilinear(
        _WEDGE, x.components(), y.components())
    return out


def mukai_pairing(x: CohClass, y: CohClass) -> Scalar:
    """``<(a,v,b), (a',v',b')> = Q(v,v') - a*b' - a'*b``."""
    return _bilinear(_MUKAI, x.components(), y.components())[0]


def real_part(x: CohClass) -> CohClass:
    return (x + x.conj()) * Scalar.monomial("1/2")


def alpha_class(t) -> CohClass:
    """The polarizing degree-two class ``(1/t)*C + ((t^2+1)/t)*F``."""
    t = Scalar.from_value(t)
    return CohClass(cC=Scalar.one() / t, cF=(t * t + 1) / t)


def twistor_period(t, zeta) -> CohClass:
    """Period of the hyperkaehler rotation family through the polarized surface.

    ``sigma + 2*zeta*alpha(t) - zeta^2*sigmabar``; its self-intersection
    vanishes identically, as a period must.
    """
    return SIGMA + alpha_class(t) * (2 * zeta) - SIGMABAR * (zeta * zeta)


def gualtieri_spinor_class(t, zeta) -> CohClass:
    """Class of the interpolation family's pure spinor on the dual side.

    ``sigma + 2*zeta*((1/t)*1 - t*eta) - zeta^2*sigmabar``, using
    ``sigma*sigmabar = 4*eta`` to rewrite the middle term.
    """
    mid = CohClass(a=Scalar.one() / t, b=-t)
    return SIGMA + mid * (2 * zeta) - SIGMABAR * (zeta * zeta)
