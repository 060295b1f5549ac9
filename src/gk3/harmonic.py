"""Polyvector-side degree-two classes and the induced transform maps.

The degree-two polyvector cohomology of the K3 is spanned by four
elements: ``sigma^-1`` (the bivector inverting the holomorphic
two-form), ``sigma^-1*C`` and ``sigma^-1*F`` (the images of the section
and fibre classes under the bundle isomorphism induced by ``sigma``),
and ``sigmabar``.

Contraction against ``sigma`` identifies this space with the span of
``{1, C, F, eta}`` inside even cohomology:

    sigma^-1   -> 4*1        sigma^-1*C -> C
    sigmabar   -> 4*eta      sigma^-1*F -> F

The transform on polyvectors, ``phi_ht``, is *computed* by conjugating
the even-cohomology transform with this contraction, and ``phi_t`` is
its twist by the square root of the Todd class.  Closed-form tables for
both maps are known; the test suite checks that the compositions here
reproduce them on every basis vector.
"""

from __future__ import annotations

from .cohomology import BasisClass, CohClass
from .scalar import Scalar


class NotInImage(ValueError):
    """Input has sigma/sigmabar components, outside the contraction image."""


class HTClass(BasisClass):
    """Element ``p*sigma^-1 + qC*sigma^-1*C + qF*sigma^-1*F + r*sigmabar``."""

    __slots__ = ("p", "qC", "qF", "r")
    NAMES = ("sigma^-1", "sigma^-1*C", "sigma^-1*F", "sigmabar")

    def __init__(self, p=0, qC=0, qF=0, r=0):
        self.p = Scalar.from_value(p)
        self.qC = Scalar.from_value(qC)
        self.qF = Scalar.from_value(qF)
        self.r = Scalar.from_value(r)

    def components(self):
        return (self.p, self.qC, self.qF, self.r)


SIGMA_INV = HTClass(p=1)
SIGMA_INV_C = HTClass(qC=1)
SIGMA_INV_F = HTClass(qF=1)
SIGMABAR = HTClass(r=1)


def contract_sigma(x: HTClass) -> CohClass:
    """Contraction against the holomorphic two-form."""
    return CohClass(a=x.p * 4, cC=x.qC, cF=x.qF, b=x.r * 4)


def contract_sigma_inv(x: CohClass) -> HTClass:
    """Inverse of :func:`contract_sigma` on the span of ``{1, C, F, eta}``."""
    if x.cs or x.csb:
        raise NotInImage(
            "class has sigma/sigmabar components and is not a contraction image"
        )
    quarter = Scalar.monomial("1/4")
    return HTClass(p=quarter * x.a, qC=x.cC, qF=x.cF, r=quarter * x.b)


def phi_homega(x: CohClass) -> CohClass:
    """Even-cohomology transform from the elliptic surface to its dual.

    Basis action: ``1 -> -C - F``, ``eta -> F``, ``C -> 1 + eta``,
    ``F -> -eta``, and ``sigma``, ``sigmabar`` map to the equally named
    generators on the dual side.
    """
    return CohClass(
        a=x.cC,
        cC=-x.a,
        cF=-x.a + x.b,
        cs=x.cs,
        csb=x.csb,
        b=x.cC - x.cF,
    )


def phi_ht(x: HTClass) -> HTClass:
    """Polyvector transform: conjugate of phi_homega by the contraction.

    The intermediate class always stays inside the contraction image,
    so this never raises on genuine polyvector input.
    """
    return contract_sigma_inv(phi_homega(contract_sigma(x)))


def todd_contract(x: HTClass, sign: int) -> HTClass:
    """Multiply by ``1 +/- eta`` in the polyvector module structure.

    ``eta`` lowers the polyvector degree by two while raising form
    degree, so it sends ``sigma^-1`` to ``sigmabar`` and kills the
    other three generators.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return HTClass(p=x.p, qC=x.qC, qF=x.qF, r=x.r + sign * x.p)


def phi_t(x: HTClass) -> HTClass:
    """Todd-twisted polyvector transform."""
    return todd_contract(phi_ht(todd_contract(x, -1)), +1)


#: The three transform maps exposed on the command line, each a
#: relabeling from the elliptic surface ("X side") to its dual
#: fibration ("Y side").
TRANSFORMS = {
    "phiOmega": (phi_homega, CohClass, "even cohomology, X side to Y side"),
    "phiHT": (phi_ht, HTClass, "polyvector classes, X side to Y side"),
    "phiT": (phi_t, HTClass, "Todd-twisted polyvector classes, X side to Y side"),
}
