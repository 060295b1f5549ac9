"""Exact coefficient arithmetic underlying every other module.

Two layers:

* ``GaussRational``: complex numbers with exact rational real and
  imaginary parts, the coefficient field for all classes.  A value is
  stored as three integers, ``(a + b*i)/d`` with ``d > 0`` and
  ``gcd(a, b, d) == 1``; arithmetic runs on the integers, with one gcd
  per result, and ``re``/``im`` convert to ``Fraction`` only on
  request.  Two fused kernels, a dot product and the elimination's row
  update ``x - f*y``, serve :mod:`gk3.linalg` on the same integers
  with one gcd per output entry.
* ``Scalar``: Laurent polynomials over the Gaussian rationals in three
  commuting variables, the real parameter ``t`` and the complex
  parameter ``zeta`` together with its formal conjugate ``zetabar``.
  Its sums and products are fused kernels on the same integers: ``+``,
  ``-`` and ``__rsub__`` merge two term maps (``_merge``) with one
  reduction per shared term, and the product is the one-term case of
  the Laurent sum of products ``sum(c*x*y)`` (:func:`sum_of_products`),
  which reduces each output coefficient once.  A term that cancels is dropped.

``zeta`` and ``zetabar`` are independent variables linked only through
the conjugation involution (which also conjugates coefficients and
fixes ``t``).  This makes real/imaginary decompositions of
``zeta``-dependent quantities exact symbolic operations; no absolute
values or square roots ever appear.

Division is deliberately restricted to single-term divisors, i.e. the
units of the Laurent ring.  Every inverse needed downstream (``1/t``,
``1/(2*zeta)``, ...) is of that shape.  Both types answer ``is_unit()``
and ``unit_inverse()``, so code that must invert a coefficient of
either kind asks the coefficient rather than testing its type; one
base class, ``_RingOps``, writes division and powers once for both in
those terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class NonUnitDivisor(ArithmeticError):
    """Raised when dividing by anything other than a nonzero monomial."""


class PoleAtSample(ArithmeticError):
    """Raised when a quantity is evaluated at one of its poles, such as a
    negative exponent at zero."""


def _rational(x):
    """``(numerator, denominator)`` of an int, a Fraction or a rational string."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {x!r} as a rational number")


class _RingOps:
    """The ring operators that need no fused kernel, shared by
    ``GaussRational`` and ``Scalar``: each is written against the
    class's own ``_coerce``, ``*``, ``-`` and ``unit_inverse``.
    ``Scalar`` keeps its own ``__rsub__``, a fused ``_merge``."""

    __slots__ = ()

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.unit_inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.unit_inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.unit_inverse() ** (-n)
        out = self._coerce(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


class GaussRational(_RingOps):
    """A complex number ``(a + b*i)/d`` with integers ``a``, ``b``, ``d``.

    Immutable value type with exact field arithmetic.  The stored form
    is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so two values are
    equal exactly when their integer triples are.  Each operation works
    on the integers and reduces its result with one ``math.gcd``.  The
    constructor takes the real and imaginary parts as ``int``,
    ``Fraction`` or ``str``, and :attr:`re` and :attr:`im` read them
    back as ``Fraction``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        (a, p), (b, q) = _rational(re), _rational(im)
        # over the least common denominator the triple is already reduced
        d = p * q // gcd(p, q)
        self._a = a * (d // p)
        self._b = b * (d // q)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussRational):
            return x
        if isinstance(x, int):
            return _from_reduced(x, 0, 1)
        if isinstance(x, Fraction):
            return _from_reduced(x.numerator, 0, x.denominator)
        return None

    def __add__(self, other):
        if type(other) is not GaussRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d, od = self._d, other._d
        if d == od:
            return _reduce(self._a + other._a, self._b + other._b, d)
        return _reduce(self._a * od + other._a * d, self._b * od + other._b * d, d * od)

    __radd__ = __add__

    def __neg__(self):
        return _from_reduced(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not GaussRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d, od = self._d, other._d
        if d == od:
            return _reduce(self._a - other._a, self._b - other._b, d)
        return _reduce(self._a * od - other._a * d, self._b * od - other._b * d, d * od)

    def __mul__(self, other):
        if type(other) is not GaussRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, oa, ob = self._a, self._b, other._a, other._b
        return _reduce(a * oa - b * ob, a * ob + b * oa, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self):
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        # 1/((a + b*i)/d) = (d*a - d*b*i)/(a^2 + b^2)
        return _reduce(d * a, -d * b, n)

    def unit_inverse(self):
        """Same as :meth:`inverse`; named as :meth:`Scalar.unit_inverse`."""
        return self.inverse()

    def conj(self):
        return _from_reduced(self._a, -self._b, self._d)

    def norm_sq(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def __bool__(self):
        return bool(self._a or self._b)

    # In a field every nonzero element is a unit.
    is_unit = __bool__

    def __eq__(self, other):
        if type(other) is not GaussRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if im == 1:
            im_text = "i"
        elif im == -1:
            im_text = "-i"
        else:
            im_text = f"{im}*i"
        if not re:
            return im_text
        sign = "+" if im > 0 else ""
        return f"{re}{sign}{im_text}"

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"


def _from_reduced(a, b, d):
    """The ``GaussRational`` ``(a + b*i)/d`` from a triple already in
    canonical form, skipping the constructor's parsing."""
    x = object.__new__(GaussRational)
    x._a, x._b, x._d = a, b, d
    return x


def _reduce(a, b, d):
    """The ``GaussRational`` ``(a + b*i)/d`` for any ``d > 0``."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _from_reduced(a, b, d)


# Fused kernels for the exact linear algebra and the Laurent sums and sum of
# products.  They work on the integer triples of their Gaussian-rational
# arguments and reduce each result once, not a GaussRational per term.

def _gauss_dot(row, col):
    """``sum(x * col[k] for k, x in row)`` for Gaussian rationals.

    ``row`` is a sparse row of ``(k, x)`` pairs and ``col`` is indexed
    by ``k``; a term whose ``col[k]`` is zero is skipped.  The term
    numerators accumulate over a running denominator, and the sum is
    reduced once.
    """
    sa = sb = 0
    sd = 1
    for k, x in row:
        y = col[k]
        ya, yb = y._a, y._b
        if ya or yb:
            xa, xb = x._a, x._b
            a = xa * ya - xb * yb
            b = xa * yb + xb * ya
            d = x._d * y._d
            if d == sd:
                sa += a
                sb += b
            else:
                sa = sa * d + a * sd
                sb = sb * d + b * sd
                sd *= d
    return _reduce(sa, sb, sd) if sa or sb else GR_ZERO


def _gauss_sub_scaled(xs, f, ys):
    """``[x - f*y for x, y in zip(xs, ys)]`` for Gaussian rationals, one
    reduction per entry; ``x`` itself where ``y`` is zero."""
    fa, fb, fd = f._a, f._b, f._d
    out = []
    for x, y in zip(xs, ys):
        ya, yb = y._a, y._b
        if ya or yb:
            pa = fa * ya - fb * yb
            pb = fa * yb + fb * ya
            pd = fd * y._d
            xd = x._d
            if xd == pd:
                a, b, d = x._a - pa, x._b - pb, pd
            else:
                a, b, d = x._a * pd - pa * xd, x._b * pd - pb * xd, xd * pd
            x = _reduce(a, b, d) if a or b else GR_ZERO
        out.append(x)
    return out


def _merge(xs, ys, sign):
    """The term map of ``xs + sign*ys`` for term maps of nonzero Gaussian
    rationals and ``sign`` 1 or -1: one reduction per shared key, and a
    shared key whose sum is zero is dropped."""
    terms = dict(xs)
    for k, y in ys.items():
        x = terms.get(k)
        if x is None:
            terms[k] = y if sign == 1 else -y
            continue
        ya, yb, yd = y._a * sign, y._b * sign, y._d
        xd = x._d
        if xd == yd:
            a, b, d = x._a + ya, x._b + yb, xd
        else:
            a, b, d = x._a * yd + ya * xd, x._b * yd + yb * xd, xd * yd
        if a or b:
            terms[k] = _reduce(a, b, d)
        else:
            del terms[k]
    return terms


def sum_of_products(terms) -> "Scalar":
    """``sum(c*x*y for c, x, y in terms)`` for ints ``c`` and Scalars ``x``, ``y``:
    each key's coefficient accumulates as integers ``(a, b, d)`` over a running
    denominator, as in ``_gauss_dot``, and is reduced once; a key that cancels is dropped."""
    sums = {}
    for c, x, y in terms:
        for (t1, z1, w1), u in x.terms.items():
            ua, ub, ud = u._a * c, u._b * c, u._d
            for (t2, z2, w2), v in y.terms.items():
                va, vb = v._a, v._b
                a = ua * va - ub * vb
                b = ua * vb + ub * va
                d = ud * v._d
                k = (t1 + t2, z1 + z2, w1 + w2)
                s = sums.get(k)
                if s is None:
                    sums[k] = a, b, d
                else:
                    sa, sb, sd = s
                    if sd == d:
                        sums[k] = sa + a, sb + b, d
                    else:
                        sums[k] = sa * d + a * sd, sb * d + b * sd, sd * d
    return Scalar._of({k: _reduce(a, b, d) for k, (a, b, d) in sums.items() if a or b})


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


class Scalar(_RingOps):
    """Laurent polynomial in ``t``, ``zeta``, ``zetabar``.

    Terms are stored as a map from exponent triples
    ``(e_t, e_zeta, e_zetabar)`` to nonzero ``GaussRational``
    coefficients; the empty map is zero.  Instances are treated as
    immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {k: v for k, v in terms.items() if v}

    @classmethod
    def _of(cls, terms) -> "Scalar":
        """The scalar of a term map that holds no zero coefficient, taken as
        it is; for results whose terms are already filtered."""
        x = object.__new__(cls)
        x.terms = terms
        return x

    # -- constructors ------------------------------------------------

    @classmethod
    def from_value(cls, x) -> "Scalar":
        """Coerce an int, Fraction, GaussRational, or Scalar."""
        if isinstance(x, Scalar):
            return x
        if isinstance(x, GaussRational):
            return cls({(0, 0, 0): x})
        if isinstance(x, (int, Fraction)):
            return cls({(0, 0, 0): GaussRational(x)})
        raise TypeError(f"cannot interpret {x!r} as a Scalar")

    @classmethod
    def monomial(cls, coeff, e_t=0, e_zeta=0, e_zetabar=0) -> "Scalar":
        c = coeff if isinstance(coeff, GaussRational) else GaussRational(coeff)
        return cls({(e_t, e_zeta, e_zetabar): c})

    @classmethod
    def zero(cls) -> "Scalar":
        return cls()

    @classmethod
    def one(cls) -> "Scalar":
        return cls.monomial(1)

    @classmethod
    def i(cls) -> "Scalar":
        return cls.monomial(GR_I)

    @classmethod
    def t(cls) -> "Scalar":
        return cls.monomial(1, e_t=1)

    @classmethod
    def zeta(cls) -> "Scalar":
        return cls.monomial(1, e_zeta=1)

    @classmethod
    def zetabar(cls) -> "Scalar":
        return cls.monomial(1, e_zetabar=1)

    # -- ring operations ---------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction, GaussRational)):
            return Scalar.from_value(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar._of(_merge(self.terms, o.terms, 1))

    __radd__ = __add__

    def __neg__(self):
        return Scalar._of({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar._of(_merge(self.terms, o.terms, -1))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar._of(_merge(o.terms, self.terms, -1))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.terms and o.terms):
            return Scalar._of({})
        return sum_of_products(((1, self, o),))

    __rmul__ = __mul__

    def unit_inverse(self) -> "Scalar":
        """Inverse of a monomial; raises ``NonUnitDivisor`` otherwise."""
        if len(self.terms) != 1:
            raise NonUnitDivisor(
                f"divisor must be a single nonzero monomial, got {self}"
            )
        ((a, b, c), v), = self.terms.items()
        return Scalar._of({(-a, -b, -c): v.inverse()})

    # -- structure ----------------------------------------------------

    def conj(self) -> "Scalar":
        """Conjugation: fixes t, swaps zeta and zetabar, conjugates coefficients."""
        return Scalar._of({(a, c, b): v.conj() for (a, b, c), v in self.terms.items()})

    def eval(self, t0=None, zeta0=None) -> GaussRational:
        """Substitute ``t = t0``, ``zeta = zeta0``, ``zetabar = conj(zeta0)``.

        Raises ``PoleAtSample`` when a negative exponent meets a zero
        sample, and ``ValueError`` when a needed sample is missing.
        """
        tv = None if t0 is None else GaussRational(t0)
        zv = None
        if zeta0 is not None:
            zv = zeta0 if isinstance(zeta0, GaussRational) else GaussRational(zeta0)
        out = GR_ZERO
        for (a, b, c), v in self.terms.items():
            term = v
            if a:
                if tv is None:
                    raise ValueError("scalar depends on t but no t sample given")
                if not tv and a < 0:
                    raise PoleAtSample("t^negative evaluated at t = 0")
                term = term * tv**a
            if b or c:
                if zv is None:
                    raise ValueError("scalar depends on zeta but no zeta sample given")
                if not zv and (b < 0 or c < 0):
                    raise PoleAtSample("zeta^negative evaluated at zeta = 0")
                if b:
                    term = term * zv**b
                if c:
                    term = term * zv.conj() ** c
            out = out + term
        return out

    def zeta_coefficient(self, k: int) -> "Scalar":
        """Coefficient of ``zeta**k`` among terms free of ``zetabar``."""
        return Scalar._of(
            {(a, 0, 0): v for (a, b, c), v in self.terms.items() if b == k and c == 0}
        )

    def is_unit(self) -> bool:
        """True for a single nonzero monomial, the units of the Laurent ring."""
        return len(self.terms) == 1

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, reverse=True):
            v = self.terms[key]
            factors = []
            for name, e in zip(("t", "zeta", "zetabar"), key):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            coeff = str(v)
            if ("+" in coeff[1:]) or ("-" in coeff[1:]):
                coeff = f"({coeff})"
            if factors and coeff == "1":
                parts.append("*".join(factors))
            elif factors and coeff == "-1":
                parts.append("-" + "*".join(factors))
            elif factors:
                parts.append(coeff + "*" + "*".join(factors))
            else:
                parts.append(coeff)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"Scalar<{self}>"


def as_scalar(x) -> Scalar:
    return Scalar.from_value(x)


def as_coefficient(x):
    """A ``GaussRational`` or ``Scalar`` unchanged; an int or Fraction as a
    ``GaussRational``."""
    if isinstance(x, (GaussRational, Scalar)):
        return x
    return GaussRational(x)
