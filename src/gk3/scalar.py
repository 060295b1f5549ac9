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
  Each coefficient is stored as the same reduced integer triple
  ``(a, b, d)`` a ``GaussRational`` holds, not as an object, so
  equality is a comparison of term maps and conjugation negates ``b``;
  ``eval`` and printing rebuild a ``GaussRational`` per term.  Sums
  and products are fused kernels on these integers: ``+``, ``-`` and
  ``__rsub__`` merge two term maps (``_merge``) with one reduction per
  shared term, and the product is the one-row case of the bilinear
  kernel :func:`_bilinear`, which evaluates ``sum(c*x*y)`` over a
  constant table and reduces each output coefficient once.  A term
  that cancels is dropped.

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
    class's own ``_coerce``, ``*``, ``-`` and ``unit_inverse``."""

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
        # a real value hashes as the Fraction (or int) it equals
        return hash((self._a, self._b, self._d) if self._b else Fraction(self._a, self._d))

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


# Fused kernels for the exact linear algebra and the Laurent sums and
# bilinear forms.  They work on the integer triples of their coefficients and
# reduce each result once, not a GaussRational per term.

def _gauss_dot(row, col, start=None):
    """``start + sum(x * col[k] for k, x in row)`` for Gaussian rationals.

    ``row`` is a sparse row of ``(k, x)`` pairs and ``col`` is indexed
    by ``k``; a term whose ``col[k]`` is zero is skipped.  The term
    numerators accumulate over a running denominator, from ``start``
    (zero when ``None``), and the sum is reduced once.
    """
    if start is None:
        sa = sb = 0
        sd = 1
    else:
        sa, sb, sd = start._a, start._b, start._d
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


def _lowest(a, b, d):
    """The triple ``(a, b, d)`` for any ``d > 0``, in lowest terms."""
    g = gcd(a, b, d)
    if g == 1:
        return a, b, d
    return a // g, b // g, d // g


def _triple(x):
    """The reduced triple of a coefficient: a ``GaussRational``, or an int,
    Fraction or rational string as for its constructor."""
    if not isinstance(x, GaussRational):
        x = GaussRational(x)
    return x._a, x._b, x._d


def _merge(xs, ys, sign):
    """The term map of ``xs + sign*ys`` for term maps of reduced triples and
    ``sign`` 1 or -1: one reduction per shared key, and a shared key whose
    sum is zero is dropped."""
    terms = xs.copy()
    for k, y in ys.items():
        if sign != 1:
            y = -y[0], -y[1], y[2]
        x = terms.get(k)
        if x is None:
            terms[k] = y
            continue
        xa, xb, xd = x
        ya, yb, yd = y
        if xd == yd:
            a, b, d = xa + ya, xb + yb, xd
        else:
            a, b, d = xa * yd + ya * xd, xb * yd + yb * xd, xd * yd
        if a or b:
            terms[k] = _lowest(a, b, d)
        else:
            del terms[k]
    return terms


def _bilinear(table, xs, ys) -> list:
    """The Laurent polynomials ``out[s] = sum(c * xs[i] * ys[j])`` over the
    rows ``(c, i, j)`` of ``table[s]``, for int ``c`` and Scalars.  Each
    key's coefficient accumulates as integers ``(a, b, d)`` over a running
    denominator, as in ``_gauss_dot``, and is reduced once with one gcd; a
    key that cancels is dropped."""
    out = []
    for rows in table:
        acc = {}
        for c, i, j in rows:
            xt, yt = xs[i].terms, ys[j].terms
            if not (xt and yt):
                continue
            yt = yt.items()
            for (t1, z1, w1), (ua, ub, ud) in xt.items():
                if c != 1:
                    ua, ub = ua * c, ub * c
                for (t2, z2, w2), (va, vb, vd) in yt:
                    a = ua * va - ub * vb
                    b = ua * vb + ub * va
                    d = ud * vd
                    k = t1 + t2, z1 + z2, w1 + w2
                    prev = acc.get(k)
                    if prev is not None:
                        sa, sb, sd = prev
                        if sd == d:
                            a, b = sa + a, sb + b
                        else:
                            a, b, d = sa * d + a * sd, sb * d + b * sd, sd * d
                    acc[k] = a, b, d
        terms = {}
        for k, v in acc.items():
            a, b, d = v
            if a or b:
                g = gcd(a, b, d)
                terms[k] = v if g == 1 else (a // g, b // g, d // g)
        out.append(Scalar._of(terms))
    return out


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


class Scalar(_RingOps):
    """Laurent polynomial in ``t``, ``zeta``, ``zetabar``.

    Terms are stored as a map from exponent triples
    ``(e_t, e_zeta, e_zetabar)`` to coefficients, each the reduced
    integer triple ``(a, b, d)`` of the Gaussian rational
    ``(a + b*i)/d``: ``d > 0``, ``gcd(a, b, d) == 1`` and
    ``(a, b) != (0, 0)``.  The empty map is zero.  The form is
    canonical, so two scalars are equal exactly when their maps are.
    The constructor takes ``GaussRational``, int, Fraction or
    rational-string coefficients and drops the zeros.  Instances are
    treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        triples = ((k, _triple(v)) for k, v in (terms or {}).items())
        self.terms = {k: t for k, t in triples if t[0] or t[1]}

    @classmethod
    def _of(cls, terms) -> "Scalar":
        """The scalar of a map of reduced nonzero triples, taken as it is."""
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
            a, b, d = x._a, x._b, x._d
        elif isinstance(x, int):
            a, b, d = x, 0, 1
        elif isinstance(x, Fraction):
            a, b, d = x.numerator, 0, x.denominator
        else:
            raise TypeError(f"cannot interpret {x!r} as a Scalar")
        return cls._of({(0, 0, 0): (a, b, d)} if a or b else {})

    @classmethod
    def monomial(cls, coeff, e_t=0, e_zeta=0, e_zetabar=0) -> "Scalar":
        a, b, d = _triple(coeff)
        return cls._of({(e_t, e_zeta, e_zetabar): (a, b, d)} if a or b else {})

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
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return Scalar._of(_merge(self.terms, other.terms, 1))

    __radd__ = __add__

    def __neg__(self):
        return Scalar._of({k: (-a, -b, d) for k, (a, b, d) in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return Scalar._of(_merge(self.terms, other.terms, -1))

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not (self.terms and other.terms):
            return Scalar._of({})
        # the table of x * y: one output, of one row
        return _bilinear((((1, 0, 0),),), (self,), (other,))[0]

    __rmul__ = __mul__

    def unit_inverse(self) -> "Scalar":
        """Inverse of a monomial; raises ``NonUnitDivisor`` otherwise."""
        if len(self.terms) != 1:
            raise NonUnitDivisor(
                f"divisor must be a single nonzero monomial, got {self}"
            )
        ((e_t, e_z, e_zb), (a, b, d)), = self.terms.items()
        # 1/((a + b*i)/d) = (d*a - d*b*i)/(a^2 + b^2)
        return Scalar._of({(-e_t, -e_z, -e_zb): _lowest(d * a, -d * b, a * a + b * b)})

    # -- structure ----------------------------------------------------

    def conj(self) -> "Scalar":
        """Conjugation: fixes t, swaps zeta and zetabar, conjugates coefficients."""
        return Scalar._of({(t, zb, z): (a, -b, d) for (t, z, zb), (a, b, d) in self.terms.items()})

    def eval(self, t0=None, zeta0=None) -> GaussRational:
        """Substitute ``t = t0``, ``zeta = zeta0``, ``zetabar = conj(zeta0)``.

        Either sample is a ``GaussRational`` or a value its constructor
        takes.  Raises ``PoleAtSample`` when a negative exponent meets a
        zero sample, and ``ValueError`` when a needed sample is missing or
        ``t0`` is not real (``conj`` fixes ``t``).
        """
        tv, zv = (x if x is None or isinstance(x, GaussRational) else GaussRational(x)
                  for x in (t0, zeta0))
        if tv is not None and tv.im:
            raise ValueError(f"t is real, but the sample t0 = {tv} is not")
        out = GR_ZERO
        for (a, b, c), v in self.terms.items():
            term = _from_reduced(*v)
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
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes as the coefficient it equals, zero as 0
        terms = self.terms
        return hash(self.eval() if terms.keys() <= {(0, 0, 0)} else frozenset(terms.items()))

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
            coeff = str(_from_reduced(*v))
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


def as_coefficient(x):
    """A ``GaussRational`` or ``Scalar`` unchanged; an int or Fraction as a
    ``GaussRational``."""
    if isinstance(x, (GaussRational, Scalar)):
        return x
    return GaussRational(x)
