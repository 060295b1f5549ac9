"""Recursive-descent parser for scalar and class expressions.

Grammar (shared by the command line and the check suites)::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' ['-'] INT]
    atom   := INT | '(' expr ')' | NAME

Scalar names: ``i``, ``t``, ``zeta``, ``zetabar``.  Class names are the
``NAMES`` of :class:`~gk3.cohomology.CohClass` and
:class:`~gk3.harmonic.HTClass`, the names they print with.  A power or
product of basis names is allowed only where it spells another basis
name: ``sigma^-1``, ``sigma^-1*C`` and ``sigma^-1*F``.  Rationals are
written ``p/q``.  Division requires a single-monomial divisor.

Parsing is total on the grammar; anything else raises
:class:`ExprSyntaxError` with a position or :class:`UnknownSymbol`.
"""

from __future__ import annotations

from .cohomology import CohClass
from .harmonic import HTClass
from .scalar import NonUnitDivisor, Scalar


class ExprSyntaxError(ValueError):
    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (line 1, column {pos + 1})"
        super().__init__(message)


class UnknownSymbol(ValueError):
    pass


_SCALAR_NAMES = {
    "i": Scalar.i,
    "t": Scalar.t,
    "zeta": Scalar.zeta,
    "zetabar": Scalar.zetabar,
}

_BASIS_NAMES = frozenset(CohClass.NAMES + HTClass.NAMES)
_DIGITS = frozenset("0123456789")  # INT only: str.isdigit takes superscripts too


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(src: str):
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(src) and src[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Element:
    """Intermediate value: scalar part plus basis-keyed scalar coefficients."""

    __slots__ = ("scalar", "parts")

    def __init__(self, scalar=None, parts=None):
        self.scalar = scalar if scalar is not None else Scalar.zero()
        self.parts = parts or {}

    @classmethod
    def from_scalar(cls, s: Scalar):
        return cls(scalar=s)

    @classmethod
    def from_basis(cls, key: str):
        return cls(parts={key: Scalar.one()})

    def is_scalar(self):
        return not self.parts

    def __add__(self, other):
        parts = dict(self.parts)
        for k, v in other.parts.items():
            s = parts.get(k, Scalar.zero()) + v
            if s:
                parts[k] = s
            else:
                parts.pop(k, None)
        return _Element(self.scalar + other.scalar, parts)

    def __neg__(self):
        return _Element(-self.scalar, {k: -v for k, v in self.parts.items()})

    def scaled(self, s: Scalar):
        return _Element(self.scalar * s, {k: v * s for k, v in self.parts.items()})


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.idx = 0

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r} but found {tok.text or 'end of input'!r}", tok.pos
            )
        return self.advance()

    # expr := ['-'] term (('+'|'-') term)*
    def parse_expr(self) -> _Element:
        if self.peek().kind == "-":
            self.advance()
            value = -self.parse_term()
        else:
            value = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            term = self.parse_term()
            value = value + (term if op.kind == "+" else -term)
        return value

    # term := factor (('*'|'/') factor)*
    def parse_term(self) -> _Element:
        value = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.parse_factor()
            value = self._combine(value, rhs, op)
        return value

    def _combine(self, lhs: _Element, rhs: _Element, op: _Token) -> _Element:
        if op.kind == "*":
            if rhs.is_scalar():
                return lhs.scaled(rhs.scalar)
            if lhs.is_scalar():
                return rhs.scaled(lhs.scalar)
            # basis-by-basis products exist only as the compound names
            products = {
                f"{a}*{b}": x * y for a, x in lhs.parts.items() for b, y in rhs.parts.items()
            }
            if lhs.scalar or rhs.scalar or not products.keys() <= _BASIS_NAMES:
                raise ExprSyntaxError("cannot multiply two basis classes", op.pos)
            return _Element(parts=products)
        if not rhs.is_scalar():
            raise ExprSyntaxError("division by a class is not defined", op.pos)
        try:
            inv = rhs.scalar.unit_inverse()
        except NonUnitDivisor as exc:
            raise ExprSyntaxError(f"divisor is not a unit: {exc}", op.pos) from exc
        return lhs.scaled(inv)

    # factor := atom ['^' ['-'] INT]
    def parse_factor(self) -> _Element:
        base_tok = self.peek()
        value = self.parse_atom()
        if self.peek().kind != "^":
            return value
        caret = self.advance()
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        exp_tok = self.expect("int")
        n = sign * int(exp_tok.text)
        if value.is_scalar():
            try:
                return _Element.from_scalar(value.scalar**n)
            except NonUnitDivisor as exc:
                raise ExprSyntaxError(
                    f"negative power of a non-monomial: {exc}", caret.pos
                ) from exc
        (key, coeff), *rest = value.parts.items()
        name = key if n == 1 else f"{key}^{n}"
        if not rest and not value.scalar and coeff == Scalar.one() and name in _BASIS_NAMES:
            return _Element.from_basis(name)
        raise ExprSyntaxError(
            f"cannot raise {base_tok.text!r} to the power {n}", caret.pos
        )

    # atom := INT | '(' expr ')' | NAME
    def parse_atom(self) -> _Element:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return _Element.from_scalar(Scalar.from_value(int(tok.text)))
        if tok.kind == "(":
            self.advance()
            value = self.parse_expr()
            self.expect(")")
            return value
        if tok.kind == "name":
            self.advance()
            if tok.text in _SCALAR_NAMES:
                return _Element.from_scalar(_SCALAR_NAMES[tok.text]())
            if tok.text in _BASIS_NAMES:
                return _Element.from_basis(tok.text)
            raise UnknownSymbol(f"unknown symbol {tok.text!r} at column {tok.pos + 1}")
        raise ExprSyntaxError(
            f"expected a value but found {tok.text or 'end of input'!r}", tok.pos
        )


def _parse(src: str) -> _Element:
    parser = _Parser(src)
    value = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing {tok.text!r}", tok.pos)
    return value


def parse_scalar_expr(src: str) -> Scalar:
    """Parse an expression that must reduce to a scalar."""
    value = _parse(src)
    if not value.is_scalar():
        raise ExprSyntaxError("expected a scalar expression, found basis classes")
    return value.scalar


def parse_class_expr(src: str, cls=None):
    """Parse a class expression into a CohClass or HTClass.

    ``cls`` forces the target class; otherwise the polyvector
    generators select :class:`~gk3.harmonic.HTClass` and everything else
    (including plain ``sigmabar``) parses as even cohomology.
    """
    value = _parse(src)
    if cls is None:
        cls = CohClass if set(value.parts) <= set(CohClass.NAMES) else HTClass
    parts = dict(value.parts)
    stray = sorted(set(parts) - set(cls.NAMES))
    if cls is CohClass:
        if stray:
            raise ExprSyntaxError("polyvector generators are not even-cohomology classes")
        parts["one"] = parts.get("one", Scalar.zero()) + value.scalar
    elif stray or value.scalar:
        bad = ", ".join(stray) or "a scalar term"
        raise ExprSyntaxError(f"{bad} does not lie in the polyvector span")
    return cls(*(parts.get(name, Scalar.zero()) for name in cls.NAMES))
