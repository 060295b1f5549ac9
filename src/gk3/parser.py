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

Each rule returns a pair ``(scalar, parts)``: the scalar term and a
dict from basis name to its coefficient.  A product keeps a zero
coefficient, so ``0*C`` is still a class; a sum drops it.

Parsing is total on the grammar; anything else raises
:class:`ExprSyntaxError` with a position or :class:`UnknownSymbol`.
"""

from __future__ import annotations

import re

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

_MINUS_ONE = Scalar.from_value(-1)
_BASIS_NAMES = frozenset(CohClass.NAMES + HTClass.NAMES)
# INT is 0-9 only (str.isdigit takes superscripts too); \w and \s are
# str.isalnum or '_', and str.isspace
_TOKEN = re.compile(r"([0-9]+)|(\w+)|(\S)")


def _tokenize(src: str) -> list:
    """The ``(kind, text, pos)`` tokens of ``src``, last first, under an
    ``end`` token: the next token is always ``tokens[-1]``."""
    tokens = []
    for match in _TOKEN.finditer(src):
        number, word, char = match.groups()
        pos = match.start()
        if number:
            tokens.append(("int", number, pos))
        elif word and (word[0].isalpha() or word[0] == "_"):
            tokens.append(("name", word, pos))
        elif char and char in "+-*/^()":
            tokens.append((char, char, pos))
        else:
            raise ExprSyntaxError(f"unexpected character {(word or char)[0]!r}", pos)
    tokens.append(("end", "", len(src)))
    return tokens[::-1]


def _take(tokens, *kinds):
    """The next token, consumed, if its kind is one of ``kinds``."""
    return tokens.pop() if tokens[-1][0] in kinds else None


def _expect(tokens, kind):
    if tokens[-1][0] != kind:
        _, text, pos = tokens[-1]
        raise ExprSyntaxError(f"expected {kind!r} but found {text or 'end of input'!r}", pos)
    return tokens.pop()


def _add(x, y):
    parts = dict(x[1])
    for name, v in y[1].items():
        s = parts.get(name, Scalar.zero()) + v
        if s:
            parts[name] = s
        else:
            parts.pop(name, None)
    return x[0] + y[0], parts


def _scaled(x, s):
    return x[0] * s, {name: v * s for name, v in x[1].items()}


def _expr(tokens):
    negate = _take(tokens, "-")
    value = _term(tokens)
    if negate:
        value = _scaled(value, _MINUS_ONE)
    while op := _take(tokens, "+", "-"):
        rhs = _term(tokens)
        value = _add(value, rhs if op[0] == "+" else _scaled(rhs, _MINUS_ONE))
    return value


def _term(tokens):
    value = _factor(tokens)
    while op := _take(tokens, "*", "/"):
        kind, _, pos = op
        rhs = _factor(tokens)
        if kind == "*" and not rhs[1]:
            value = _scaled(value, rhs[0])
        elif kind == "*" and not value[1]:
            value = _scaled(rhs, value[0])
        elif kind == "*":
            # basis-by-basis products exist only as the compound names
            products = {f"{a}*{b}": x * y
                        for a, x in value[1].items() for b, y in rhs[1].items()}
            if value[0] or rhs[0] or not products.keys() <= _BASIS_NAMES:
                raise ExprSyntaxError("cannot multiply two basis classes", pos)
            value = Scalar.zero(), products
        elif rhs[1]:
            raise ExprSyntaxError("division by a class is not defined", pos)
        else:
            try:
                value = _scaled(value, rhs[0].unit_inverse())
            except NonUnitDivisor as exc:
                raise ExprSyntaxError(f"divisor is not a unit: {exc}", pos) from exc
    return value


def _factor(tokens):
    base = tokens[-1][1]
    scalar, parts = _atom(tokens)
    caret = _take(tokens, "^")
    if not caret:
        return scalar, parts
    n = (-1 if _take(tokens, "-") else 1) * int(_expect(tokens, "int")[1])
    if not parts:
        try:
            return scalar**n, {}
        except NonUnitDivisor as exc:
            raise ExprSyntaxError(f"negative power of a non-monomial: {exc}", caret[2]) from exc
    (key, coeff), *rest = parts.items()
    name = key if n == 1 else f"{key}^{n}"
    if not rest and not scalar and coeff == Scalar.one() and name in _BASIS_NAMES:
        return Scalar.zero(), {name: Scalar.one()}
    raise ExprSyntaxError(f"cannot raise {base!r} to the power {n}", caret[2])


def _atom(tokens):
    if _take(tokens, "("):
        value = _expr(tokens)
        _expect(tokens, ")")
        return value
    kind, text, pos = tokens[-1]
    if not _take(tokens, "int", "name"):
        raise ExprSyntaxError(f"expected a value but found {text or 'end of input'!r}", pos)
    if kind == "int":
        return Scalar.from_value(int(text)), {}
    if text in _SCALAR_NAMES:
        return _SCALAR_NAMES[text](), {}
    if text in _BASIS_NAMES:
        return Scalar.zero(), {text: Scalar.one()}
    raise UnknownSymbol(f"unknown symbol {text!r} at column {pos + 1}")


def _parse(src: str):
    tokens = _tokenize(src)
    value = _expr(tokens)
    kind, text, pos = tokens[-1]
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing {text!r}", pos)
    return value


def parse_scalar_expr(src: str) -> Scalar:
    """Parse an expression that must reduce to a scalar."""
    scalar, parts = _parse(src)
    if parts:
        raise ExprSyntaxError("expected a scalar expression, found basis classes")
    return scalar


def parse_class_expr(src: str, cls=None):
    """Parse a class expression into a CohClass or HTClass.

    ``cls`` forces the target class; otherwise the polyvector
    generators select :class:`~gk3.harmonic.HTClass` and everything else
    (including plain ``sigmabar``) parses as even cohomology.
    """
    scalar, parts = _parse(src)
    if cls is None:
        cls = CohClass if set(parts) <= set(CohClass.NAMES) else HTClass
    stray = sorted(set(parts) - set(cls.NAMES))
    if cls is CohClass:
        if stray:
            raise ExprSyntaxError("polyvector generators are not even-cohomology classes")
        parts["one"] = parts.get("one", Scalar.zero()) + scalar
    elif stray or scalar:
        bad = ", ".join(stray) or "a scalar term"
        raise ExprSyntaxError(f"{bad} does not lie in the polyvector span")
    return cls(*(parts.get(name, Scalar.zero()) for name in cls.NAMES))
