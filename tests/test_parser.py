from fractions import Fraction

import pytest

from gk3 import cohomology as coh
from gk3 import harmonic as ht
from gk3.cohomology import CohClass, alpha_class
from gk3.harmonic import HTClass
from gk3.parser import (
    ExprSyntaxError,
    UnknownSymbol,
    parse_class_expr,
    parse_scalar_expr,
)
from gk3.scalar import GaussRational, Scalar


def test_alpha_class_expression():
    assert parse_class_expr("(1/t)*C + ((t^2+1)/t)*F") == alpha_class(Scalar.t())


def test_ht_context_inference():
    v = parse_class_expr("sigma^-1")
    assert isinstance(v, HTClass)
    assert v == HTClass(p=1)
    w = parse_class_expr("2*sigma^-1*C - (1/4)*sigma^-1*F")
    assert w == HTClass(qC=2, qF=Scalar.monomial("-1/4"))


def test_sigmabar_defaults_to_cohomology():
    v = parse_class_expr("sigmabar")
    assert isinstance(v, CohClass)
    assert v == coh.SIGMABAR
    w = parse_class_expr("sigmabar", cls=HTClass)
    assert isinstance(w, HTClass)
    assert w == ht.SIGMABAR


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_class_expr("C + + F")
    assert "column 5" in str(err.value)


@pytest.mark.parametrize("src, pos", [("²", 0), ("2^²", 2), ("١٢", 0)])
def test_non_ascii_digits_are_syntax_errors(src, pos):
    # INT is 0-9 only: other Unicode digits are a positioned syntax error
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar_expr(src)
    assert err.value.pos == pos
    assert f"column {pos + 1}" in str(err.value)


def test_unknown_symbol():
    with pytest.raises(UnknownSymbol) as err:
        parse_class_expr("C + Q")
    assert str(err.value) == "unknown symbol 'Q' at column 5"


def test_basis_products_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_class_expr("C * F")
    with pytest.raises(ExprSyntaxError):
        parse_class_expr("sigma^2")


def test_division_restricted_to_units():
    with pytest.raises(ExprSyntaxError):
        parse_scalar_expr("1/(t+1)")
    with pytest.raises(ExprSyntaxError):
        parse_class_expr("C / F")


def test_scalar_expressions():
    assert parse_scalar_expr("1/2 + 1/2") == Scalar.one()
    assert parse_scalar_expr("i^2") == Scalar.from_value(-1)
    assert parse_scalar_expr("zeta*zetabar") == Scalar.zeta() * Scalar.zetabar()
    assert parse_scalar_expr("-t^-1") == -(Scalar.one() / Scalar.t())
    assert parse_scalar_expr("(3+4*i)/5").eval() == GaussRational("3/5", "4/5")


def test_scalar_context_rejects_classes():
    with pytest.raises(ExprSyntaxError):
        parse_scalar_expr("C + 1")


def test_coh_scalar_term_is_unit_multiple():
    assert parse_class_expr("5", cls=CohClass) == CohClass(a=5)
    assert parse_class_expr("2*one + C") == CohClass(a=2, cC=1)
    with pytest.raises(ExprSyntaxError):
        parse_class_expr("5 + sigma^-1")


def test_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse_class_expr("C F")
    with pytest.raises(ExprSyntaxError):
        parse_scalar_expr("(t")


def test_roundtrip_through_str():
    # canonical printing of parsed scalars is stable
    s = parse_scalar_expr("(t^2+1)/t")
    assert parse_scalar_expr(str(s)) == s
    # complex coefficients print with an explicit product, N*i
    for src in ("(1+2*i)*t - 3*i*zeta", "1/2*i*zetabar^-1 - (1/3-5/2*i)", "-i*t + i"):
        s = parse_scalar_expr(src)
        assert parse_scalar_expr(str(s)) == s
    assert str(parse_scalar_expr("(1+2*i)*t - 3*i*zeta")) == "(1+2*i)*t - 3*i*zeta"
    # classes print with the basis names the parser reads
    z = Scalar.zeta()
    classes = (
        coh.gualtieri_spinor_class(Scalar.t(), z) + coh.C * Scalar.i() - coh.F,
        coh.twistor_period(Fraction(3, 2), z * GaussRational(1, 2)),
        HTClass(p=Scalar.i(), qC=z, qF=GaussRational("1/2", -3), r=Scalar.t() ** -1),
    )
    for value in classes:
        assert parse_class_expr(str(value)) == value
    # a complex constant coefficient prints in one pair of parentheses
    for value, text in (
        (coh.C * GaussRational(1, 2), "(1+2*i)*C"),
        (HTClass(qC=GaussRational("1/2", -3)), "(1/2-3*i)*sigma^-1*C"),
        (coh.ONE * GaussRational(0, 1) + coh.ETA * 2, "(i)*one + (2)*eta"),
    ):
        assert str(value) == text
        assert parse_class_expr(text) == value
    for name in CohClass.NAMES + HTClass.NAMES:
        assert str(parse_class_expr(name)) == f"(1)*{name}"


ENTRY_POINTS = {
    "scalar": parse_scalar_expr,
    "class": parse_class_expr,
    "coh": lambda src: parse_class_expr(src, cls=CohClass),
    "ht": lambda src: parse_class_expr(src, cls=HTClass),
}
NOT_A_UNIT = "divisor must be a single nonzero monomial, got t + 1"
# (entry point, source, message, 0-based column or None); one row per error branch
PARSE_ERRORS = [
    ("scalar", "t $ 1", "unexpected character '$'", 2),
    ("scalar", "(t", "expected ')' but found 'end of input'", 2),
    ("scalar", "t^x", "expected 'int' but found 'x'", 2),
    ("scalar", "t^-", "expected 'int' but found 'end of input'", 3),
    ("class", "C F", "unexpected trailing 'F'", 2),
    ("scalar", "t )", "unexpected trailing ')'", 2),
    ("scalar", "1 +", "expected a value but found 'end of input'", 3),
    ("scalar", "*", "expected a value but found '*'", 0),
    ("class", "C * F", "cannot multiply two basis classes", 2),
    ("class", "C / F", "division by a class is not defined", 2),
    ("scalar", "1/(t+1)", f"divisor is not a unit: {NOT_A_UNIT}", 1),
    ("scalar", "(t+1)^-1", f"negative power of a non-monomial: {NOT_A_UNIT}", 5),
    ("class", "C^2", "cannot raise 'C' to the power 2", 1),
    ("class", "(C)^-1", "cannot raise '(' to the power -1", 3),
    ("scalar", "0*C", "expected a scalar expression, found basis classes", None),
    ("coh", "sigma^-1", "polyvector generators are not even-cohomology classes", None),
    ("class", "sigma^-1 + eta", "eta does not lie in the polyvector span", None),
    ("ht", "1", "a scalar term does not lie in the polyvector span", None),
]


@pytest.mark.parametrize("entry, src, message, pos", PARSE_ERRORS)
def test_parse_error_messages_and_columns(entry, src, message, pos):
    with pytest.raises(ExprSyntaxError) as err:
        ENTRY_POINTS[entry](src)
    assert err.value.pos == pos
    suffix = "" if pos is None else f" (line 1, column {pos + 1})"
    assert str(err.value) == message + suffix
