import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gk3 import families as fam
from gk3 import gcs
from gk3 import spinor as sp
from gk3.checks import _BTRANSFORM_POOL, DEFAULT_T_SAMPLES, DEFAULT_ZETA_SAMPLES
from gk3.gcs import (
    J_COMPLEX,
    DegenerateForm,
    GCStructure,
    b_transform,
    deformation_graph_Y,
    family_matrix,
    j_symplectic,
    j_zeta,
    polyvector_action,
    twistor_direction_matrix,
    twistor_pointwise_graph,
)
from gk3.harmonic import HTClass
from gk3.linalg import CMatrix, NotAGraph, eigenspace_i, kernel
from gk3.scalar import GR_I, GR_ZERO, GaussRational, Scalar
from strategies import fractions as fraction_strategy

HALF = Fraction(1, 2)
ZETAS = [
    GaussRational(HALF),
    GaussRational(Fraction(1, 3)),
    GaussRational(0, 1),
    GaussRational(Fraction(3, 5), Fraction(4, 5)),
    GaussRational(1, -1),
    GaussRational(Fraction(-2, 3), Fraction(1, 4)),
]
TSAMPLES = [Fraction(3, 2), Fraction(2), Fraction(5)]
ZETA, T = Scalar.zeta(), Scalar.t()


def _at(m, t, z):
    """The matrix ``m`` of Laurent entries evaluated at ``(t, zeta)``."""
    return CMatrix([[Scalar.from_value(x).eval(t, z) for x in row] for row in m.entries])


def test_flat_model_invariants():
    assert gcs.I_MATRIX * gcs.I_MATRIX == CMatrix.identity(4).scale(-1)
    # omega_j, omega_k nondegenerate; sigma gram singular on T (x) C
    j_symplectic(sp.OMEGA_J)
    j_symplectic(sp.OMEGA_K)
    with pytest.raises(ValueError):
        gcs.form_map_matrix(sp.SIGMA).inverse()


def test_j_complex_algebra():
    j = J_COMPLEX
    assert j.squares_to_minus_identity()
    assert j.is_orthogonal()


def test_j_symplectic_algebra():
    for form in (sp.OMEGA_I, sp.OMEGA_J, sp.OMEGA_K):
        j = j_symplectic(form)
        assert j.squares_to_minus_identity()
        assert j.is_orthogonal()


def test_j_symplectic_degenerate():
    with pytest.raises(DegenerateForm):
        j_symplectic(sp.DX1.wedge(sp.DY1))  # rank 2
    with pytest.raises(sp.WrongDegree):
        j_symplectic(sp.OMEGA_J + sp.Spinor.scalar(1))  # not a two-form


def test_b_transform_basics():
    j = j_symplectic(sp.OMEGA_J)
    assert b_transform(j, sp.Spinor.zero()) == j
    b = sp.OMEGA_K * Fraction(2, 7) + sp.DX1.wedge(sp.DX2) * 3
    jb = b_transform(j, b)
    assert jb.squares_to_minus_identity()
    assert jb.is_orthogonal()


def _two_form(coefficients):
    # dx_j ^ dx_k for j < k is the basis two-form of mask 2^j + 2^k
    masks = [(1 << j) | (1 << k) for j in range(4) for k in range(j + 1, 4)]
    return sp.Spinor(dict(zip(masks, coefficients)))


def _conjugated(j, b):
    """``(1,0;-B,1) j (1,0;B,1)`` from block matrices and ``CMatrix`` products."""
    m, one, zero = gcs.form_map_matrix(b), CMatrix.identity(4), CMatrix.zeros(4, 4)
    shear, shear_inv = gcs._block_matrix(one, zero, m, one), gcs._block_matrix(one, zero, -m, one)
    return GCStructure(shear_inv * j.matrix * shear)


_SHEAR_TARGETS = (*_BTRANSFORM_POOL, j_zeta(GaussRational(Fraction(3, 5), Fraction(4, 5)), Fraction(2)))


@given(st.sampled_from(_SHEAR_TARGETS),
       st.lists(fraction_strategy(-6, 6, max_denominator=6), min_size=6, max_size=6))
def test_b_transform_is_the_shear_conjugation(j, coefficients):
    b = _two_form(coefficients)
    assert b_transform(j, b) == _conjugated(j, b)


def test_b_transform_of_the_zero_form_and_a_laurent_form():
    for j in _SHEAR_TARGETS:
        assert b_transform(j, sp.Spinor.zero()) == _conjugated(j, sp.Spinor.zero()) == j
    # Laurent coefficients take the operator path of the same pass
    j, b = J_COMPLEX, sp.OMEGA_K * Scalar.t()
    jb = b_transform(j, b)
    assert jb == _conjugated(j, b)
    assert any(isinstance(x, Scalar) for row in jb.matrix.entries for x in row)
    assert jb.squares_to_minus_identity() and jb.is_orthogonal()


def test_b_transform_takes_no_block_products(monkeypatch):
    expected = [b_transform(j, sp.OMEGA_K * HALF) for j in _SHEAR_TARGETS]

    def refuse(*args):
        raise AssertionError("b_transform built a block product or sum")

    for name in ("__mul__", "__add__", "__sub__"):
        monkeypatch.setattr(CMatrix, name, refuse)
    assert [b_transform(j, sp.OMEGA_K * HALF) for j in _SHEAR_TARGETS] == expected
    b_transform(J_COMPLEX, sp.OMEGA_K * Scalar.t())


def test_form_map_matrix_coefficients():
    # int, Fraction and Laurent coefficients: an antisymmetric matrix of coefficients
    pairs = [(j, k) for j in range(4) for k in range(j + 1, 4)]
    for coefficients in ([1, 0, -2, 3, 0, 5],
                         [Fraction(1, 2), 0, Fraction(-2, 3), 1, 0, Fraction(5, 7)],
                         [T, 0, 1 + ZETA, GaussRational(0, 2), 0, -T]):
        m = gcs.form_map_matrix(_two_form(coefficients))
        assert all(isinstance(x, (GaussRational, Scalar)) for row in m.entries for x in row)
        assert m.transpose() == -m
        assert [m.entries[k][j] for j, k in pairs] == [c if c else GR_ZERO for c in coefficients]


def test_b_transform_group_action():
    j = J_COMPLEX
    b1 = sp.OMEGA_J * HALF
    b2 = sp.DX1.wedge(sp.DY2) * Fraction(-3, 4)
    assert b_transform(j, b1 + b2) == b_transform(b_transform(j, b2), b1)


def test_theta_family_factorization():
    # cos/sin from a Pythagorean pair: the interpolation at angle theta
    # equals the B-field transform of csc(theta) omega_j by -cot(theta) omega_k.
    cos, sin = Fraction(3, 5), Fraction(4, 5)
    j_theta = GCStructure(
        J_COMPLEX.matrix.scale(GaussRational(cos))
        + j_symplectic(sp.OMEGA_J).matrix.scale(GaussRational(sin))
    )
    expected = b_transform(
        j_symplectic(sp.OMEGA_J * (1 / sin)), sp.OMEGA_K * (-cos / sin)
    )
    assert j_theta == expected


def test_j_zeta_special_values():
    t = Fraction(2)
    assert j_zeta(GaussRational(0), t) == J_COMPLEX
    # the value at infinity, minus the complex-type structure
    at_infinity = GCStructure(-J_COMPLEX.matrix)
    assert at_infinity.squares_to_minus_identity() and at_infinity.is_orthogonal()
    conj_space = eigenspace_i(at_infinity.matrix)
    assert conj_space == eigenspace_i(J_COMPLEX.matrix).conj()


def test_j_zeta_algebra_and_unit_circle():
    for t in TSAMPLES:
        for z in ZETAS:
            j = j_zeta(z, t)
            assert j.squares_to_minus_identity()
            assert j.is_orthogonal()
            if z.norm_sq() == 1:
                assert j.blocks()[0].is_zero()


def test_j_zeta_is_the_convex_combination():
    # the combination of the three structures, each built with its own inverse
    for t in TSAMPLES:
        for z in ZETAS:
            n = 1 + z.norm_sq()
            ci, cj, ck = (1 - z.norm_sq()) / n, -2 * z.im / n, 2 * z.re / n
            m = (J_COMPLEX.matrix.scale(ci)
                 + j_symplectic(sp.OMEGA_J * t).matrix.scale(cj)
                 + j_symplectic(sp.OMEGA_K * t).matrix.scale(ck))
            assert j_zeta(z, t).matrix == m
    with pytest.raises(DegenerateForm):
        j_zeta(GaussRational(HALF), 0)
    assert j_zeta(GaussRational(0), 0) == J_COMPLEX


def test_family_matrix_identities_in_zeta_and_t():
    m = family_matrix(ZETA, T)
    n = 1 + ZETA * ZETA.conj()
    assert m * m == CMatrix.identity(8).scale(-n * n)
    assert m.transpose() * gcs.PAIRING * m == gcs.PAIRING.scale(n * n)
    # the B-field factorization without inverting omega: blocks (A, P; Q, D)
    a, p, q, d = GCStructure(m).blocks()
    b, om = sp.bfield_symplectic_data(ZETA, T)
    b, om = gcs.form_map_matrix(b), gcs.form_map_matrix(om)
    assert om * p == CMatrix.identity(4).scale(-n)
    assert (a, d, q) == (p * b, -(b * p), om.scale(n) - b * p * b)
    # degree at most one in zeta and in zetabar, and the zeta*zetabar
    # coefficient is the family's value at infinity, the limit of j_zeta
    rows = [[Scalar.from_value(x).terms for x in row] for row in m.entries]
    terms = [ts for row in rows for ts in row]
    assert all(e_z <= 1 and e_zb <= 1 for ts in terms for _, e_z, e_zb in ts)
    # each coefficient is a reduced nonzero triple (a, b, d), (a + b*i)/d
    assert all(d > 0 and math.gcd(a, b, d) == 1 and (a, b) != (0, 0)
               for ts in terms for a, b, d in ts.values())
    top = [[GaussRational(Fraction(a, d), Fraction(b, d))
            for a, b, d in (ts.get((0, 1, 1), (0, 0, 1)) for ts in row)] for row in rows]
    assert CMatrix(top) == -J_COMPLEX.matrix


def test_symbolic_family_evaluates_to_the_samples():
    m = family_matrix(ZETA, T)
    direction = polyvector_action(fam.direction_Y(T)).scale(ZETA)
    twistor = twistor_direction_matrix(ZETA)
    for z in DEFAULT_ZETA_SAMPLES:
        assert _at(twistor, None, z) == twistor_direction_matrix(z)
        for t in DEFAULT_T_SAMPLES:
            assert _at(m, t, z) == j_zeta(z, t).matrix.scale(1 + z.norm_sq())
            assert _at(direction, t, z) == polyvector_action(fam.direction_Y(t)).scale(z)


def test_j_zeta_bfield_factorization():
    for t in TSAMPLES[:2]:
        for z in ZETAS:
            if not z:
                continue
            b, om = sp.bfield_symplectic_data(z, t)
            assert b_transform(j_symplectic(om), b) == j_zeta(z, t)


def test_eigenspace_transverse_to_conjugate():
    for z in ZETAS:
        space = eigenspace_i(j_zeta(z, Fraction(2)).matrix)
        assert space.dim == 4
        assert space.intersection(space.conj()).dim == 0


def test_twistor_kernel_dimension():
    for z in ZETAS:
        form = sp.SIGMA + sp.OMEGA_I * (2 * z) - sp.SIGMABAR * (z * z)
        assert kernel(gcs.form_map_matrix(form)).dim == 2


def test_twistor_graph_matches_closed_form():
    for z in ZETAS:
        assert twistor_pointwise_graph(z) == twistor_direction_matrix(z)
    assert twistor_pointwise_graph(GaussRational(0)) == CMatrix.zeros(2, 2)


def test_twistor_graph_explicit_value():
    # at zeta = 1/3 the graph is -(2/3) sigma^-1 omega_i: off-diagonal +-i/3
    z = GaussRational(Fraction(1, 3))
    third_i = GaussRational(0, Fraction(1, 3))
    assert twistor_pointwise_graph(z) == CMatrix([[0, third_i], [-third_i, 0]])


def test_deformation_graph_matches_closed_form():
    # the closed form is zeta times the action of the lattice direction v_t
    for t in TSAMPLES:
        action = polyvector_action(fam.direction_Y(t))
        for z in ZETAS:
            assert deformation_graph_Y(z, t) == action.scale(z)


def test_polyvector_action_blocks():
    zero2 = CMatrix.zeros(2, 2)

    def blocks(a, d):
        return gcs._block_matrix(a, zero2, zero2, d)

    # (1/4)*sigma^-1 acts on the cotangent block as the inverse of the
    # bundle map of sigma, sigmabar on the tangent block as sigmabar(Z, .)
    assert polyvector_action(HTClass(p=Scalar.monomial("1/4"))) == blocks(
        zero2, gcs._SIGMA_BLOCK_INVERSE)
    assert polyvector_action(HTClass(r=1)) == blocks(gcs._SIGMABAR_BLOCK, zero2)
    for x in (HTClass(qC=1), HTClass(qF=-2), HTClass(p=1, qF=1)):
        with pytest.raises(ValueError):
            polyvector_action(x)


def test_deformation_graph_zero_and_blocks():
    t = Fraction(2)
    assert deformation_graph_Y(GaussRational(0), t) == CMatrix.zeros(4, 4)
    z = GaussRational(HALF)
    g = deformation_graph_Y(z, t)
    # sigmabar block scale: zeta t / 2; bivector block scale: -zeta/(2t)
    # times the operator normalization 4
    assert g.entries[1][0] == z * t / 2
    assert g.entries[0][1] == -(z * t / 2)
    assert g.entries[3][2] == z * 2 / t
    assert g.entries[2][3] == -(z * 2 / t)


def test_deformation_graph_linear_in_zeta():
    t = Fraction(3, 2)
    z1, z2 = GaussRational(HALF), GaussRational(Fraction(1, 5), 1)
    g1 = deformation_graph_Y(z1, t)
    g2 = deformation_graph_Y(z2, t)
    assert g1 + g2 == deformation_graph_Y(z1 + z2, t)


def test_deformation_eigenvector_equations():
    # the defining relations of the graph: xi^{0,1} = (zeta/2) sbar Z^{0,1}
    # and Z^{1,0} = -(zeta/2) s^-1 xi^{1,0} with s the t-scaled form,
    # checked against the raw eigenspace in real coordinates
    t = Fraction(2)
    z = GaussRational(HALF, Fraction(1, 3))
    j = j_zeta(z, t)
    frame = gcs.dolbeault_frame()
    space = eigenspace_i(j.matrix)
    graph = polyvector_action(fam.direction_Y(t)).scale(z)
    for v in space.basis:
        coords = frame.inverse().apply(list(v))
        base, fiber = coords[:4], coords[4:]
        assert graph.apply(base) == fiber


def test_not_a_graph_signals():
    # conjugate family eigenspace projects vertically at infinity, where
    # the family's value is minus the complex-type structure
    frame = gcs.dolbeault_frame()
    conj = frame.inverse() * -J_COMPLEX.matrix * frame
    from gk3.linalg import graph_extract

    with pytest.raises(NotAGraph):
        graph_extract(eigenspace_i(conj), 4)


def test_memoised_frames_are_unchanged_by_use():
    for frame in (gcs.tangent_frame, gcs.covector_frame, gcs.dolbeault_frame):
        assert frame() is frame()
    constants = (
        gcs.tangent_frame(),
        gcs.covector_frame(),
        gcs.dolbeault_frame(),
        gcs._TANGENT_FRAME_INVERSE,
        gcs._COVECTOR_FRAME_INVERSE,
        gcs._DOLBEAULT_FRAME_INVERSE,
        gcs._SIGMA_BLOCK_INVERSE,
        gcs._TWISTOR_BLOCK,
        gcs._SIGMABAR_BLOCK,
    )
    before = [[list(row) for row in m.entries] for m in constants]
    for m in constants:
        m.inverse()
        kernel(m)
        eigenspace_i(m)
    z, t = GaussRational(HALF, Fraction(1, 3)), Fraction(2)
    assert deformation_graph_Y(z, t) == polyvector_action(fam.direction_Y(t)).scale(z)
    assert twistor_pointwise_graph(z) == twistor_direction_matrix(z)
    assert [[list(row) for row in m.entries] for m in constants] == before


# -- the one-pass family matrix and orthogonality test against block sums --

def _block_family(zeta, t):
    """``family_matrix`` as ``J_COMPLEX`` scaled plus, for each symplectic
    term with a nonzero coefficient ``c``, the matrix of blocks
    ``(0, -(c/t) omega^-1; c t omega, 0)``."""
    zetabar = zeta.conj()
    m = J_COMPLEX.matrix.scale(1 - zeta * zetabar)
    for c, form in zip((GR_I * (zeta - zetabar), zeta + zetabar), (sp.OMEGA_J, sp.OMEGA_K)):
        if c:
            if not t:
                raise DegenerateForm("symplectic form is degenerate")
            omega, zero = gcs.form_map_matrix(form), CMatrix.zeros(4, 4)
            upper, lower = omega.inverse().scale(-c / t), omega.scale(c * t)
            m = m + gcs._block_matrix(zero, upper, lower, zero)
    return m


_parts = fraction_strategy(-3, 3, max_denominator=4)
_zetas = st.builds(GaussRational, _parts, _parts)
_ts = fraction_strategy(-4, 4, max_denominator=3)


@given(_zetas, _ts)
def test_family_matrix_matches_the_block_sum(z, t):
    if z and not t:
        with pytest.raises(DegenerateForm):
            family_matrix(z, t)
        with pytest.raises(DegenerateForm):
            j_zeta(z, t)
        return
    m = family_matrix(z, t)
    assert m == _block_family(z, t)
    assert j_zeta(z, t).matrix == m.scale(1 / (1 + z.norm_sq()))


def test_family_matrix_matches_the_block_sum_symbolically():
    assert family_matrix(ZETA, T) == _block_family(ZETA, T)
    assert family_matrix(ZETA, Fraction(2)) == _block_family(ZETA, Fraction(2))
    for z in ZETAS:
        assert family_matrix(z, T) == _block_family(z, T)
    assert family_matrix(GaussRational(0), 0) == J_COMPLEX.matrix


def _triple_product_orthogonal(m):
    return m.transpose() * gcs.PAIRING * m == gcs.PAIRING


_entries8 = st.one_of(st.just(0), st.just(0), _zetas)


@given(st.lists(st.lists(_entries8, min_size=4, max_size=4), min_size=4, max_size=4),
       st.lists(fraction_strategy(-6, 6, max_denominator=6), min_size=6, max_size=6),
       st.lists(st.lists(_entries8, min_size=8, max_size=8), min_size=8, max_size=8))
def test_is_orthogonal_matches_the_triple_product(a, coefficients, rows):
    # diag(A, A^-T) and the shear of a two-form preserve the pairing
    a = CMatrix(a)
    try:
        a_inv_t = a.inverse().transpose()
    except ValueError:
        a, a_inv_t = CMatrix.identity(4), CMatrix.identity(4)
    zero, one = CMatrix.zeros(4, 4), CMatrix.identity(4)
    shear = gcs._block_matrix(one, zero, gcs.form_map_matrix(_two_form(coefficients)), one)
    orthogonal = gcs._block_matrix(a, zero, zero, a_inv_t) * shear
    assert GCStructure(orthogonal).is_orthogonal() and _triple_product_orthogonal(orthogonal)
    for m in (CMatrix(rows), orthogonal + CMatrix(rows)):
        assert GCStructure(m).is_orthogonal() == _triple_product_orthogonal(m)


def test_is_orthogonal_on_family_members_and_a_non_orthogonal_matrix():
    for j in (*_SHEAR_TARGETS, J_COMPLEX, GCStructure(-J_COMPLEX.matrix)):
        assert j.is_orthogonal() and _triple_product_orthogonal(j.matrix)
    scaled = J_COMPLEX.matrix.scale(2)
    assert not GCStructure(scaled).is_orthogonal() and not _triple_product_orthogonal(scaled)
