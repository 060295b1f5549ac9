from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gk3 import gcs
from gk3 import spinor as sp
from gk3.checks import DEFAULT_T_SAMPLES, DEFAULT_ZETA_SAMPLES, RunConfig, run_checks
from gk3.linalg import CMatrix, eigenspace_i, kernel
from gk3.scalar import GR_I, GR_ZERO, GaussRational, PoleAtSample, Scalar
from strategies import fractions as fraction_strategy
from gk3.spinor import (
    Spinor,
    WrongDegree,
    ZeroSpinor,
    bfield_symplectic_data,
    clifford_annihilator,
    exp_two_form,
    family_spinor,
    family_spinor_infinity,
)

HALF = Fraction(1, 2)
SAMPLES = [
    GaussRational(HALF),
    GaussRational(0, 1),
    GaussRational(Fraction(3, 5), Fraction(4, 5)),
    GaussRational(1, 1),
    GaussRational(Fraction(-1, 3), Fraction(1, 5)),
]


def test_flat_model_form_identities():
    s = sp.SIGMA
    assert not s.wedge(s)
    assert s.wedge(sp.SIGMABAR) == sp.VOLUME * 4
    assert sp.OMEGA_I.wedge(sp.OMEGA_I) == sp.VOLUME * 2
    assert sp.OMEGA_J.wedge(sp.OMEGA_J) == sp.VOLUME * 2
    assert sp.OMEGA_K.wedge(sp.OMEGA_K) == sp.VOLUME * 2
    assert sp.OMEGA_J + sp.OMEGA_K * GR_I == s


def test_wedge_graded_commutative():
    a, b = sp.DX1, sp.DY2
    assert a.wedge(b) == -(b.wedge(a))
    two_form = sp.DX1.wedge(sp.DY1)
    assert two_form.wedge(sp.DX2.wedge(sp.DY2)) == sp.DX2.wedge(sp.DY2).wedge(two_form)


def test_interior_is_antiderivation():
    rho = sp.DX1.wedge(sp.DY1).wedge(sp.DX2)
    assert rho.interior(0) == sp.DY1.wedge(sp.DX2)
    assert rho.interior(1) == -(sp.DX1.wedge(sp.DX2))
    assert not rho.interior(3)


def test_exp_two_form():
    assert exp_two_form(Spinor.zero()) == Spinor.scalar(1)
    b = sp.OMEGA_J * Fraction(2, 3)
    assert exp_two_form(b).wedge(exp_two_form(-b)) == Spinor.scalar(1)
    with pytest.raises(WrongDegree):
        exp_two_form(sp.DX1)


def test_exp_identity_from_bfield_split():
    for z, t in [(z, Fraction(2)) for z in SAMPLES] + [(Scalar.zeta(), Scalar.t())]:
        b, om = bfield_symplectic_data(z, t)
        lhs = exp_two_form(b).wedge(exp_two_form(om * GR_I))
        st = sp.SIGMA * t
        stb = sp.SIGMABAR * t
        rhs = (
            Spinor.scalar(1)
            + st * (GaussRational(1) / (2 * z))
            - stb * (z / GaussRational(2))
            - st.wedge(stb) * Fraction(1, 4)
        )
        assert lhs == rhs
        assert lhs * (2 * z) == family_spinor(z, t)


def test_bfield_split_is_real_and_polar():
    t = Fraction(3)
    for z, tz in [(z, t) for z in SAMPLES] + [(Scalar.zeta(), Scalar.t())]:
        b, om = bfield_symplectic_data(z, tz)
        assert b.conj() == b and om.conj() == om
    # unit circle: no B-field left; zeta = 1 is the hyperkaehler rotation
    b, om = bfield_symplectic_data(GaussRational(0, 1), Fraction(1))
    assert not b
    assert om == -sp.OMEGA_J
    b, om = bfield_symplectic_data(GaussRational(1), Fraction(1))
    assert not b
    assert om == sp.OMEGA_K
    with pytest.raises(PoleAtSample):
        bfield_symplectic_data(GaussRational(0), t)


def test_symbolic_bfield_split_evaluates_to_the_samples():
    def at(form, t, z):
        return Spinor({m: Scalar.from_value(c).eval(t, z) for m, c in form.terms.items()})

    b, om = bfield_symplectic_data(Scalar.zeta(), Scalar.t())
    for z in DEFAULT_ZETA_SAMPLES:
        for t in DEFAULT_T_SAMPLES:
            assert (at(b, t, z), at(om, t, z)) == bfield_symplectic_data(z, t)


def test_bfield_split_closed_forms():
    # B = ((1 - |z|^2)/(2|z|^2)) Re(conj(z) * sigma), scaled by t
    t = Fraction(1)
    z = GaussRational(HALF)
    b, om = bfield_symplectic_data(z, t)
    assert b == sp.OMEGA_J * Fraction(3, 4)
    assert om == sp.OMEGA_K * Fraction(5, 4)
    # spherical-coordinate form: omega = csc(theta) ((cos phi) w_J + (sin phi) w_K)
    for zv in SAMPLES:
        n = zv.norm_sq()
        den = 1 + n
        ci, cj, ck = (1 - n) / den, -2 * zv.im / den, 2 * zv.re / den
        sin_sq = cj * cj + ck * ck
        bb, oo = bfield_symplectic_data(zv, t)
        expected_om = (sp.OMEGA_J * cj + sp.OMEGA_K * ck) * (1 / sin_sq)
        expected_b = (sp.OMEGA_J * ck - sp.OMEGA_K * cj) * (ci / sin_sq)
        assert oo == expected_om
        assert bb == expected_b


def test_family_spinor_specializations():
    t = Fraction(2)
    assert family_spinor(GaussRational(0), t) == sp.SIGMA * t
    assert family_spinor_infinity(t) == sp.SIGMABAR * t


def test_family_spinor_polynomial_coefficients():
    # degree <= 2 in zeta with the expected coefficient forms
    t = Scalar.t()
    z = Scalar.zeta()
    rho = family_spinor(z, t)
    st = sp.SIGMA * t
    stb = sp.SIGMABAR * t
    coeff0 = Spinor({m: c.zeta_coefficient(0) for m, c in rho.terms.items()})
    coeff1 = Spinor({m: c.zeta_coefficient(1) for m, c in rho.terms.items()})
    coeff2 = Spinor({m: c.zeta_coefficient(2) for m, c in rho.terms.items()})
    assert coeff0 == Spinor({m: c for m, c in st.terms.items()})
    assert coeff1 == (Spinor.scalar(1) - st.wedge(stb) * Fraction(1, 4)) * 2
    assert coeff2 == -stb


def test_annihilator_of_holomorphic_form():
    ann = clifford_annihilator(sp.SIGMA)
    assert ann.dim == 4
    assert ann == eigenspace_i(gcs.J_COMPLEX.matrix)


def test_annihilator_of_symplectic_exponential():
    rho = exp_two_form(sp.OMEGA_J * GR_I)
    assert clifford_annihilator(rho) == eigenspace_i(
        gcs.j_symplectic(sp.OMEGA_J).matrix
    )


def test_annihilator_scale_invariant():
    rho = family_spinor(GaussRational(HALF), Fraction(2))
    scaled = rho * GaussRational(Fraction(-3, 7), Fraction(2, 5))
    assert clifford_annihilator(rho) == clifford_annihilator(scaled)


def test_annihilator_is_isotropic():
    rho = family_spinor(GaussRational(HALF), Fraction(2))
    ann = clifford_annihilator(rho)
    for u in ann.basis:
        for v in ann.basis:
            pairing = sum(
                (u[k] * v[4 + k] + u[4 + k] * v[k] for k in range(4)),
                GaussRational(0),
            )
            assert not pairing


def test_purity():
    # a spinor is pure when its annihilator has the maximal dimension four
    assert clifford_annihilator(sp.SIGMA).dim == 4
    assert clifford_annihilator(Spinor.scalar(1) + sp.VOLUME).dim < 4
    for z in SAMPLES:
        assert clifford_annihilator(family_spinor(z, Fraction(2))).dim == 4
    with pytest.raises(ZeroSpinor):
        clifford_annihilator(Spinor.zero())


# -- reference exterior algebra ---------------------------------------

def _generators(m):
    return [k for k in range(sp.NFORMS) if m >> k & 1]


def _reference_sign(m1, m2):
    """Sign of ``e_m1 ^ e_m2`` against ``e_(m1|m2)`` by counting the
    inversions of the generators of ``m1`` followed by those of ``m2``."""
    seq = _generators(m1) + _generators(m2)
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1 if inversions % 2 else 1


def _basis(m, c=1):
    return Spinor({m: GaussRational(c)})


def test_wedge_of_every_pair_of_basis_forms():
    for m1 in range(16):
        for m2 in range(16):
            product = _basis(m1).wedge(_basis(m2))
            if m1 & m2:
                assert product == Spinor.zero() and not product.terms
            else:
                assert product == _basis(m1 | m2, _reference_sign(m1, m2))


def test_interior_and_degree_of_every_basis_form():
    for m in range(16):
        degree = bin(m).count("1")
        assert [_basis(m).is_homogeneous(d) for d in range(5)] == [
            d == degree for d in range(5)
        ]
        for k in range(sp.NFORMS):
            bit = 1 << k
            expected = Spinor.zero()
            if m & bit:
                # move generator k to the front past the generators below it
                expected = _basis(m ^ bit, (-1) ** bin(m & (bit - 1)).count("1"))
            assert _basis(m).interior(k) == expected


_gauss = st.builds(GaussRational, fraction_strategy(-3, 3, 3), fraction_strategy(-3, 3, 3))
_laurent = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(0, 1), st.just(0)), _gauss, max_size=2
).map(Scalar)
_coefficient = st.one_of(st.just(GR_ZERO), st.just(GR_ZERO), _gauss, _laurent)


@st.composite
def _dense_pairs(draw):
    """Two dense 16-coefficient forms; at each mask where a drawn boolean
    is true the second holds minus the first, so their sum cancels there."""
    a = [draw(_coefficient) for _ in range(16)]
    b = [-x if draw(st.booleans()) else draw(_coefficient) for x in a]
    return a, b


def _sparse(dense):
    return {m: c for m, c in enumerate(dense) if c}


@given(_dense_pairs())
@example(([GaussRational(2)] + [GR_ZERO] * 15,
          [Scalar.from_value(-2)] + [Scalar.t()] * 15))  # a mixed sum that cancels
def test_sum_difference_and_wedge_match_dense_reference(pair):
    a, b = pair
    x, y = Spinor(_sparse(a)), Spinor(_sparse(b))
    wedge = [GR_ZERO] * 16
    for m1 in range(16):
        for m2 in range(16):
            if not m1 & m2:
                wedge[m1 | m2] = wedge[m1 | m2] + a[m1] * b[m2] * _reference_sign(m1, m2)
    for result, dense in (
        (x + y, [p + q for p, q in zip(a, b)]),
        (x - y, [p - q for p, q in zip(a, b)]),
        (x - x, [GR_ZERO] * 16),
        (x.wedge(y), wedge),
    ):
        assert result.terms == _sparse(dense)
        assert all(result.terms.values())


def test_shared_forms_survive_the_flat_model_checks():
    i = GaussRational(0, 1)
    records = run_checks(RunConfig(
        t_samples=(Fraction(2),),
        zeta_samples=(GaussRational(0), GaussRational(HALF), i),
        names=("spinor-exp", "gcs-family", "spinor-gcs-match"),
    ))
    assert len(records) == 7 and all(r.verdict for r in records)
    # dz1^dz2 = dx1^dx2 + i dx1^dy2 + i dy1^dx2 - dy1^dy2 (dx1, dy1, dx2, dy2 = bits 0-3)
    assert sp.SIGMA.terms == {0b0101: 1, 0b1001: i, 0b0110: i, 0b1010: -1}
    assert sp.SIGMABAR.terms == {0b0101: 1, 0b1001: -i, 0b0110: -i, 0b1010: -1}
    assert sp.OMEGA_I.terms == {0b0011: 1, 0b1100: 1}
    rotation = [[0, 1], [-1, 0]]
    assert gcs.J_COMPLEX.matrix == CMatrix(
        [[rotation[r % 2][c % 2] if r // 2 == c // 2 else 0 for c in range(8)] for r in range(8)]
    )


def _column_annihilator(rho):
    """The annihilator from eight spinor columns, ``iota_k rho`` and
    ``dx_k ^ rho``, read mask by mask into a 16-row system."""
    columns = [rho.interior(k) for k in range(sp.NFORMS)]
    columns += [dk.wedge(rho) for dk in (sp.DX1, sp.DY1, sp.DX2, sp.DY2)]
    return kernel(CMatrix([[col.terms.get(mask, GR_ZERO) for col in columns] for mask in range(16)]))


_nonzero_gauss = _gauss.filter(bool)
_sample = st.builds(GaussRational, fraction_strategy(-3, 3, 3), fraction_strategy(-3, 3, 3))


@given(st.one_of(
    st.dictionaries(st.integers(0, 15), _nonzero_gauss, min_size=1).map(Spinor),
    st.builds(family_spinor, _sample, fraction_strategy(1, 5, 3)),
    st.builds(lambda b: exp_two_form(b * GR_I), st.sampled_from(
        [sp.OMEGA_I, sp.OMEGA_J, sp.OMEGA_K, sp.DX1.wedge(sp.DY2)])),
))
@example(sp.SIGMA)
@example(sp.DX1)
@example(Spinor.scalar(1) + sp.VOLUME)
def test_annihilator_matches_the_interior_and_wedge_columns(rho):
    assert clifford_annihilator(rho) == _column_annihilator(rho)
