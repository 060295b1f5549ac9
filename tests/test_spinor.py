from fractions import Fraction

import pytest

from gk3 import gcs
from gk3 import spinor as sp
from gk3.checks import DEFAULT_T_SAMPLES, DEFAULT_ZETA_SAMPLES
from gk3.linalg import eigenspace_i
from gk3.scalar import GR_I, GaussRational, PoleAtSample, Scalar
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
    s = sp.sigma()
    assert not s.wedge(s)
    assert s.wedge(sp.sigmabar()) == sp.volume() * 4
    assert sp.omega_i().wedge(sp.omega_i()) == sp.volume() * 2
    assert sp.omega_j().wedge(sp.omega_j()) == sp.volume() * 2
    assert sp.omega_k().wedge(sp.omega_k()) == sp.volume() * 2
    assert sp.omega_j() + sp.omega_k() * GR_I == s


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
    b = sp.omega_j() * Fraction(2, 3)
    assert exp_two_form(b).wedge(exp_two_form(-b)) == Spinor.scalar(1)
    with pytest.raises(WrongDegree):
        exp_two_form(sp.DX1)


def test_exp_identity_from_bfield_split():
    for z, t in [(z, Fraction(2)) for z in SAMPLES] + [(Scalar.zeta(), Scalar.t())]:
        b, om = bfield_symplectic_data(z, t)
        lhs = exp_two_form(b).wedge(exp_two_form(om * GR_I))
        st = sp.sigma() * t
        stb = sp.sigmabar() * t
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
    assert om == -sp.omega_j()
    b, om = bfield_symplectic_data(GaussRational(1), Fraction(1))
    assert not b
    assert om == sp.omega_k()
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
    assert b == sp.omega_j() * Fraction(3, 4)
    assert om == sp.omega_k() * Fraction(5, 4)
    # spherical-coordinate form: omega = csc(theta) ((cos phi) w_J + (sin phi) w_K)
    for zv in SAMPLES:
        n = zv.norm_sq()
        den = 1 + n
        ci, cj, ck = (1 - n) / den, -2 * zv.im / den, 2 * zv.re / den
        sin_sq = cj * cj + ck * ck
        bb, oo = bfield_symplectic_data(zv, t)
        expected_om = (sp.omega_j() * cj + sp.omega_k() * ck) * (1 / sin_sq)
        expected_b = (sp.omega_j() * ck - sp.omega_k() * cj) * (ci / sin_sq)
        assert oo == expected_om
        assert bb == expected_b


def test_family_spinor_specializations():
    t = Fraction(2)
    assert family_spinor(GaussRational(0), t) == sp.sigma() * t
    assert family_spinor_infinity(t) == sp.sigmabar() * t


def test_family_spinor_polynomial_coefficients():
    # degree <= 2 in zeta with the expected coefficient forms
    t = Scalar.t()
    z = Scalar.zeta()
    rho = family_spinor(z, t)
    st = sp.sigma() * t
    stb = sp.sigmabar() * t
    coeff0 = Spinor({m: c.zeta_coefficient(0) for m, c in rho.terms.items()})
    coeff1 = Spinor({m: c.zeta_coefficient(1) for m, c in rho.terms.items()})
    coeff2 = Spinor({m: c.zeta_coefficient(2) for m, c in rho.terms.items()})
    assert coeff0 == Spinor({m: c for m, c in st.terms.items()})
    assert coeff1 == (Spinor.scalar(1) - st.wedge(stb) * Fraction(1, 4)) * 2
    assert coeff2 == -stb


def test_annihilator_of_holomorphic_form():
    ann = clifford_annihilator(sp.sigma())
    assert ann.dim == 4
    assert ann == eigenspace_i(gcs.j_complex().matrix)


def test_annihilator_of_symplectic_exponential():
    rho = exp_two_form(sp.omega_j() * GR_I)
    assert clifford_annihilator(rho) == eigenspace_i(
        gcs.j_symplectic(sp.omega_j()).matrix
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
    assert clifford_annihilator(sp.sigma()).dim == 4
    assert clifford_annihilator(Spinor.scalar(1) + sp.volume()).dim < 4
    for z in SAMPLES:
        assert clifford_annihilator(family_spinor(z, Fraction(2))).dim == 4
    with pytest.raises(ZeroSpinor):
        clifford_annihilator(Spinor.zero())
