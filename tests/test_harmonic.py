import pytest

from gk3 import cohomology as coh
from gk3 import harmonic as ht
from gk3.cohomology import CohClass, mukai_pairing
from gk3.harmonic import (
    HTClass,
    NotInImage,
    contract_sigma,
    contract_sigma_inv,
    phi_homega,
    phi_ht,
    phi_t,
    todd_contract,
)
from gk3.scalar import Scalar

QUARTER = Scalar.monomial("1/4")

HT_BASIS = (ht.SIGMA_INV, ht.SIGMA_INV_C, ht.SIGMA_INV_F, ht.SIGMABAR)


def test_contraction_table():
    assert contract_sigma(ht.SIGMA_INV) == coh.ONE * 4
    assert contract_sigma(ht.SIGMABAR) == coh.ETA * 4
    assert contract_sigma(ht.SIGMA_INV_C) == coh.C
    assert contract_sigma(ht.SIGMA_INV_F) == coh.F
    assert contract_sigma(HTClass()) == CohClass()


def test_contraction_inverse():
    assert contract_sigma_inv(coh.ONE * 4) == ht.SIGMA_INV
    assert contract_sigma_inv(coh.C) == ht.SIGMA_INV_C
    for x in HT_BASIS:
        assert contract_sigma_inv(contract_sigma(x)) == x


def test_contraction_inverse_domain():
    with pytest.raises(NotInImage):
        contract_sigma_inv(coh.SIGMA)


def test_phi_homega_table():
    assert phi_homega(coh.ONE) == -coh.C - coh.F
    assert phi_homega(coh.ETA) == coh.F
    assert phi_homega(coh.C) == coh.ONE + coh.ETA
    assert phi_homega(coh.F) == -coh.ETA
    # linearity over the table
    assert phi_homega(coh.C + coh.ETA) == coh.ONE + coh.F + coh.ETA


def test_phi_homega_isometry_all_pairs():
    basis = (coh.ONE, coh.C, coh.F, coh.SIGMA, coh.SIGMABAR, coh.ETA)
    for x in basis:
        for y in basis:
            assert mukai_pairing(phi_homega(x), phi_homega(y)) == mukai_pairing(x, y)


PHI_HT_EXPECTED = {
    0: -ht.SIGMA_INV_C - ht.SIGMA_INV_F,  # image of (1/4) sigma^-1
    1: ht.SIGMA_INV * QUARTER + ht.SIGMABAR * QUARTER,  # image of sigma^-1 C
    2: -(ht.SIGMABAR * QUARTER),  # image of sigma^-1 F
    3: ht.SIGMA_INV_F,  # image of (1/4) sigmabar
}


def test_phi_ht_table():
    assert phi_ht(ht.SIGMA_INV * QUARTER) == PHI_HT_EXPECTED[0]
    assert phi_ht(ht.SIGMA_INV_C) == PHI_HT_EXPECTED[1]
    assert phi_ht(ht.SIGMA_INV_F) == PHI_HT_EXPECTED[2]
    assert phi_ht(ht.SIGMABAR * QUARTER) == PHI_HT_EXPECTED[3]


def test_phi_ht_composition_never_leaves_image():
    for x in HT_BASIS:
        phi_ht(x)  # must not raise NotInImage


def test_todd_contract():
    assert todd_contract(ht.SIGMA_INV, -1) == ht.SIGMA_INV - ht.SIGMABAR
    assert todd_contract(ht.SIGMABAR, +1) == ht.SIGMABAR
    assert todd_contract(ht.SIGMA_INV_C, +1) == ht.SIGMA_INV_C
    assert todd_contract(ht.SIGMA_INV_C, -1) == ht.SIGMA_INV_C
    with pytest.raises(ValueError):
        todd_contract(ht.SIGMA_INV, 0)


def test_todd_contract_involution():
    for x in HT_BASIS:
        assert todd_contract(todd_contract(x, -1), +1) == x


def test_phi_t_table():
    assert phi_t(ht.SIGMA_INV * QUARTER) == -ht.SIGMA_INV_C - ht.SIGMA_INV_F * 2
    assert phi_t(ht.SIGMABAR * QUARTER) == ht.SIGMA_INV_F
    assert phi_t(ht.SIGMA_INV_C) == ht.SIGMA_INV * QUARTER + ht.SIGMABAR * (QUARTER * 2)
    assert phi_t(ht.SIGMA_INV_F) == -(ht.SIGMABAR * QUARTER)


def test_phi_t_and_phi_ht_square_to_minus_identity():
    # so -phi_T is the inverse of phi_T, and -phi_HT that of phi_HT
    for x in HT_BASIS:
        assert phi_t(phi_t(x)) == -x
        assert phi_ht(phi_ht(x)) == -x


def test_phi_maps_are_linear():
    x = ht.SIGMA_INV * 3 - ht.SIGMA_INV_F * Scalar.t()
    y = ht.SIGMABAR * Scalar.zeta()
    for mapping in (phi_ht, phi_t):
        assert mapping(x + y) == mapping(x) + mapping(y)
