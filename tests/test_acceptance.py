"""Acceptance suite: every criterion is an exact (zero-tolerance) identity.

Each criterion names the registry records it consists of and asserts on
the records of one run of every check on the default grids: five values
of t in (1, infinity), twenty Gaussian-rational values of zeta including
points on the unit circle, and 1000 cases per randomized suite.  It
picks them by the registry's rule, :func:`gk3.checks.selects`: a bare
check name stands for all of its records.  Run with ``pytest -s`` to see
one line per record.  The structured report of that run is pinned
byte for byte in ``tests/data/default_grid_structured.json``; a change
that alters a record on purpose regenerates it with
``gk3 verify all --format structured``.
"""

from pathlib import Path

import pytest

from gk3.checks import RunConfig, run_checks, selects
from gk3.cli import _render

GOLDEN = Path(__file__).parent / "data" / "default_grid_structured.json"


@pytest.fixture(scope="module")
def records():
    return run_checks(RunConfig())


def _criterion(records, *names):
    chosen = [d for d in records if selects(names, d.name)]
    missing = [n for n in names if not any(selects((n,), d.name) for d in chosen)]
    assert not missing, f"no record for {missing}"
    for d in chosen:
        print(f"{'PASS' if d.verdict else 'FAIL'}  {d.name}  {d.params}")
    assert not [f"{d.name}: {d.witness}" for d in chosen if not d.verdict]
    return {d.name: d for d in chosen}


def test_criterion_01_phi_omega_table_and_isometry(records):
    _criterion(records, "phiOmega-table", "phiOmega-isometry")


def test_criterion_02_contraction_table(records):
    _criterion(records, "contraction-table")


def test_criterion_03_conjugated_transform_table(records):
    _criterion(records, "phiHT-table")


def test_criterion_04_todd_twisted_table(records):
    _criterion(records, "phiT-table")


def test_criterion_05_direction_correspondence(records):
    _criterion(records, "bfield-correction")


def test_criterion_06_kahler_arithmetic(records):
    _criterion(records, "kahler-arithmetic")


def test_criterion_07_period_identities(records):
    _criterion(records, "period-squares")


def test_criterion_08_spinor_exponential(records):
    chosen = _criterion(records, "spinor-exp")
    assert chosen["spinor-exp[identity]"].params == {"samples": 100}


def test_criterion_09_family_algebra(records):
    _criterion(records, "gcs-family")


def test_criterion_10_spinor_structure_agreement(records):
    _criterion(records, "spinor-gcs-match")


def test_criterion_11_deformation_directions(records):
    _criterion(
        records,
        "direction-pointwise",
        "direction-lattice[twistor]",
        "direction-lattice[interpolation]",
    )


def test_criterion_12_mirror_correspondence(records):
    _criterion(records, "mirror-thm4", "normalize-roundtrip")


def test_criterion_13_limits(records):
    _criterion(records, "limits")


def test_criterion_14_property_suites(records):
    _criterion(
        records,
        "scalar-ring-axioms",
        "conj-involution",
        "wedge-associativity",
        "subspace-roundtrip",
        "btransform-group",
    )


def test_default_grid_report_is_pinned(records):
    assert _render(records, "structured") + "\n" == GOLDEN.read_text()
