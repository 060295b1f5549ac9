"""The row form of the exact-identity checks.

Each row's residual is computed when its check runs, once per run, and
reaches the package through module attributes, so a patched attribute
changes the verdict of exactly the rows that read it, and a failing
record's witness is its printed nonzero residual.
"""

import pytest

from gk3 import checks
from gk3 import cohomology as coh
from gk3 import families as fam
from gk3 import harmonic as ht
from gk3.checks import RunConfig, run_checks
from gk3.harmonic import HTClass
from gk3.linalg import CMatrix
from gk3.scalar import Scalar

# family identity -> the record that reads its residual
FAMILY_RECORDS = {
    "alpha-dot-C": "kahler-arithmetic[alpha-dot-C]",
    "alpha-dot-F": "kahler-arithmetic[alpha-dot-F]",
    "alpha-squared": "kahler-arithmetic[alpha-squared]",
    "alpha-dot-C-at-t-1": "kahler-arithmetic[alpha-dot-C-at-t-1]",
    "correction-is-halved-inverse-t": "bfield-correction[phiT]",
    "untwisted-correction-vanishes": "bfield-correction[phiHT]",
    "twistor-direction-recovered": "direction-lattice[twistor]",
    "interpolation-direction-recovered": "direction-lattice[interpolation]",
}


def _failures(*names):
    """``{record: witness}`` of the failing records of one run of ``names``."""
    return {d.name: d.witness for d in run_checks(RunConfig(names=names)) if not d.verdict}


def test_rows_call_the_transform_when_the_check_runs(monkeypatch):
    original = ht.phi_t
    monkeypatch.setattr(ht, "phi_t", lambda x: original(x) + HTClass(qF=1))
    phi_t_inputs = ("(1/4)*sigma^-1", "(1/4)*sigmabar", "sigma^-1*C", "sigma^-1*F")
    assert _failures("phiT-table", "phiHT-table", "limits") == {
        **{f"phiT-table[{label}]": "(1)*sigma^-1*F" for label in phi_t_inputs},
        "limits[t-1-image]": "(1)*sigma^-1*F",
        "limits[infinity]": "(1)*sigma^-1*F",
    }


# module, attribute, the class the fault adds to its value, and
# {record: witness} of the family records that read the attribute
FAMILY_FAULTS = (
    (fam, "bfield_correction", HTClass(qC=1), {
        "bfield-correction[phiT]": "(1)*sigma^-1*C",
        "direction-lattice[correction-components]": "(1)*sigma^-1*C",
    }),
    (fam, "bfield_correction_untwisted", HTClass(qC=1), {
        "bfield-correction[phiHT]": "(1)*sigma^-1*C",
    }),
    (fam, "direction_from_spinor_family", HTClass(qC=1), {
        "direction-lattice[twistor]": "(1)*sigma^-1*C",
        "direction-lattice[interpolation]": "(1)*sigma^-1*C",
    }),
    # u_t and the twistor period both read the polarizing class through
    # the module, so direction-lattice[twistor] still passes
    (coh, "alpha_class", coh.C, {
        "kahler-arithmetic[alpha-dot-C]": "-2",
        "kahler-arithmetic[alpha-dot-F]": "1",
        "kahler-arithmetic[alpha-squared]": "2*t - 2 - 2*t^-1",
        "kahler-arithmetic[alpha-dot-C-at-t-1]": "-2",
        "bfield-correction[phiT]": "(-1/2)*sigma^-1 + (-1)*sigmabar",
        "bfield-correction[phiHT]": "(-1/2)*sigma^-1 + (-1/2)*sigmabar",
        "direction-lattice[correction-components]": "(-1/2)*sigma^-1",
    }),
)


@pytest.mark.parametrize(
    "module, attribute, fault, expected", FAMILY_FAULTS, ids=[f[1] for f in FAMILY_FAULTS])
def test_family_rows_read_patched_attributes(monkeypatch, module, attribute, fault, expected):
    original = getattr(module, attribute)
    monkeypatch.setattr(module, attribute, lambda x: original(x) + fault)
    assert _failures("kahler-arithmetic", "bfield-correction", "direction-lattice") == expected


@pytest.mark.parametrize("key", list(FAMILY_RECORDS))
def test_family_rows_share_one_evaluation_per_run(monkeypatch, key):
    record = FAMILY_RECORDS[key]
    label = record[record.index("[") + 1:-1]
    original = checks._identities
    calls = []

    def faulty(rows):
        def counted(residual):
            def evaluate():
                calls.append(residual())
                return Scalar.t()
            return evaluate

        return original(
            (lbl, statement, params, counted(residual) if lbl == label else residual)
            for lbl, statement, params, residual in rows)

    monkeypatch.setattr(checks, "_identities", faulty)
    failures = {}
    for name in ("kahler-arithmetic", "bfield-correction", "direction-lattice"):
        calls.clear()
        failures.update(_failures(name))
        assert len(calls) == (1 if record.startswith(name + "[") else 0), name
        assert not any(calls), name
    assert failures == {record: "t"}


def test_correction_components_witness_is_the_part_off_sigmabar(monkeypatch):
    original = fam.bfield_correction
    monkeypatch.setattr(fam, "bfield_correction", lambda t: original(t) + HTClass(qC=1))
    assert _failures("direction-lattice") == {
        "direction-lattice[correction-components]": "(1)*sigma^-1*C",
    }


def test_a_zero_matrix_residual_passes():
    nonzero = CMatrix([[0, 1], [0, 0]])
    rows = (("zero", "a matrix identity", {}, lambda: CMatrix.zeros(2, 2)),
            ("nonzero", "a matrix identity", {}, lambda: nonzero))
    zero, wrong = (checks._verdict(label, *verdict)
                   for label, *verdict in checks._identities(rows))
    assert (zero.verdict, zero.witness) == (True, "0")
    assert (wrong.verdict, wrong.witness) == (False, str(nonzero))
