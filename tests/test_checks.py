"""The row form of the exact-identity checks.

Each row's residual is computed when its check runs and reaches the
package through module attributes, so a patched attribute changes the
verdict; what the rows of a check share is computed once per run; and a
failing record's witness is its printed nonzero residual.
"""

import pytest

from gk3 import families as fam
from gk3 import harmonic as ht
from gk3.checks import RunConfig, run_checks
from gk3.harmonic import HTClass
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


@pytest.mark.parametrize("key", list(FAMILY_RECORDS))
def test_family_rows_share_one_evaluation_per_run(monkeypatch, key):
    original = fam.family_identities
    assert set(original(Scalar.t())) == set(FAMILY_RECORDS)
    calls = []

    def counted(t):
        calls.append(t)
        return {**original(t), key: Scalar.t()}

    monkeypatch.setattr(fam, "family_identities", counted)
    failures = {}
    for name in ("kahler-arithmetic", "bfield-correction", "direction-lattice"):
        calls.clear()
        failures.update(_failures(name))
        assert len(calls) == 1, name
    assert failures == {FAMILY_RECORDS[key]: "t"}


def test_correction_components_witness_is_the_part_off_sigmabar(monkeypatch):
    original = fam.bfield_correction
    monkeypatch.setattr(fam, "bfield_correction", lambda t: original(t) + HTClass(qC=1))
    assert _failures("direction-lattice") == {
        "direction-lattice[correction-components]": "(1)*sigma^-1*C",
    }
