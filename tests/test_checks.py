"""The row form of the exact-identity checks.

Each row's residual is computed when its check runs, once per run, and
reaches the package through module attributes, so a patched attribute
changes the verdict of exactly the rows that read it.  A failing
record's witness is its printed nonzero residual, or the failures its
residual lists; a sample walk's names the points that failed.
"""

from fractions import Fraction

import pytest

from gk3 import checks
from gk3 import cohomology as coh
from gk3 import families as fam
from gk3 import gcs
from gk3 import harmonic as ht
from gk3 import mirror as mir
from gk3 import spinor as sp
from gk3.checks import RunConfig, run_checks
from gk3.harmonic import HTClass
from gk3.linalg import CMatrix
from gk3.scalar import GaussRational, Scalar

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


def _failures(*names, **grids):
    """``{record: witness}`` of the failing records of one run of ``names``,
    on the default grid or the ``t_samples``, ``zeta_samples`` given."""
    cfg = RunConfig(names=names, **grids)
    return {d.name: d.witness for d in run_checks(cfg) if not d.verdict}


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
    calls = []  # (label, value) of each residual computed

    def faulty(wanted, rows):
        def counted(lbl, residual):
            def evaluate():
                calls.append((lbl, residual()))
                return Scalar.t() if lbl == label else calls[-1][1]
            return evaluate

        return original(wanted, ((lbl, statement, params, counted(lbl, residual))
                                 for lbl, statement, params, residual in rows))

    monkeypatch.setattr(checks, "_identities", faulty)
    failures = {}
    for name in ("kahler-arithmetic", "bfield-correction", "direction-lattice"):
        calls.clear()
        failures.update(_failures(name))
        values = [value for lbl, value in calls if lbl == label]
        assert len(values) == (1 if record.startswith(name + "[") else 0), name
        assert not any(values), name
    assert failures == {record: "t"}
    # the record named alone computes its own residual and no other
    calls.clear()
    assert _failures(record) == {record: "t"}
    assert [lbl for lbl, _ in calls] == [label]


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
    zero, wrong = (checks.CheckDescriptor(label, *verdict)
                   for label, *verdict in checks._identities(lambda label: True, rows))
    assert (zero.verdict, zero.witness) == (True, "0")
    assert (wrong.verdict, wrong.witness) == (False, str(nonzero))


def test_a_list_residual_is_the_list_of_failures():
    rows = (("none", "a claim", {}, lambda: []),
            ("two", "a claim", {}, lambda: ["first", "second"]))
    held, failed = (checks.CheckDescriptor(label, *verdict)
                    for label, *verdict in checks._identities(lambda label: True, rows))
    assert (held.verdict, held.witness) == (True, "0")
    assert (failed.verdict, failed.witness) == (False, "first; second")


# the checks of the records that exact rows and one-grid walks build, and a
# one-t, two-zeta grid to run them on
CONVERTED = ("phiOmega-isometry", "bfield-correction", "spinor-exp", "mirror-thm4",
             "normalize-roundtrip", "direction-pointwise")
SMALL_GRID = {"t_samples": (Fraction(2),),
              "zeta_samples": (GaussRational(Fraction(1, 2)), GaussRational(0, 1))}
SPINOR_SHIFT = "(1)*dx1^dx2 + (-i)*dy1^dx2 + (-i)*dx1^dy2 + (-1)*dy1^dy2"  # sigmabar

# test id -> (module, attribute, the fault as a wrapper of the original,
# {record: witness} of the failing records of CONVERTED)
CONVERTED_FAULTS = {
    "phi_homega": (ht, "phi_homega", lambda phi: lambda x: phi(x) + coh.F, {
        "phiOmega-isometry": "<one,one>: -2; <one,C>: -1; <one,F>: -1; ... (6 failures)",
        "bfield-correction[phiT]": "(1)*sigma^-1*F",
        "bfield-correction[phiHT]": "(1)*sigma^-1*F",
    }),
    # the coefficient -1/(2t) + t grows along every step
    "bfield_correction": (
        fam, "bfield_correction", lambda corr: lambda t: corr(t) + HTClass(r=t), {
            "bfield-correction[phiT]": "(t)*sigmabar",
            "bfield-correction[decay]": "t=10^1..10^2: squared modulus 39601/400 -> "
            "399960001/40000; t=10^2..10^3: squared modulus 399960001/40000 -> "
            "3999996000001/4000000; t=10^3..10^4: squared modulus 3999996000001/4000000 -> "
            "39999999600000001/400000000; ... (5 failures)",
        }),
    # the coefficient -1/(2t) + i*t: its real part shrinks, its modulus grows
    "bfield_correction-imaginary": (
        fam, "bfield_correction", lambda corr: lambda t: corr(t) + HTClass(r=Scalar.i() * t), {
            "bfield-correction[phiT]": "(i*t)*sigmabar",
            "bfield-correction[decay]": "t=10^1..10^2: squared modulus 40001/400 -> "
            "400000001/40000; t=10^2..10^3: squared modulus 400000001/40000 -> "
            "4000000000001/4000000; t=10^3..10^4: squared modulus 4000000000001/4000000 -> "
            "40000000000000001/400000000; ... (5 failures)",
        }),
    # moves the value at zeta = 0, the zeta^2 coefficient and the top power
    "family_spinor": (
        sp, "family_spinor",
        lambda rho: lambda z, t: rho(z, t) + sp.SIGMABAR * (1 + z**2 + z**3), {
            "spinor-exp[identity]": "t=2, zeta=1/2; t=2, zeta=i",
            "spinor-exp[specializations]":
                f"zeta=0: {SPINOR_SHIFT}; infinity: {SPINOR_SHIFT}; zeta^3",
        }),
    # the residual of the congruence moves off zero by the fibre class
    "verify_theorem4": (mir, "verify_theorem4", lambda verify: lambda t, z: verify(t, z) + coh.F, {
        "mirror-thm4[symbolic]": "(1)*F",
        "mirror-thm4[samples]": "t=2, zeta=1/2; t=2, zeta=i",
    }),
    # omega + F pairs with itself to omega^2 + 2
    "normalize_mod_F": (
        mir, "normalize_mod_F",
        lambda solve: lambda q: (lambda b, w, r, m: (b, w + coh.F, r, m))(*solve(q)), {
            "normalize-roundtrip[fixed-point]": "omega",
            "normalize-roundtrip[perturbation]": "omega",
            "normalize-roundtrip[constraints]": "Im^2=w^2: -2; Re^2=w^2: -2",
        }),
    "twistor_direction_matrix": (
        gcs, "twistor_direction_matrix",
        lambda closed: lambda z: closed(z) + CMatrix.identity(2), {
            "direction-pointwise[twistor]": "zeta=1/2; zeta=i",
        }),
    "deformation_graph_Y": (
        gcs, "deformation_graph_Y",
        lambda graph: lambda z, t: graph(z, t) + CMatrix.identity(4), {
            "direction-pointwise[linearity]": "t=2",
        }),
}


@pytest.mark.parametrize("module, attribute, fault, expected", list(CONVERTED_FAULTS.values()),
                         ids=list(CONVERTED_FAULTS))
def test_converted_records_fail_with_their_witnesses(
        monkeypatch, module, attribute, fault, expected):
    monkeypatch.setattr(module, attribute, fault(getattr(module, attribute)))
    assert _failures(*CONVERTED, **SMALL_GRID) == expected


# a selection, a module attribute, and how often one run of the selection on
# the default grid calls it: a record named alone does its own work only
SELECTION_CALLS = (
    ("mirror-thm4", mir, "verify_theorem4", 101),
    ("mirror-thm4[symbolic]", mir, "verify_theorem4", 1),
    ("gcs-family", gcs, "b_transform", 100),
    ("gcs-family[algebra]", gcs, "b_transform", 0),
    ("btransform-group[x]", gcs, "b_transform", 0),
    ("direction-pointwise", gcs, "eigenspace_graph", 115),
    ("direction-pointwise[twistor]", gcs, "eigenspace_graph", 0),
    ("gcs-family", gcs, "j_zeta", 100),
    ("gcs-family[unit-circle]", gcs, "j_zeta", 30),
    ("spinor-gcs-match", sp, "clifford_annihilator", 100),
    ("direction-pointwise[twistor]", gcs, "polyvector_action", 0),
    ("normalize-roundtrip", mir, "normalize_mod_F", 2),
    ("normalize-roundtrip[fixed-point]", mir, "normalize_mod_F", 1),
)


@pytest.mark.parametrize("name, module, attribute, count", SELECTION_CALLS,
                         ids=[f"{name}-{attribute}" for name, _, attribute, _ in SELECTION_CALLS])
def test_a_selection_calls_only_its_records_work(monkeypatch, name, module, attribute, count):
    original, calls = getattr(module, attribute), []
    monkeypatch.setattr(module, attribute, lambda *args: calls.append(args) or original(*args))
    run_checks(RunConfig(names=(name,)))
    assert len(calls) == count


@pytest.mark.parametrize("grid, witness", [
    ({}, "0"),
    (SMALL_GRID, "0"),
    ({"zeta_samples": (GaussRational(Fraction(1, 2)),)}, "no samples evaluated"),
], ids=["default", "small", "one-zeta"])
def test_linearity_runs_alone(grid, witness):
    def linearity(name):
        (record,) = [(d.params, d.verdict, d.witness) for d in run_checks(RunConfig(
            names=(name,), **grid)) if d.name == "direction-pointwise[linearity]"]
        return record

    alone = linearity("direction-pointwise[linearity]")
    assert alone == linearity("direction-pointwise")
    assert alone[2] == witness


def test_every_record_runs_alone():
    # zeta = 0, a unit-circle zeta and a real one: every skip rule applies somewhere
    zetas = (GaussRational(0), GaussRational(0, 1), GaussRational(Fraction(1, 2)))
    grid = {"t_samples": (Fraction(2),), "zeta_samples": zetas, "cases": 5}
    full = {d.name: (d.params, d.verdict, d.witness) for d in run_checks(RunConfig(**grid))}
    alone = {name: [(d.params, d.verdict, d.witness)
                    for d in run_checks(RunConfig(names=(name,), **grid))] for name in full}
    assert len(full) == 54
    assert alone == {name: [record] for name, record in full.items()}
