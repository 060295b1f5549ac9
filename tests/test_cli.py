import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gk3
from gk3 import spinor as sp
from gk3.checks import (
    DEFAULT_T_SAMPLES,
    DEFAULT_ZETA_SAMPLES,
    REGISTRY_NAMES,
    CheckDescriptor,
    ConfigError,
    _FRACTION,
    _GAUSS,
    _NONZERO,
    _POOL,
    _SHAPE,
    _TERM,
    _TERM_COUNT,
    _TWO_FORM,
    RunConfig,
    _draws,
    _rand_coh,
    _rand_fraction,
    _rand_gauss,
    _rand_matrix,
    _rand_scalar,
    _rand_two_form,
    _spec,
    run_checks,
)
from gk3.cli import main
from gk3.cohomology import CohClass
from gk3.harmonic import HTClass
from gk3.linalg import CMatrix
from gk3.scalar import GaussRational, Scalar

FAST = RunConfig(
    t_samples=(Fraction(3, 2), Fraction(2)),
    zeta_samples=(
        GaussRational(Fraction(1, 2)),
        GaussRational(0, 1),
        GaussRational(Fraction(3, 5), Fraction(4, 5)),
    ),
    cases=25,
)


def test_default_grids():
    assert len(DEFAULT_T_SAMPLES) == 5
    assert all(t > 1 for t in DEFAULT_T_SAMPLES)
    assert len(DEFAULT_ZETA_SAMPLES) == 20
    assert GaussRational(0, 1) in DEFAULT_ZETA_SAMPLES
    assert GaussRational("3/5", "4/5") in DEFAULT_ZETA_SAMPLES
    assert sum(1 for z in DEFAULT_ZETA_SAMPLES if z.norm_sq() == 1) >= 2


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(t_samples=()).validate()
    with pytest.raises(ConfigError):
        RunConfig(t_samples=(Fraction(1, 2),)).validate()
    with pytest.raises(ConfigError):
        RunConfig(names=("no-such-check",)).validate()


def test_registry_names_unique_and_filterable():
    assert len(set(REGISTRY_NAMES)) == len(REGISTRY_NAMES)
    for name in REGISTRY_NAMES:
        cfg = RunConfig(
            t_samples=FAST.t_samples,
            zeta_samples=FAST.zeta_samples,
            names=(name,),
            cases=5,
        )
        descriptors = run_checks(cfg)
        assert descriptors, name
        assert all(d.name.split("[")[0] == name for d in descriptors)


def test_phiT_table_gives_four_verdicts():
    cfg = RunConfig(names=("phiT-table",))
    descriptors = run_checks(cfg)
    assert len(descriptors) == 4
    assert all(d.verdict for d in descriptors)


def test_full_run_passes_fast_grid():
    descriptors = run_checks(FAST)
    bad = [d.name for d in descriptors if not d.verdict]
    assert not bad, bad


def test_structured_output_is_deterministic(capsys):
    assert main(["verify", "phiOmega-table", "--format", "structured"]) == 0
    first = capsys.readouterr().out
    records = json.loads(first)
    assert len(records) == 4
    assert records[0]["verdict"] == "pass"
    assert records[0]["witness"] == "0"
    assert main(["verify", "phiOmega-table", "--format", "structured"]) == 0
    assert capsys.readouterr().out == first


KNOWN = ", ".join(REGISTRY_NAMES)


def test_cli_verify_unknown_name(capsys):
    assert main(["verify", "bogus"]) == 2
    assert capsys.readouterr().err == f"error: unknown check names: bogus; known: {KNOWN}\n"
    # a record name of an unknown check is unknown too
    assert main(["verify", "nope[algebra]"]) == 2
    assert capsys.readouterr().err == (
        f"error: unknown check names: nope[algebra]; known: {KNOWN}\n")


def test_cli_config_unknown_check_name(tmp_path, capsys):
    # the config file and the command line share one validation
    cfg = tmp_path / "run.cfg"
    cfg.write_text("checks = limits, bogus\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: unknown check names: bogus; known: {KNOWN}\n"


def test_cli_transform(capsys):
    assert main(["transform", "--map", "phiT", "--expr", "sigma^-1*C"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "(1/4)*sigma^-1 + (1/2)*sigmabar"
    assert main(["transform", "--map", "phiOmega", "--expr", "C + eta"]) == 0
    assert capsys.readouterr().out.strip() == "(1)*one + (1)*F + (1)*eta"


def test_cli_transform_bad_expr(capsys):
    assert main(["transform", "--map", "phiT", "--expr", "C + +"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["eval", "--expr", "²"]) == 2
    assert "column 1" in capsys.readouterr().err


def test_cli_eval(capsys):
    assert main(["eval", "--expr", "(t^2-1)/t", "--t", "2"]) == 0
    assert capsys.readouterr().out.strip() == "3/2"
    assert main(["eval", "--expr", "zeta*zetabar", "--zeta", "i"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["eval", "--expr", "(t^2+1)/t"]) == 0
    assert capsys.readouterr().out.strip() == "t + t^-1"


def test_cli_eval_pole(capsys):
    assert main(["eval", "--expr", "1/t", "--t", "0"]) == 2
    assert main(["eval", "--expr", "t", "--zeta", "1"]) == 2
    assert main(["mirror", "--t", "2", "--zeta", "0"]) == 2
    capsys.readouterr()


# ``gcs``/``spinor --check`` choice -> the record README's table names for it
README_POINTWISE_RECORDS = {
    ("gcs", "square"): "gcs-family[algebra]",
    ("gcs", "orthogonal"): "gcs-family[algebra]",
    ("gcs", "graph"): "direction-pointwise[interpolation]",
    ("gcs", "spinor-match"): "spinor-gcs-match[annihilator]",
    ("spinor", "purity"): "spinor-gcs-match[purity]",
    ("spinor", "annihilator-match"): "spinor-gcs-match[annihilator]",
    ("spinor", "exp-identity"): "spinor-exp[identity]",
}


def test_cli_gcs_and_spinor(capsys):
    points = {"gcs": ["--zeta", "1/2+1/3*i", "--t", "2"], "spinor": ["--zeta", "1/2", "--t", "3/2"]}
    for (command, check), name in README_POINTWISE_RECORDS.items():
        assert main([command, *points[command], "--check", check]) == 0
        capsys.readouterr()
        # each choice prints exactly its record
        assert main([command, *points[command], "--check", check, "--format", "structured"]) == 0
        assert [r["name"] for r in json.loads(capsys.readouterr().out)] == [name]
    assert main(["spinor", "--zeta", "1/2", "--t", "2", "--check", "exp-identity",
                 "--format", "structured"]) == 0
    (record,) = json.loads(capsys.readouterr().out)
    assert record["name"] == "spinor-exp[identity]"
    assert record["params"] == {"samples": "1"}


def _one_point(name, zetas, ts=(Fraction(2),)):
    cfg = RunConfig(t_samples=ts, zeta_samples=tuple(zetas), names=(name,))
    return {d.name: d for d in run_checks(cfg)}


def test_one_point_grids():
    identity = _one_point("spinor-exp", [GaussRational(0)])["spinor-exp[identity]"]
    assert not identity.verdict and identity.witness == "no samples evaluated"
    circle = _one_point("gcs-family", [GaussRational(Fraction(1, 2))])
    assert not circle["gcs-family[unit-circle]"].verdict
    assert circle["gcs-family[algebra]"].verdict
    ts = (Fraction(3, 2), Fraction(2))
    samples = _one_point("mirror-thm4", [GaussRational(0), GaussRational(Fraction(1, 2))], ts)
    assert samples["mirror-thm4[samples]"].params == {"samples": 2}
    assert samples["mirror-thm4[samples]"].verdict
    # the B-field split skips zeta = 0, so it is not counted; at zeta = 0 the
    # member is the complex structure, which the transverse claim covers
    zetas = [GaussRational(0), GaussRational(Fraction(1, 2))]
    factor = _one_point("gcs-family", zetas)["gcs-family[b-transform]"]
    assert factor.params == {"samples": 1} and factor.verdict
    transverse = _one_point("direction-pointwise", zetas)["direction-pointwise[transverse]"]
    assert transverse.params == {"samples": 2} and transverse.verdict
    linearity = _one_point("direction-pointwise", [GaussRational(Fraction(1, 2))])
    assert linearity["direction-pointwise[linearity]"].params == {"t-samples": 0}
    assert linearity["direction-pointwise[linearity]"].witness == "no samples evaluated"


def test_cli_verify_single_zeta_does_not_crash(capsys):
    assert main(["verify", "direction-pointwise", "--zeta", "i", "--t", "2"]) == 1
    out, err = capsys.readouterr()
    assert "direction-pointwise[linearity]" in out and "no samples evaluated" in out
    assert err == ""


def test_failing_witness_counts_failures():
    record = CheckDescriptor("demo", "forced", {}, [f"sample {n}" for n in range(5)], evaluated=5)
    assert not record.verdict
    assert record.witness == "sample 0; sample 1; sample 2; ... (5 failures)"
    assert CheckDescriptor("demo", "forced", {}, [], evaluated=0).witness == "no samples evaluated"


def test_internal_error_is_not_a_usage_error(monkeypatch):
    from gk3 import families

    def fault(t):
        raise ArithmeticError("internal fault")

    monkeypatch.setattr(families, "bfield_correction", fault)
    with pytest.raises(ArithmeticError, match="internal fault"):
        main(["families", "--t", "2"])


# the records of kahler-arithmetic, bfield-correction and
# direction-lattice, in registry order
FAMILY_RECORDS = (
    "bfield-correction[phiT]",
    "bfield-correction[phiHT]",
    "bfield-correction[decay]",
    "kahler-arithmetic[alpha-dot-C]",
    "kahler-arithmetic[alpha-dot-F]",
    "kahler-arithmetic[alpha-squared]",
    "kahler-arithmetic[alpha-dot-C-at-t-1]",
    "direction-lattice[twistor]",
    "direction-lattice[interpolation]",
    "direction-lattice[correction-components]",
)


def _verdict_lines(out):
    """``(status, record)`` of each verdict line of a text report."""
    return [tuple(line.split()[:2]) for line in out.splitlines()
            if line.startswith(("pass ", "FAIL "))]


def test_cli_families(capsys):
    assert main(["families", "--t", "symbolic", "--report"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "t = t",
        "  twistor direction        u_t = (-2*t^-1)*sigma^-1*C + (-2*t - 2*t^-1)*sigma^-1*F",
        "  interpolation direction  v_t = (-1/2*t^-1)*sigma^-1 + (1/2*t)*sigmabar",
        "  correction    phi_t(u_t)-v_t = (-1/2*t^-1)*sigmabar",
    ]
    assert _verdict_lines("\n".join(lines[4:])) == [("pass", name) for name in FAMILY_RECORDS]
    assert lines[-1] == "10/10 checks passed" and len(lines) == 15
    assert main(["families", "--t", "2", "--report", "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    records = report.pop("records")
    assert report == {
        "correction": "(-1/4)*sigmabar",
        "direction_x": "(-1)*sigma^-1*C + (-5)*sigma^-1*F",
        "direction_y": "(-1/4)*sigma^-1 + (1)*sigmabar",
        "t": "2",
    }
    assert [(r["name"], r["verdict"]) for r in records] == [
        (name, "pass") for name in FAMILY_RECORDS]


def test_cli_families_reports_a_failing_identity(monkeypatch, capsys):
    from gk3 import families

    original = families.bfield_correction_untwisted
    monkeypatch.setattr(families, "bfield_correction_untwisted",
                        lambda t: original(t) + HTClass(qC=1))
    assert main(["families", "--t", "2"]) == 1
    out = capsys.readouterr().out
    assert "[residual: (1)*sigma^-1*C]" in out
    verdicts = _verdict_lines(out)
    assert [name for status, name in verdicts if status == "FAIL"] == [
        "bfield-correction[phiHT]"]
    assert len(verdicts) == len(FAMILY_RECORDS)


def test_cli_mirror(capsys):
    for t, zeta, record in (
        ("symbolic", "symbolic", "mirror-thm4[symbolic]"),
        # the symbolic congruence certifies every specialization
        ("symbolic", "1/2", "mirror-thm4[symbolic]"),
        ("2", "symbolic", "mirror-thm4[symbolic]"),
        ("2", "1/2+1/3*i", "mirror-thm4[samples]"),
    ):
        assert main(["mirror", "--t", t, "--zeta", zeta]) == 0
        out = capsys.readouterr().out
        assert _verdict_lines(out) == [("pass", record)]
        assert out.endswith("1/1 checks passed\n")


def test_cli_mirror_reports_a_failing_congruence(monkeypatch, capsys):
    from gk3 import mirror

    # the residual of the congruence moves off zero by the fibre class
    original = mirror.verify_theorem4
    monkeypatch.setattr(mirror, "verify_theorem4",
                        lambda t, zeta: original(t, zeta) + CohClass(cF=1))
    assert main(["mirror", "--t", "2", "--zeta", "1/2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL  mirror-thm4[samples]") and "[residual: t=2, zeta=1/2]" in out
    assert main(["mirror", "--t", "symbolic", "--zeta", "symbolic"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL  mirror-thm4[symbolic]") and "[residual: (1)*F]" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "kahler-arithmetic"],
        ["gcs", "--zeta", "1/2+1/3*i", "--t", "2", "--check", "square"],
        ["spinor", "--zeta", "1/2", "--t", "3/2", "--check", "purity"],
        ["mirror", "--t", "2", "--zeta", "1/2"],
        ["families", "--t", "2", "--report", "--format", "structured"],
    ],
)
def test_every_printed_verdict_is_a_registry_record(argv, monkeypatch, capsys):
    from gk3 import checks, cli

    produced, rendered = [], []
    run_checks, render = checks.run_checks, cli._render

    def spy_run_checks(cfg):
        descriptors = run_checks(cfg)
        produced.append(list(descriptors))
        return descriptors

    def spy_render(descriptors, *args):
        text = render(descriptors, *args)
        rendered.append((list(descriptors), text))
        return text

    monkeypatch.setattr(checks, "run_checks", spy_run_checks)
    monkeypatch.setattr(cli, "_render", spy_render)
    assert main(argv) == 0
    ((descriptors, text),) = rendered
    # one run, printed as it was returned: the same objects, in the same order
    (returned,) = produced
    assert descriptors and len(descriptors) == len(returned)
    assert all(d is r for d, r in zip(descriptors, returned))
    assert capsys.readouterr().out.endswith(text + "\n")


def test_cli_verify_selects_one_record(capsys):
    assert main(["verify", "gcs-family[algebra]", "--t", "2", "--zeta", "i"]) == 0
    out = capsys.readouterr().out
    assert _verdict_lines(out) == [("pass", "gcs-family[algebra]")]
    assert out.endswith("1/1 checks passed\n")


def test_cli_config_names_each_record_once(tmp_path, capsys):
    # a check and one of its records: the check's records, each once
    cfg = tmp_path / "run.cfg"
    cfg.write_text("checks = limits, limits[infinity]\n")
    assert main(["verify", "--config", str(cfg), "--format", "structured"]) == 0
    assert [r["name"] for r in json.loads(capsys.readouterr().out)] == [
        "limits[t-1-direction]", "limits[t-1-image]", "limits[infinity]"]


def test_cli_verify_unknown_label_is_an_empty_report(capsys):
    assert main(["verify", "gcs-family[nope]"]) == 1
    assert capsys.readouterr().out == "0/0 checks passed\n"


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# fast grid\n"
        "t = 3/2, 2\n"
        "zeta = 1/2, i, (3+4*i)/5\n"
        "checks = kahler-arithmetic, limits\n"
        "cases = 10\n"
    )
    assert main(["verify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "kahler-arithmetic" in out and "limits" in out


def test_cli_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("t = \n")
    assert main(["verify", "--config", str(cfg)]) == 2
    cfg.write_text("mystery = 1\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    cfg.write_text("t = 1/2\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    cfg.write_text("t = 1/0\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_cli_config_has_no_format_key(tmp_path, capsys):
    # the output format is the --format flag alone
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = structured\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: unknown key 'format'\n"


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["transform", "--map", "nope", "--expr", "C"])
    assert err.value.code == 2
    # a command accepts only the flags it reads
    for argv in (
        ["eval", "--expr", "t^2", "--t", "3", "--format", "structured"],
        ["mirror", "--t", "2", "--zeta", "1/2", "--format", "text"],
        ["eval", "--expr", "t^2", "--config", "run.cfg"],
        ["eval", "--expr", "t^2", "--seed", "9"],
        ["transform", "--map", "phiT", "--expr", "sigma^-1", "--seed", "9"],
        ["gcs", "--zeta", "i", "--t", "2", "--check", "square", "--config", "run.cfg"],
        ["spinor", "--zeta", "i", "--t", "2", "--check", "purity", "--seed", "9"],
        ["families", "--t", "2", "--config", "run.cfg"],
        ["mirror", "--t", "2", "--zeta", "1/2", "--seed", "9"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


def test_cli_verify_symbolic_flags(capsys):
    assert main(["verify", "mirror-thm4", "--t", "symbolic", "--zeta", "symbolic"]) == 0
    out = capsys.readouterr().out
    assert "mirror-thm4[symbolic]" in out and "pass" in out


def test_cli_verify_grid_override(capsys):
    assert main(["verify", "kahler-arithmetic", "--t", "3/2,2", "--zeta", "1/2,i"]) == 0
    capsys.readouterr()
    assert main(["verify", "gcs-family", "--t", "1/2", "--zeta", "i"]) == 2
    assert "greater than 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--t", "--zeta"])
def test_cli_verify_empty_grid_flag_is_a_usage_error(flag, capsys):
    # an empty grid does not parse; it must not fall back to the default
    assert main(["verify", "phiOmega-table", flag, ""]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {flag}")


@pytest.mark.parametrize(
    "argv",
    [
        ["families", "--t", "-1"],
        ["families", "--t", "1", "--report"],
        ["mirror", "--t", "1/2", "--zeta", "i"],
        ["mirror", "--t", "0", "--zeta", "i"],
        ["gcs", "--zeta", "i", "--t", "1", "--check", "square"],
        ["spinor", "--zeta", "i", "--t", "-2", "--check", "purity"],
    ],
)
def test_every_command_rejects_t_at_most_one(argv, capsys):
    assert main(argv) == 2
    assert "greater than 1" in capsys.readouterr().err


def test_cli_families_summary_line(capsys):
    assert main(["families", "--t", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pass") and "u_t" not in out


def test_cli_families_structured_without_report(capsys):
    assert main(["families", "--t", "2", "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["records", "t"] and report["t"] == "2"
    assert [(r["name"], r["verdict"]) for r in report["records"]] == [
        (name, "pass") for name in FAMILY_RECORDS]


def test_cli_prints_values_past_the_int_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["eval", "--expr", "2^20000"]) == 0
    out = capsys.readouterr().out.strip()
    # 2^20000 has 6021 digits; the interpreter's own limit stays as it was
    assert len(out) == 6021 and out.isdigit()
    assert out[-12:] == str(pow(2, 20000, 10**12)).zfill(12)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert main(["families", "--t", "1e5000", "--report"]) == 0
    assert capsys.readouterr().out.startswith("t = 1" + "0" * 5000 + "\n")


def test_a_value_that_begins_with_a_dash_is_joined_to_its_flag(capsys):
    assert main(["mirror", "--t", "2", "--zeta=-i"]) == 0
    capsys.readouterr()
    assert main(["eval", "--expr=-t"]) == 0
    assert capsys.readouterr().out == "-t\n"
    # apart, argparse reads the value as a flag, and the flag's value is missing
    with pytest.raises(SystemExit) as err:
        main(["mirror", "--t", "2", "--zeta", "-i"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, status",
    [
        (("verify", "kahler-arithmetic", "--format", "structured"), 0),
        (("families", "--t", "symbolic", "--report"), 0),
        # the exponential identity skips zeta = 0, so its verdict fails
        (("verify", "spinor-exp", "--t", "2", "--zeta", "0"), 1),
    ],
)
def test_closed_pipe_is_silent_and_keeps_the_exit_status(argv, status):
    child = subprocess.Popen(
        [sys.executable, "-m", "gk3.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(Path(gk3.__file__).parents[1])},
    )
    # closed before the child has even imported the package, so every
    # write it makes meets a reader that has gone
    child.stdout.close()
    _, stderr = child.communicate(timeout=120)
    assert stderr == b""
    assert child.returncode == status


def test_emit_exit_code_on_failure(capsys):
    from gk3.cli import _emit

    bad = CheckDescriptor(name="demo", statement="forced failure", params={}, failures=["x"])
    good = CheckDescriptor(name="ok", statement="fine", params={}, failures=[])
    assert _emit([good, bad], "text") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "1/2 checks passed" in out
    # a record name that matches nothing leaves an empty report
    assert _emit([], "text") == 1
    assert "0/0 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("extra", ["zeta^2", "zeta^3"])
def test_specializations_check_the_chart_at_infinity(monkeypatch, extra):
    chosen = _one_point("spinor-exp", [GaussRational(Fraction(1, 2))])
    assert chosen["spinor-exp[specializations]"].verdict
    original = sp.family_spinor
    power = 2 if extra == "zeta^2" else 3

    def wrong(zeta, t):
        # leaves zeta = 0 alone but changes the zeta^2 coefficient, or adds
        # a higher power of zeta
        return original(zeta, t) + sp.SIGMABAR * (zeta**power)

    monkeypatch.setattr(sp, "family_spinor", wrong)
    record = _one_point("spinor-exp", [GaussRational(Fraction(1, 2))])
    assert not record["spinor-exp[specializations]"].verdict
    assert record["spinor-exp[specializations]"].params == {"t": Fraction(2)}


# References of the suites' draws through ``random.Random.randint``, as
# the suites drew before ``checks._draws``: the same seed must keep naming
# the same cases.

def _randint_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _randint_gauss(rng):
    return GaussRational(_randint_fraction(rng), _randint_fraction(rng))


def _randint_scalar(rng, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
        terms[key] = _randint_gauss(rng)
    return Scalar(terms)


def _randint_coh(rng):
    return CohClass(*(_randint_scalar(rng, 2) for _ in range(6)))


def _randint_matrix(rng, rows, cols):
    return CMatrix([[_randint_gauss(rng) for _ in range(cols)] for _ in range(rows)])


def _randint_two_form(rng):
    return sp.Spinor({(1 << j) | (1 << k): GaussRational(_randint_fraction(rng))
                      for j in range(4) for k in range(j + 1, 4)})


def _randints(*ranges):
    return lambda rng: [rng.randint(lo, hi) for lo, hi in ranges]


# every spec the suites draw with, and the single ranges, each with its
# reference through ``randint`` (or ``randrange`` for the B-field pool)
DRAW_SPECS = {
    **{f"{lo}..{hi}": (_spec((lo, hi)), _randints((lo, hi)))
       for lo, hi in [(-6, 6), (1, 6), (-2, 2), (2, 4), (2, 5)]},
    "0..2": (_TERM_COUNT[2], _randints((0, 2))),
    "0..3": (_TERM_COUNT[3], _randints((0, 3))),
    "randrange(3)": (_POOL, lambda rng: [rng.randrange(3)]),
    "fraction": (_FRACTION, _randints((-6, 6), (1, 6))),
    "gauss": (_GAUSS, _randints(*[(-6, 6), (1, 6)] * 2)),
    "term": (_TERM, _randints((-2, 2), (-2, 2), (-2, 2), *[(-6, 6), (1, 6)] * 2)),
    "two-form": (_TWO_FORM, _randints(*[(-6, 6), (1, 6)] * 6)),
    "shape": (_SHAPE, _randints((2, 4), (2, 5))),
    "nonzero": (_NONZERO, _randints((1, 6), (1, 6))),
}


@pytest.mark.parametrize("name", DRAW_SPECS)
def test_draw_is_randint(name):
    spec, reference = DRAW_SPECS[name]
    fast, slow = random.Random(name), random.Random(name)
    rounds = 100_000 // len(spec)
    assert [_draws(fast, spec) for _ in range(rounds)] == [reference(slow) for _ in range(rounds)]
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("seed", [0, 1, 7, 404, 2026])
def test_suite_draws_match_their_randint_references(seed):
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(100):
        assert _rand_fraction(fast) == _randint_fraction(slow)
        assert _rand_gauss(fast) == _randint_gauss(slow)
        assert _rand_scalar(fast) == _randint_scalar(slow)
        assert _rand_scalar(fast, 2) == _randint_scalar(slow, 2)
        assert _rand_coh(fast) == _randint_coh(slow)
        assert _rand_matrix(fast, 3, 4) == _randint_matrix(slow, 3, 4)
        assert _rand_two_form(fast) == _randint_two_form(slow)
        # the draws that subspace-roundtrip and btransform-group make directly
        assert _draws(fast, _SHAPE) == [slow.randint(2, 4), slow.randint(2, 5)]
        assert _draws(fast, _NONZERO) == [slow.randint(1, 6), slow.randint(1, 6)]
        assert _draws(fast, _POOL) == [slow.randrange(3)]
    assert fast.getstate() == slow.getstate()


def _wedge_two_form(rng):
    # the suites' two-form as a sum of wedges of basis one-forms
    form = sp.Spinor.zero()
    for j in range(4):
        for k in range(j + 1, 4):
            basis = sp.Spinor.one_form(j).wedge(sp.Spinor.one_form(k))
            form = form + basis * _randint_fraction(rng)
    return form


@pytest.mark.parametrize("seed", [0, 1, 7, 320, 2024])
def test_rand_two_form_matches_wedge_construction(seed):
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert _rand_two_form(fast) == _wedge_two_form(slow)
    assert fast.random() == slow.random()  # the same draws, in the same order


@pytest.mark.parametrize("seed", [0, 1, 7, 320, 2024])
def test_rand_two_form_draws_the_fractions(seed):
    # the btransform-group cases must keep naming the same two-forms
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(50):
        form = _rand_two_form(fast)
        twin = sp.Spinor({(1 << j) | (1 << k): GaussRational(_randint_fraction(slow))
                          for j in range(4) for k in range(j + 1, 4)})
        assert form == twin
        assert [(c._a, c._b, c._d) for c in form.terms.values()] == [
            (c._a, c._b, c._d) for c in twin.terms.values()]  # canonical, in the same order
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("seed", [0, 1, 7, 401, 2024])
def test_rand_gauss_draws_the_fraction_pair(seed):
    # the suites' cases and seed must keep naming the same inputs
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(200):
        x, twin = _rand_gauss(fast), _randint_gauss(slow)
        assert (x._a, x._b, x._d) == (twin._a, twin._b, twin._d)  # equal and canonical
    assert fast.getstate() == slow.getstate()
