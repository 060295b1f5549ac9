"""Self-tests of the benchmark.  Run from the repository root with::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
from workloads import (
    PYTHAGOREAN_POINTS,
    RECORDS,
    SUITES,
    WORKLOADS,
    ZETA_HEIGHT,
    config_text,
    expected_records,
    gate,
    make_config,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SEEDS = range(40)


@pytest.fixture(scope="module")
def gk3_checks():
    sys.path.insert(0, str(SRC))
    import gk3.checks

    return gk3.checks


def test_same_seed_gives_byte_identical_configs():
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from workloads import *; "
        "print(''.join(config_text(make_config(w, s)) for w in WORKLOADS for s in range(5)))"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script, str(HERE)],
            env=dict(os.environ, PYTHONHASHSEED=hashseed),
            capture_output=True, check=True,
        ).stdout
        for hashseed in ("1", "2")
    }
    assert len(outputs) == 1
    assert config_text(make_config("laurent-suites", 7)) != config_text(
        make_config("laurent-suites", 8)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_grid_shape_and_properties(seed):
    cfg = make_config("pointwise-grid", seed)
    t, zeta = cfg["t"], cfg["zeta"]
    assert len(t) == 5 and len(set(t)) == 5
    assert all(isinstance(x, Fraction) and x > 1 for x in t)
    assert len(zeta) == 20 and len(set(zeta)) == 20
    assert all(any(z) for z in zeta)
    assert all(
        abs(part.numerator) <= ZETA_HEIGHT and part.denominator <= ZETA_HEIGHT
        for z in zeta
        for part in z
    )
    assert sum(1 for z in zeta if z in PYTHAGOREAN_POINTS) >= 4
    assert all(re * re + im * im == 1 for re, im in PYTHAGOREAN_POINTS)
    assert cfg["cases"] == 1000


@pytest.mark.parametrize("seed", range(5))
def test_workloads_at_one_seed_split_all(seed):
    whole = make_config("all", seed)
    for workload in WORKLOADS:
        part = make_config(workload, seed)
        assert {k: v for k, v in part.items() if k != "checks"} == {
            k: v for k, v in whole.items() if k != "checks"
        }


def test_workloads_cover_the_registry_exactly_once(gk3_checks):
    assigned = [check for group in WORKLOADS.values() for check in group]
    assert sorted(assigned) == sorted(gk3_checks.REGISTRY_NAMES)
    assert len(assigned) == len(set(assigned))
    assert set(RECORDS) == set(gk3_checks.REGISTRY_NAMES)
    assert set(SUITES) <= set(RECORDS)


def test_config_file_loads_to_the_generated_values(gk3_checks, tmp_path):
    import gk3.cli

    cfg = make_config("all", 3)
    path = tmp_path / "run.cfg"
    path.write_text(config_text(cfg))
    loaded = gk3.cli._load_config(str(path), gk3_checks.RunConfig())
    assert list(loaded.t_samples) == cfg["t"]
    assert [(z.re, z.im) for z in loaded.zeta_samples] == cfg["zeta"]
    assert loaded.names == cfg["checks"]
    assert (loaded.seed, loaded.cases) == (cfg["seed"], cfg["cases"])


def _report(cfg, **overrides):
    records = []
    for name, params in expected_records(cfg).items():
        record = {"name": name, "verdict": "pass", "params": dict(params), "witness": "0"}
        record.update(overrides.get(name, {}))
        records.append(record)
    return json.dumps(records)


def test_gate():
    cfg = make_config("pointwise-grid", 0)
    expected = len(expected_records(cfg))
    assert expected == 14
    assert gate(cfg, 0, _report(cfg))[:2] == (expected, 0)
    assert gate(cfg, 1, _report(cfg))[:2] == (expected, expected)
    assert gate(cfg, "ValueError: boom", "")[:2] == (expected, expected)
    failing = {"gcs-family[algebra]": {"verdict": "fail"}}
    assert gate(cfg, 0, _report(cfg, **failing))[:2] == (expected, 1)
    miscounted = {"mirror-thm4[samples]": {"params": {"samples": "99"}}}
    assert gate(cfg, 0, _report(cfg, **miscounted))[:2] == (expected, 1)
    records = json.loads(_report(cfg))
    missing = json.dumps([r for r in records if not r["name"].startswith("spinor-exp")])
    assert gate(cfg, 0, missing)[:2] == (expected, 2)
    extra = json.dumps(records + [{"name": "new-check", "verdict": "pass", "params": {}}])
    assert gate(cfg, 0, extra)[:2] == (expected + 1, 1)

    suites = make_config("matrix-suites", 0)
    wrong_seed = {"btransform-group": {"params": {"cases": "1000", "seed": "1"}}}
    assert gate(suites, 0, _report(suites, **wrong_seed))[:2] == (2, 1)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    samples = {"verify_s": [1.0], "setup_s": [0.1], "maxrss_kb": [1024]}
    e2e = run.end_to_end_metrics(samples)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()
    }
    empty = {"layers": {}, "counts": {}, "seconds": {}}
    layer = run.layer_metrics(empty, {}, 0.0, 0.0, {})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layer.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _traced_counts(gk3_checks):
    from tracing import Tracer

    cfg = gk3_checks.RunConfig(
        t_samples=(Fraction(2),),
        zeta_samples=(gk3_checks.GaussRational(Fraction(3, 5), Fraction(4, 5)),),
        names=("phiOmega-table", "gcs-family", "period-squares"),
    )
    tracer = Tracer()
    tracer.install()
    try:
        records = gk3_checks.run_checks(cfg)
    finally:
        tracer.uninstall()
    assert all(r.verdict for r in records)
    summary = tracer.summary()
    assert summary["missing"] == []
    calls = {layer: entry["calls"] for layer, entry in summary["layers"].items()}
    return calls, summary["counts"]


def test_tracer_counts_repeat_and_uninstall_restores(gk3_checks):
    import gk3.gcs
    import gk3.linalg

    def bindings():
        table_cells = [c.cell_contents for c in gk3_checks.REGISTRY[0][2].__closure__]
        return (gk3.linalg.kernel, gk3.gcs.kernel, gk3.linalg.CMatrix.__mul__,
                gk3_checks.REGISTRY, table_cells)

    originals = bindings()
    first = _traced_counts(gk3_checks)
    assert first == _traced_counts(gk3_checks)
    assert bindings() == originals
    calls, counts = first
    assert calls["checks.gcs-family"] == calls["checks.period-squares"] == 1
    assert calls["harmonic.transform"] == 4  # one per phiOmega table entry
    assert calls["gcs.j_zeta"] >= 1 and calls["linalg.matmul"] >= 1
    assert counts["scalar.gauss_ops"] > 0 and counts["scalar.laurent_ops"] > 0
    assert 0 < counts["linalg.matmul_useful"] <= counts["linalg.matmul_products"]
