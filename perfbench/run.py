#!/usr/bin/env python3
"""Benchmark of ``gk3 verify``, end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's run configuration is generated from the seed and written
to ``.perfbench_work/``.  Every verify call runs ``gk3.cli.main`` in a
fresh interpreter on one thread (a closed loop with one client), and
every report passes the correctness gate of ``workloads.gate``.

``--trace 0`` reports the end-to-end metrics: the median ``verify_s``
over as many calls as fit in ``--seconds`` (at least one), the median
``setup_s`` over ``SETUP_STARTS`` fresh starts, and the median peak
RSS.  ``--trace 1`` reports the per-layer metrics from one untraced and
one traced call and the microbenchmarks.  ``--workload all`` runs every
check on the same configuration, to confirm that the three workloads'
``verify_s`` add up to it.

The last line of standard output is the result object; the line before
it records the run's provenance and raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_text, gate, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_STARTS = 21
RUN_LIMIT_S = 170  # every run ends well inside three minutes
MODULES = (
    "__init__", "checks", "cli", "cohomology", "families", "gcs", "harmonic",
    "linalg", "mirror", "parser", "scalar", "spinor",
)
SPAN_SECONDS = (
    "linalg.matmul", "linalg.elim", "spinor.wedge", "spinor.annihilator",
    "gcs.j_zeta", "gcs.b_transform", "gcs.graph", "cohomology.wedge",
    "cohomology.mukai", "harmonic.transform", "families.direction",
    "mirror.theorem4", "mirror.normalize", "cli.render", "parser.parse",
)
SPAN_CALLS = (
    "linalg.matmul", "linalg.elim", "spinor.wedge", "spinor.annihilator",
    "cohomology.wedge",
)
MICRO = (
    "scalar.gauss_muladd_us", "scalar.laurent_mul_us", "linalg.matmul8_us",
    "linalg.kernel_us", "spinor.annihilator_us", "gcs.j_zeta_us",
)
# Checks in registration order, for the per-check metrics.
CHECKS = tuple(check for group in WORKLOADS.values() for check in group)


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def child(self, *args) -> tuple[int, str]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            capture_output=True, text=True, cwd=ROOT, env=self.env,
            timeout=remaining,
        )
        sys.stderr.write(proc.stderr[-2000:])
        return proc.returncode, proc.stdout

    def setup_s(self, config: Path) -> list[float]:
        """Seconds from spawning a fresh interpreter to a loaded config."""
        times = []
        for n in range(SETUP_STARTS + 1):
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
            code, out = self.child("setup", str(SRC), str(config))
            if code != 0:
                raise BenchError("a fresh interpreter could not load the configuration")
            if n:  # the first start writes bytecode caches
                times.append(json.loads(out)["loaded"] - spawned)
        return times

    def verify(self, cfg: dict, config: Path, trace=False) -> dict:
        """One gated verify call in a fresh interpreter."""
        args = ["verify", str(SRC), str(config)] + (["trace"] if trace else [])
        start = time.perf_counter()
        try:
            code, out = self.child(*args)
        except subprocess.TimeoutExpired:
            code, out = "timeout", ""
        wall = time.perf_counter() - start
        try:
            result = json.loads(out)
        except ValueError:
            result = {"exit": f"child exited with {code}", "verify_s": wall,
                      "maxrss_kb": 0, "report": ""}
        attempted, failed, problems = gate(cfg, result["exit"], result["report"])
        result.update(attempted=attempted, failed=failed, problems=problems[:5])
        return result


def loc() -> dict:
    counts = {}
    for path in sorted((SRC / "gk3").glob("*.py")):
        with path.open(encoding="utf-8") as handle:
            counts[path.stem] = sum(1 for _ in handle)
    return counts


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, cfg, config, seconds):
    setup = runner.setup_s(config)
    calls = []
    start = time.monotonic()
    while not calls or time.monotonic() - start < seconds:
        calls.append(runner.verify(cfg, config))
        # stop early rather than overrun the run limit
        if runner.deadline - time.monotonic() < 1.5 * calls[-1]["verify_s"]:
            break
    samples = {
        "verify_s": [c["verify_s"] for c in calls],
        "setup_s": setup,
        "maxrss_kb": [c["maxrss_kb"] for c in calls],
    }
    return calls, end_to_end_metrics(samples), samples


def end_to_end_metrics(samples) -> dict:
    """Medians of the verify times, set-up times and peak RSS of a run."""
    return {
        "verify_s": metric(statistics.median(samples["verify_s"]), "s"),
        "setup_s": metric(statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": metric(statistics.median(samples["maxrss_kb"]) / 1024, "MB"),
    }


def per_layer(runner, cfg, config, seed):
    plain = runner.verify(cfg, config)
    traced = runner.verify(cfg, config, trace=True)
    code, out = runner.child("micro", str(SRC), str(seed))
    if code != 0:
        raise BenchError("the microbenchmarks failed")
    summary = traced.get("trace", {"layers": {}, "counts": {}, "seconds": {}, "missing": []})
    metrics = layer_metrics(summary, json.loads(out), traced["verify_s"] - plain["verify_s"],
                            traced["verify_s"], loc())
    samples = {"verify_s": plain["verify_s"], "missing": summary["missing"]}
    return [plain, traced], metrics, samples


def layer_metrics(summary, micro, overhead_s, traced_s, lines) -> dict:
    """The per-layer metrics from a trace summary, microbenchmarks and line counts."""
    layers, counts, seconds = summary["layers"], summary["counts"], summary["seconds"]

    def span(layer, key):
        return layers.get(layer, {}).get(key, 0)

    metrics = {}
    for check in CHECKS:
        metrics[f"checks.{check}_s"] = metric(span(f"checks.{check}", "total_s"), "s")
    for op in ("gauss", "laurent"):
        metrics[f"scalar.{op}_ops"] = metric(counts.get(f"scalar.{op}_ops", 0), "count")
        metrics[f"scalar.{op}_s"] = metric(seconds.get(f"scalar.{op}_s", 0), "s")
    for layer in SPAN_CALLS:
        metrics[f"{layer}_calls"] = metric(span(layer, "calls"), "count")
    for layer in SPAN_SECONDS:
        metrics[f"{layer}_s"] = metric(span(layer, "self_s"), "s")
    products = counts.get("linalg.matmul_products", 0)
    useful = counts.get("linalg.matmul_useful", 0)
    metrics["linalg.matmul_products"] = metric(products, "count")
    metrics["linalg.matmul_useful_ratio"] = metric(useful / products if products else 0, "ratio")
    for counter in ("linalg.inverse_calls", "gcs.frame_calls"):
        metrics[counter] = metric(counts.get(counter, 0), "count")
    for name in MICRO:
        metrics[name] = metric(micro.get(name, 0), "us")
    metrics["trace.verify_s"] = metric(traced_s, "s")
    metrics["trace.overhead_s"] = metric(overhead_s, "s")
    for module in MODULES:
        metrics[f"loc.{module}"] = metric(lines.get(module, 0), "lines")
    metrics["loc.total"] = metric(sum(lines.values()), "lines")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind, so that subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "gk3" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'gk3'}", file=sys.stderr)
        return 2
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }
    cfg = make_config(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    config = WORK / f"{args.workload}-{args.seed}.cfg"
    config.write_text(config_text(cfg), encoding="utf-8")

    runner = Runner(deadline)
    try:
        if args.trace:
            calls, metrics, samples = per_layer(runner, cfg, config, args.seed)
        else:
            calls, metrics, samples = end_to_end(runner, cfg, config, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    problems = [p for c in calls for p in c["problems"]]
    print(json.dumps({
        "provenance": provenance,
        "samples": samples,
        "verdict_fail_ratio": failed / attempted,
        "problems": problems,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
