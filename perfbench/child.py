"""One fresh interpreter's share of a benchmark run.

Usage (``src`` is the package source directory, put first on the path)::

    python3 child.py setup  SRC CONFIG          # import gk3.cli and load CONFIG
    python3 child.py verify SRC CONFIG [trace]  # gk3 verify all --config CONFIG
    python3 child.py micro  SRC SEED            # per-layer microbenchmarks

Each mode prints one JSON object on standard output.  ``setup`` prints
the CLOCK_MONOTONIC reading taken once the configuration is loaded, so
the parent can time the whole start from the moment it spawned this
process.
"""

import sys
import time


def _load(src):
    sys.path.insert(0, src)
    import gk3.cli

    # The package must come from the checkout under test, not from an
    # installed copy elsewhere.
    if not gk3.cli.__file__.startswith(src):
        raise SystemExit(f"gk3 imported from {gk3.cli.__file__}, not from {src}")
    return gk3.cli


def setup(src, config):
    cli = _load(src)
    cli._load_config(config, cli.RunConfig())
    return {"loaded": time.clock_gettime(time.CLOCK_MONOTONIC)}


def verify(src, config, trace=None):
    import contextlib
    import io
    import resource

    cli = _load(src)
    tracer = None
    if trace == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    argv = ["verify", "all", "--config", config, "--format", "structured"]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails every verdict; report it
        import traceback

        traceback.print_exc()
        code = f"{type(exc).__name__}: {exc}"
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    elapsed = time.perf_counter() - start
    result = {
        "exit": code,
        "verify_s": elapsed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "report": out.getvalue(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
    return result


def micro(src, seed):
    _load(src)
    from microbench import run_all

    return run_all(int(seed))


def main(argv):
    mode, args = argv[0], argv[1:]
    result = {"setup": setup, "verify": verify, "micro": micro}[mode](*args)
    import json  # after the work, so that setup times leave it out

    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
