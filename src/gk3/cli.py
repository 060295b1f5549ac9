"""Command-line front end.

Commands::

    gk3 verify [name|all]        run named verification suites
    gk3 transform --map M --expr E
    gk3 eval --expr E [--t R --zeta C]
    gk3 gcs --zeta C --t R --check {square,orthogonal,graph,spinor-match}
    gk3 spinor --zeta C --t R --check {purity,annihilator-match,exp-identity}
    gk3 families --t {R|symbolic} [--report]
    gk3 mirror --t {R|symbolic} --zeta {C|symbolic}

Common flags: ``--format {text,structured}`` on every command but
``eval`` and ``mirror``; only ``verify`` takes ``--config PATH`` (a
``key = value`` file overriding the run configuration) and ``--seed N``
for the randomized suites.  ``gcs`` and ``spinor`` report the registry
record that ``--check`` names, run on the one-point grid ``--t``,
``--zeta``.  Exit status: 0 when everything passes, 1 when any verdict
fails, 2 for usage or configuration errors (a user-supplied value that
does not parse or lands on a pole, or a ``t`` of the families that is
not greater than 1); any other error is a fault and propagates.

The structured format is deterministic: records appear in registration
order, keys are sorted, and scalars print in canonical sorted-monomial
form, so its output is stable byte for byte for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import checks, families, mirror
from .checks import CheckDescriptor, ConfigError, RunConfig
from .harmonic import TRANSFORMS
from .parser import ExprSyntaxError, UnknownSymbol, parse_class_expr, parse_scalar_expr
from .scalar import GaussRational, Scalar

# ``gcs``/``spinor --check`` choice -> the registry record it reports
POINTWISE_RECORDS = {
    "gcs": {
        "square": "gcs-family[algebra]",
        "orthogonal": "gcs-family[algebra]",
        "graph": "direction-pointwise[interpolation]",
        "spinor-match": "spinor-gcs-match[annihilator]",
    },
    "spinor": {
        "purity": "spinor-gcs-match[purity]",
        "annihilator-match": "spinor-gcs-match[annihilator]",
        "exp-identity": "spinor-exp[identity]",
    },
}


def _user_value(what: str, compute, *args, **kwargs):
    """``compute(*args, **kwargs)`` on a value the user supplied.

    A value that does not parse, or that lands on a pole or misses a
    sample, is a configuration error, reported against ``what``.
    """
    try:
        return compute(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _parse_zeta(text: str) -> GaussRational:
    return parse_scalar_expr(text).eval()


def _samples(text: str, parse, what: str) -> tuple:
    """A comma-separated list of user-supplied samples."""
    return tuple(_user_value(what, parse, v.strip()) for v in text.split(","))


def _t_arg(text: str) -> Scalar:
    """``--t`` of ``families`` and ``mirror``: ``symbolic`` or a rational
    ``t > 1``, the range of the families."""
    if text == "symbolic":
        return Scalar.t()
    value = _user_value("--t", Fraction, text)
    if value <= 1:
        raise ConfigError("--t: t must be greater than 1")
    return Scalar.from_value(value)


# config key -> (RunConfig field, parser of its value)
_CONFIG_KEYS = {
    "t": ("t_samples", lambda v: _samples(v, Fraction, "t")),
    "zeta": ("zeta_samples", lambda v: _samples(v, _parse_zeta, "zeta")),
    "checks": ("names", lambda v: tuple(x.strip() for x in v.split(","))),
    "format": ("fmt", str),
    "seed": ("seed", int),
    "cases": ("cases", int),
}


def _load_config(path: str, cfg: RunConfig) -> RunConfig:
    changes = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{where}: expected 'key = value'")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        field, parse = _CONFIG_KEYS[key]
        changes[field] = _user_value(where, parse, value.strip())
    return RunConfig(**{**vars(cfg), **changes})


def _render(descriptors: list[CheckDescriptor], fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(
            [d.as_record() for d in descriptors], indent=2, sort_keys=True
        )
    width = max((len(d.name) for d in descriptors), default=4)
    lines = []
    for d in descriptors:
        status = "pass" if d.verdict else "FAIL"
        line = f"{status}  {d.name.ljust(width)}  {d.statement}"
        if not d.verdict:
            line += f"  [residual: {d.witness}]"
        lines.append(line)
    passed = sum(1 for d in descriptors if d.verdict)
    lines.append(f"{passed}/{len(descriptors)} checks passed")
    return "\n".join(lines)


def _emit(descriptors: list[CheckDescriptor], fmt: str) -> int:
    print(_render(descriptors, fmt))
    return 0 if all(d.verdict for d in descriptors) else 1


def _cmd_verify(args) -> int:
    cfg = RunConfig()
    if args.config:
        cfg = _load_config(args.config, cfg)
    # explicit flags win over the config file
    if args.seed is not None:
        cfg.seed = args.seed
    if args.format is not None:
        cfg.fmt = args.format
    # symbolic identities always run exactly; "symbolic" leaves the
    # sample grids alone, anything else replaces them
    if args.t is not None and args.t != "symbolic":
        cfg.t_samples = _samples(args.t, Fraction, "--t")
    if args.zeta is not None and args.zeta != "symbolic":
        cfg.zeta_samples = _samples(args.zeta, _parse_zeta, "--zeta")
    if args.name != "all":
        if args.name not in checks.REGISTRY_NAMES:
            raise ConfigError(
                f"unknown check {args.name!r}; known: {', '.join(checks.REGISTRY_NAMES)}"
            )
        cfg.names = (args.name,)
    return _emit(checks.run_checks(cfg), cfg.fmt)


def _cmd_transform(args) -> int:
    mapping, domain, description = TRANSFORMS[args.map]
    value = _user_value("--expr", parse_class_expr, args.expr, cls=domain)
    result = mapping(value)
    if args.format == "structured":
        print(
            json.dumps(
                {
                    "map": args.map,
                    "domain": description,
                    "input": str(value),
                    "output": str(result),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(result)
    return 0


def _cmd_eval(args) -> int:
    value = _user_value("--expr", parse_scalar_expr, args.expr)
    if args.t is None and args.zeta is None:
        print(value)
        return 0
    t0 = _user_value("--t", Fraction, args.t) if args.t is not None else None
    z0 = _user_value("--zeta", _parse_zeta, args.zeta) if args.zeta is not None else None
    print(_user_value("--expr", value.eval, t0=t0, zeta0=z0))
    return 0


def _cmd_pointwise(args) -> int:
    """Report the registry record behind ``--check`` on a one-point grid."""
    record = POINTWISE_RECORDS[args.command][args.check]
    cfg = RunConfig(
        t_samples=(_user_value("--t", Fraction, args.t),),
        zeta_samples=(_user_value("--zeta", _parse_zeta, args.zeta),),
        names=(record.partition("[")[0],),
    )
    descriptors = [d for d in checks.run_checks(cfg) if d.name == record]
    return _emit(descriptors, args.format or "text")


def _cmd_families(args) -> int:
    t = _t_arg(args.t)
    verdicts = {key: not residual for key, residual in families.family_identities(t).items()}
    ok = all(verdicts.values())
    if not args.report:
        print(f"{'pass' if ok else 'FAIL'}  family identities at t = {t}")
        return 0 if ok else 1
    u_t, v_t = families.direction_X(t), families.direction_Y(t)
    correction = families.bfield_correction(t)
    if args.format == "structured":
        record = {
            "t": str(t),
            "direction_x": str(u_t),
            "direction_y": str(v_t),
            "correction": str(correction),
            "verdicts": {k: ("pass" if v else "fail") for k, v in sorted(verdicts.items())},
        }
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(f"t = {t}")
        print(f"  twistor direction        u_t = {u_t}")
        print(f"  interpolation direction  v_t = {v_t}")
        print(f"  correction    phi_t(u_t)-v_t = {correction}")
        for key, verdict in verdicts.items():
            print(f"  {'pass' if verdict else 'FAIL'}  {key}")
    return 0 if ok else 1


def _cmd_mirror(args) -> int:
    t = _t_arg(args.t)
    if args.zeta == "symbolic":
        zeta = Scalar.zeta()
    else:
        zeta = Scalar.from_value(_user_value("--zeta", _parse_zeta, args.zeta))
        if not zeta:
            raise ConfigError("--zeta: the mirror congruence has a pole at zeta = 0")
    ok = mirror.verify_theorem4(t, zeta)
    print(
        f"{'pass' if ok else 'FAIL'}  mirror congruence at t={args.t}, zeta={args.zeta}"
    )
    return 0 if ok else 1


def build_arg_parser() -> argparse.ArgumentParser:
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument(
        "--format",
        choices=("text", "structured"),
        default=None,
        help="output format (structured is deterministic JSON)",
    )

    top = argparse.ArgumentParser(
        prog="gk3",
        description="Exact verification suites for a dual pair of elliptic K3 "
        "surfaces and their deformation families.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[formatted], help="run verification suites")
    p.add_argument("name", nargs="?", default="all", help="check name or 'all'")
    p.add_argument("--config", help="path to a key = value run configuration")
    p.add_argument("--seed", type=int, default=None, help="seed for the randomized suites")
    p.add_argument(
        "--t",
        help="comma-separated rational t samples, or 'symbolic' to keep defaults",
    )
    p.add_argument(
        "--zeta",
        help="comma-separated zeta samples, or 'symbolic' to keep defaults",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", parents=[formatted], help="apply a transform map")
    p.add_argument("--map", required=True, choices=tuple(TRANSFORMS))
    p.add_argument("--expr", required=True, help="class expression")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("eval", help="evaluate a scalar expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--t", help="rational value for t")
    p.add_argument("--zeta", help="Gaussian rational value for zeta")
    p.set_defaults(func=_cmd_eval)

    for command, what in (("gcs", "structure"), ("spinor", "spinor")):
        p = sub.add_parser(command, parents=[formatted], help=f"pointwise {what} checks")
        p.add_argument("--zeta", required=True)
        p.add_argument("--t", required=True)
        p.add_argument("--check", required=True, choices=tuple(POINTWISE_RECORDS[command]))
        p.set_defaults(func=_cmd_pointwise)

    p = sub.add_parser("families", parents=[formatted], help="family report for one t")
    p.add_argument("--t", required=True, help="rational value or 'symbolic'")
    p.add_argument("--report", action="store_true", help="print the full report")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("mirror", help="mirror congruence check")
    p.add_argument("--t", required=True, help="rational value or 'symbolic'")
    p.add_argument("--zeta", required=True, help="Gaussian rational or 'symbolic'")
    p.set_defaults(func=_cmd_mirror)

    return top


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ExprSyntaxError, UnknownSymbol) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
