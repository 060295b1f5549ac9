"""Command-line front end.

Commands::

    gk3 verify [name|all]        run named checks, or records check[label]
    gk3 transform --map M --expr E
    gk3 eval --expr E [--t R --zeta C]
    gk3 gcs --zeta C --t R --check {square,orthogonal,graph,spinor-match}
    gk3 spinor --zeta C --t R --check {purity,annihilator-match,exp-identity}
    gk3 families --t {R|symbolic} [--report]
    gk3 mirror --t {R|symbolic} --zeta {C|symbolic}

Common flags: ``--format {text,structured}`` on every command but
``eval`` and ``mirror``; only ``verify`` takes ``--config PATH`` (a
``key = value`` file overriding the run configuration) and ``--seed N``
for the randomized suites.  Every report is exactly the records that
:func:`gk3.checks.run_checks` computes for one configuration, rendered in
one place; a check's name selects all its records, ``check[label]`` one,
and no other record is computed.  The other commands name records on
that path: ``gcs`` and ``spinor`` the one ``--check`` names, on the
one-point grid ``--t``, ``--zeta``; ``mirror`` ``mirror-thm4[samples]``
there, or ``mirror-thm4[symbolic]``, which certifies every value and
evaluates no sample, when either is ``symbolic``; ``families`` the
records that certify the family identities symbolically in ``t``,
and ``--report`` adds the directions and the correction at ``--t``.
Join a value that begins with ``-`` to its flag (``--zeta=-i``):
argparse reads ``--zeta -i`` as a missing value.
Exit status: 0 when everything passes, 1 when any verdict fails or no
record matched, 2 for usage or configuration errors (a user-supplied
value that does not parse or lands on a pole, or a ``t`` of the
families that is not greater than 1); any other error is a fault and
propagates.  A reader that closes the pipe early
(``gk3 verify all | head -1``) ends the output silently and leaves
the exit status to the verdicts.

The structured format is deterministic: records appear in registration
order, keys are sorted, and scalars print in canonical sorted-monomial
form, so its output is stable byte for byte for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import checks, families
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


def _t_arg(text: str) -> Fraction | None:
    """``--t`` of ``families`` and ``mirror``: None for ``symbolic``, else
    a rational ``t > 1``, the range of the families."""
    if text == "symbolic":
        return None
    value = _user_value("--t", Fraction, text)
    if value <= 1:
        raise ConfigError("--t: t must be greater than 1")
    return value


# config key -> (RunConfig field, parser of its value)
_CONFIG_KEYS = {
    "t": ("t_samples", lambda v: _samples(v, Fraction, "t")),
    "zeta": ("zeta_samples", lambda v: _samples(v, _parse_zeta, "zeta")),
    "checks": ("names", lambda v: tuple(x.strip() for x in v.split(","))),
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


def _render(descriptors: list[CheckDescriptor], fmt: str, fields=None) -> str:
    """The report of ``descriptors``; structured, it is their records or,
    given ``fields``, one object of the fields and the ``records``."""
    if fmt == "structured":
        records = [d.as_record() for d in descriptors]
        if fields is not None:
            records = {**fields, "records": records}
        return json.dumps(records, indent=2, sort_keys=True)
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


def _print(value) -> None:
    """Print ``value`` to standard output.

    A reader that closed the pipe ends the output, not the command:
    standard output then points at ``os.devnull``, so that later output
    and the flush at exit are silent.
    """
    try:
        print(value, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(descriptors: list[CheckDescriptor], fmt: str, fields=None) -> int:
    """Print the report and return its exit status: 1 when a record
    fails or there is none."""
    _print(_render(descriptors, fmt, fields))
    return 0 if descriptors and all(d.verdict for d in descriptors) else 1


def _cmd_verify(args) -> int:
    cfg = RunConfig()
    if args.config:
        cfg = _load_config(args.config, cfg)
    # explicit flags win over the config file
    if args.seed is not None:
        cfg.seed = args.seed
    # symbolic identities always run exactly; "symbolic" leaves the
    # sample grids alone, anything else replaces them
    if args.t is not None and args.t != "symbolic":
        cfg.t_samples = _samples(args.t, Fraction, "--t")
    if args.zeta is not None and args.zeta != "symbolic":
        cfg.zeta_samples = _samples(args.zeta, _parse_zeta, "--zeta")
    if args.name != "all":
        cfg.names = (args.name,)
    return _emit(checks.run_checks(cfg), args.format or "text")


def _cmd_transform(args) -> int:
    mapping, domain, description = TRANSFORMS[args.map]
    value = _user_value("--expr", parse_class_expr, args.expr, cls=domain)
    result = mapping(value)
    if args.format == "structured":
        result = json.dumps({"map": args.map, "domain": description, "input": str(value),
                             "output": str(result)}, indent=2, sort_keys=True)
    _print(result)
    return 0


def _cmd_eval(args) -> int:
    value = _user_value("--expr", parse_scalar_expr, args.expr)
    if args.t is not None or args.zeta is not None:
        t0 = _user_value("--t", Fraction, args.t) if args.t is not None else None
        z0 = _user_value("--zeta", _parse_zeta, args.zeta) if args.zeta is not None else None
        value = _user_value("--expr", value.eval, t0=t0, zeta0=z0)
    _print(value)
    return 0


def _cmd_pointwise(args) -> int:
    """Report the registry record behind ``--check`` on a one-point grid."""
    t = _user_value("--t", Fraction, args.t)
    zeta = _user_value("--zeta", _parse_zeta, args.zeta)
    cfg = RunConfig((t,), (zeta,), names=(POINTWISE_RECORDS[args.command][args.check],))
    return _emit(checks.run_checks(cfg), args.format or "text")


def _cmd_families(args) -> int:
    """Report the records that certify the family identities in ``t``."""
    t = Scalar.t() if args.t == "symbolic" else Scalar.from_value(_t_arg(args.t))
    fields = {"t": str(t)}
    if args.report:
        fields.update(direction_x=str(families.direction_X(t)),
                      direction_y=str(families.direction_Y(t)),
                      correction=str(families.bfield_correction(t)))
        if args.format != "structured":
            _print("t = {t}\n  twistor direction        u_t = {direction_x}\n"
                   "  interpolation direction  v_t = {direction_y}\n"
                   "  correction    phi_t(u_t)-v_t = {correction}".format(**fields))
    cfg = RunConfig(names=("bfield-correction", "kahler-arithmetic", "direction-lattice"))
    return _emit(checks.run_checks(cfg), args.format or "text", fields)


def _cmd_mirror(args) -> int:
    t = _t_arg(args.t)
    zeta = None if args.zeta == "symbolic" else _user_value("--zeta", _parse_zeta, args.zeta)
    if zeta is not None and not zeta:
        raise ConfigError("--zeta: the mirror congruence has a pole at zeta = 0")
    if t is None or zeta is None:  # the symbolic congruence certifies every value
        cfg = RunConfig(names=("mirror-thm4[symbolic]",))
    else:
        cfg = RunConfig((t,), (zeta,), names=("mirror-thm4[samples]",))
    return _emit(checks.run_checks(cfg), "text")


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
    p.add_argument("name", nargs="?", default="all",
                   help="check name, record name 'check[label]', or 'all'")
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
    # an exact value prints in full, however many digits it has (0 means
    # no limit, as on the Python 3.10 releases without the function)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ConfigError, ExprSyntaxError, UnknownSymbol) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
