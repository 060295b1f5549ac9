"""Workloads: the run configuration each one generates from a seed, and
the verdict records a correct run of that configuration must produce.

Together the three workloads split the check registry so that every
check runs in exactly one of them.  This module uses only the standard
library, so it works without importing the package under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# Verdict records each check emits, as suffixes of ``name[suffix]``;
# ``None`` stands for a record named after the check itself.
RECORDS = {
    "phiOmega-table": ("one", "eta", "C", "F"),
    "phiOmega-isometry": (None,),
    "contraction-table": ("sigma^-1", "sigmabar", "sigma^-1*C", "sigma^-1*F"),
    "phiHT-table": ("(1/4)*sigma^-1", "(1/4)*sigmabar", "sigma^-1*C", "sigma^-1*F"),
    "phiT-table": ("(1/4)*sigma^-1", "(1/4)*sigmabar", "sigma^-1*C", "sigma^-1*F"),
    "bfield-correction": ("phiT", "phiHT", "decay"),
    "kahler-arithmetic": (
        "alpha-dot-C",
        "alpha-dot-F",
        "alpha-squared",
        "alpha-dot-C-at-t-1",
    ),
    "period-squares": ("twistor", "fibre-translation"),
    "spinor-exp": ("identity", "specializations"),
    "gcs-family": ("algebra", "unit-circle", "b-transform"),
    "spinor-gcs-match": ("annihilator", "purity"),
    "direction-pointwise": ("twistor", "interpolation", "transverse", "linearity"),
    "direction-lattice": ("twistor", "interpolation", "correction-components"),
    "mirror-thm4": ("symbolic", "normalizer", "samples"),
    "normalize-roundtrip": ("fixed-point", "perturbation", "constraints"),
    "limits": ("t-1-direction", "t-1-image", "infinity"),
    "scalar-ring-axioms": (None,),
    "conj-involution": (None,),
    "wedge-associativity": (None,),
    "subspace-roundtrip": (None,),
    "btransform-group": (None,),
}

# Randomized property suites: they report their ``cases`` and ``seed``.
SUITES = (
    "scalar-ring-axioms",
    "conj-involution",
    "wedge-associativity",
    "subspace-roundtrip",
    "btransform-group",
)

WORKLOADS = {
    # Sampled checks on a 5 x 20 grid: the linalg, spinor and gcs layers.
    "pointwise-grid": (
        "spinor-exp",
        "gcs-family",
        "spinor-gcs-match",
        "direction-pointwise",
        "mirror-thm4",
    ),
    # Every symbolic identity plus the Laurent-ring property suites:
    # Laurent arithmetic only, no matrix products or eliminations.
    "laurent-suites": (
        "phiOmega-table",
        "phiOmega-isometry",
        "contraction-table",
        "phiHT-table",
        "phiT-table",
        "bfield-correction",
        "kahler-arithmetic",
        "period-squares",
        "direction-lattice",
        "normalize-roundtrip",
        "limits",
        "scalar-ring-axioms",
        "conj-involution",
        "wedge-associativity",
    ),
    # Random dense eliminations and 8x8 shear conjugations.
    "matrix-suites": ("subspace-roundtrip", "btransform-group"),
}

T_COUNT = 5
ZETA_COUNT = 20
ZETA_HEIGHT = 5
CASES = 1000
# Points of the unit circle from the Pythagorean triple (3, 4, 5).
PYTHAGOREAN_POINTS = tuple(
    (Fraction(sa * a, 5), Fraction(sb * b, 5))
    for a, b in ((3, 4), (4, 3))
    for sa in (1, -1)
    for sb in (1, -1)
)


def _rng(seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"perfbench:{seed}")


def _t_grid(rng: random.Random) -> list[Fraction]:
    values: list[Fraction] = []
    while len(values) < T_COUNT:
        q = rng.randint(1, 5)
        t = Fraction(rng.randint(q + 1, 5 * q), q)
        if t not in values:
            values.append(t)
    return values


def _zeta_grid(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    values = rng.sample(PYTHAGOREAN_POINTS, rng.randint(4, 6))
    while len(values) < ZETA_COUNT:
        z = tuple(
            Fraction(rng.randint(-ZETA_HEIGHT, ZETA_HEIGHT), rng.randint(1, ZETA_HEIGHT))
            for _ in range(2)
        )
        if any(z) and z not in values:
            values.append(z)
    rng.shuffle(values)
    return values


def format_gauss(re: Fraction, im: Fraction) -> str:
    """A Gaussian rational in the package's expression grammar."""
    if not im:
        return str(re)
    if not re:
        return f"{im}*i"
    return f"{re}+{im}*i" if im > 0 else f"{re}-{-im}*i"


def make_config(workload: str, seed: int) -> dict:
    """The run configuration of ``workload`` at ``seed``.

    Grids and suite seed depend on ``seed`` alone, so the three
    workloads at one seed split the run of ``all`` at that seed.
    """
    if workload == "all":
        checks = tuple(check for group in WORKLOADS.values() for check in group)
    elif workload in WORKLOADS:
        checks = WORKLOADS[workload]
    else:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = _rng(seed)
    return {
        "t": _t_grid(rng),
        "zeta": _zeta_grid(rng),
        "checks": checks,
        "seed": rng.randrange(2**31),
        "cases": CASES,
    }


def config_text(cfg: dict) -> str:
    """The ``key = value`` file the command line reads with ``--config``."""
    lines = [
        "t = " + ", ".join(str(t) for t in cfg["t"]),
        "zeta = " + ", ".join(format_gauss(*z) for z in cfg["zeta"]),
        "checks = " + ", ".join(cfg["checks"]),
        f"seed = {cfg['seed']}",
        f"cases = {cfg['cases']}",
    ]
    return "\n".join(lines) + "\n"


def expected_records(cfg: dict) -> dict[str, dict[str, str]]:
    """Record name -> the params it must report, for every expected verdict."""
    n_t, n_z = len(cfg["t"]), len(cfg["zeta"])
    nonzero = sum(1 for z in cfg["zeta"] if any(z))
    unit = sum(1 for re, im in cfg["zeta"] if re * re + im * im == 1)
    grid = str(n_t * n_z)
    params = {
        "spinor-exp[identity]": {"samples": str(n_t * nonzero)},
        "spinor-exp[specializations]": {"t": str(cfg["t"][0])},
        "gcs-family[algebra]": {"samples": grid},
        "gcs-family[unit-circle]": {"samples": str(unit)},
        "gcs-family[b-transform]": {"samples": grid},
        "spinor-gcs-match[annihilator]": {"samples": grid},
        "spinor-gcs-match[purity]": {"samples": grid},
        "direction-pointwise[twistor]": {"zeta-samples": str(n_z)},
        "direction-pointwise[interpolation]": {"samples": grid},
        "direction-pointwise[transverse]": {"samples": grid},
        "direction-pointwise[linearity]": {"t-samples": str(n_t)},
        "mirror-thm4[samples]": {"samples": str(n_t * nonzero)},
    }
    suite = {"cases": str(cfg["cases"]), "seed": str(cfg["seed"])}
    out = {}
    for check in cfg["checks"]:
        for suffix in RECORDS[check]:
            name = check if suffix is None else f"{check}[{suffix}]"
            out[name] = suite if check in SUITES else params.get(name, {})
    return out


def gate(cfg: dict, exit_code, report_text: str) -> tuple[int, int, list[str]]:
    """Check one verify run: ``(attempted, failed, problems)``.

    Every expected verdict counts as attempted.  A crash or a nonzero
    exit fails all of them; otherwise a verdict fails when its record is
    missing, is not ``pass``, or reports params that disagree with the
    configuration.  A record nobody expected fails too.
    """
    expected = expected_records(cfg)
    attempted = len(expected)
    if exit_code != 0:
        return attempted, attempted, [f"verify exited with {exit_code!r}"]
    try:
        records = json.loads(report_text)
    except ValueError as exc:
        return attempted, attempted, [f"unparsable report: {exc}"]
    problems = []
    seen = set()
    for record in records:
        name = record.get("name")
        if name not in expected or name in seen:
            problems.append(f"unexpected record {name!r}")
            continue
        seen.add(name)
        if record.get("verdict") != "pass":
            problems.append(f"{name}: verdict {record.get('verdict')!r}")
            continue
        params = record.get("params", {})
        for key, value in expected[name].items():
            if params.get(key) != value:
                problems.append(f"{name}: {key}={params.get(key)!r}, expected {value!r}")
                break
    problems.extend(f"missing record {name!r}" for name in expected if name not in seen)
    return attempted + len(records) - len(seen), len(problems), problems
