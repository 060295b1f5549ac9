"""Named verification suites and their machine-readable results.

Every identity the package certifies is registered here under a unique
name together with a one-line statement of the mathematical fact it
checks.  A check is defined once, by decorating its body with
:func:`check` (or through the table and suite factories built on the
registry), and the report, the acceptance tests and the pointwise
command-line commands all read its records from :func:`run_checks`.

A run produces one :class:`CheckDescriptor` per verdict, always through
:func:`_verdict`; table checks produce one descriptor per basis vector.
A verdict passes only when it evaluated at least one sample and none
failed.  Checks are independent of each other and could run
concurrently; the report is always assembled in registration order.

Symbolic checks are exact identities in the Laurent ring.  Pointwise
checks run over the sample grid of the :class:`RunConfig`; the default
grid has five values of ``t > 1`` and twenty Gaussian-rational values
of ``zeta`` including points on the unit circle.  Every verdict on the
``(t, zeta)`` grid comes from one walk in :func:`_sampled`, and its
``samples`` counts the points it evaluated, not the points it skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import cohomology as coh
from . import families as fam
from . import gcs
from . import harmonic as ht
from . import mirror as mir
from . import spinor as sp
from .cohomology import CohClass, mukai_pairing, wedge
from .harmonic import HTClass
from .linalg import CMatrix, Subspace, eigenspace_i, kernel
from .scalar import GR_I, GaussRational, Scalar, _reduce


class ConfigError(ValueError):
    """Bad run configuration: empty grids or unknown check names."""


@dataclass
class CheckDescriptor:
    """One verdict: a named check, its statement, parameters, and residual."""

    name: str
    statement: str
    params: dict
    verdict: bool
    witness: str = "0"

    def as_record(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "verdict": "pass" if self.verdict else "fail",
            "witness": self.witness,
        }


DEFAULT_T_SAMPLES = (
    Fraction(3, 2),
    Fraction(2),
    Fraction(5),
    Fraction(10),
    Fraction(100),
)

DEFAULT_ZETA_SAMPLES = tuple(
    GaussRational(Fraction(a), Fraction(b))
    for a, b in [
        ("1/2", 0),
        ("1/3", 0),
        (2, 0),
        ("-1/2", 0),
        (0, 1),
        (0, -1),
        ("3/5", "4/5"),
        ("3/5", "-4/5"),
        (1, 1),
        (1, -1),
        ("1/2", "1/2"),
        ("1/3", "-1/3"),
        (0, 2),
        (-2, 1),
        ("1/2", "1/3"),
        ("-1/3", "-1/5"),
        ("3/2", 0),
        ("5/13", "12/13"),
        ("8/17", "-15/17"),
        ("-5/4", "2/3"),
    ]
)


@dataclass
class RunConfig:
    """Sample grids, output format, name filter, and randomness settings."""

    t_samples: tuple = DEFAULT_T_SAMPLES
    zeta_samples: tuple = DEFAULT_ZETA_SAMPLES
    names: tuple | None = None
    fmt: str = "text"
    seed: int = 0
    cases: int = 1000

    def validate(self):
        if not self.t_samples or not self.zeta_samples:
            raise ConfigError("sample grids must be nonempty")
        if any(t <= 1 for t in self.t_samples):
            raise ConfigError("t samples must be greater than 1")
        if self.fmt not in ("text", "structured"):
            raise ConfigError(f"unknown output format {self.fmt!r}")
        if self.cases < 1:
            raise ConfigError("cases must be positive")
        if self.names is not None:
            unknown = [n for n in self.names if n not in REGISTRY_NAMES]
            if unknown:
                raise ConfigError(f"unknown check names: {', '.join(unknown)}")


# -- registry ----------------------------------------------------------

# (name, statement, run) in definition order; ``run(cfg)`` returns the
# check's descriptors.
REGISTRY = []


def _verdict(name, statement, params, failures, evaluated=1) -> CheckDescriptor:
    """The descriptor of one verdict.

    It passes when ``evaluated`` is nonzero and ``failures`` is empty.
    A failing witness lists the first three failures and, when there
    are more, their total.
    """
    if not evaluated:
        witness = "no samples evaluated"
    elif not failures:
        witness = "0"
    else:
        witness = "; ".join(str(f) for f in failures[:3])
        if len(failures) > 3:
            witness += f"; ... ({len(failures)} failures)"
    return CheckDescriptor(
        name=name,
        statement=statement,
        params=params,
        verdict=bool(evaluated) and not failures,
        witness=witness,
    )


def check(name, statement):
    """Register the decorated generator as the check ``name``.

    The body takes the :class:`RunConfig` and yields one
    ``(label, statement, params, failures[, evaluated])`` tuple per
    verdict; the record is ``name[label]``, or ``name`` itself when the
    label is ``None``.
    """

    def register(body):
        def run(cfg):
            return [
                _verdict(name if label is None else f"{name}[{label}]", *verdict)
                for label, *verdict in body(cfg)
            ]

        REGISTRY.append((name, statement, run))
        return body

    return register


def _nonzero(residual):
    """The failures of an exact identity whose residual should vanish."""
    return [residual] if residual else []


def _sampled(cfg: RunConfig, statements, evaluate):
    """The verdicts of one walk over the ``(t, zeta)`` grid.

    ``statements`` maps each label to its statement, in record order.
    ``evaluate(t, zeta)`` returns ``{label: held}`` for the labels it
    evaluated at that point and leaves out the ones it skipped there.
    Each verdict's ``samples`` is the number of points it evaluated, and
    each failure names its point.
    """
    failures = {label: [] for label in statements}
    evaluated = dict.fromkeys(statements, 0)
    for t in cfg.t_samples:
        for z in cfg.zeta_samples:
            for label, held in evaluate(t, z).items():
                evaluated[label] += 1
                if not held:
                    failures[label].append(f"t={t}, zeta={z}")
    return [
        (label, statement, {"samples": evaluated[label]}, failures[label], evaluated[label])
        for label, statement in statements.items()
    ]


# -- transform tables ----------------------------------------------------

_QUARTER = Scalar.monomial("1/4")


def _table_check(name, statement, mapping, table):
    """Register a check with one verdict per ``(label, input, expected)``.

    The runner calls ``mapping`` from its own closure, so a tracer can
    substitute it there.
    """

    def run(cfg):
        return [
            _verdict(
                f"{name}[{label}]",
                statement,
                {"input": label},
                _nonzero(mapping(arg) - expected),
            )
            for label, arg, expected in table
        ]

    REGISTRY.append((name, statement, run))


_table_check(
    "phiOmega-table",
    "transform of the even-cohomology basis matches its closed-form table",
    ht.phi_homega,
    (
        ("one", coh.ONE, -coh.C - coh.F),
        ("eta", coh.ETA, coh.F),
        ("C", coh.C, coh.ONE + coh.ETA),
        ("F", coh.F, -coh.ETA),
    ),
)


@check("phiOmega-isometry", "the even-cohomology transform is a Mukai-pairing isometry")
def _check_phi_omega_isometry(cfg):
    basis = [
        ("one", coh.ONE),
        ("C", coh.C),
        ("F", coh.F),
        ("sigma", coh.SIGMA),
        ("sigmabar", coh.SIGMABAR),
        ("eta", coh.ETA),
    ]
    bad = []
    for i, (nx, x) in enumerate(basis):
        for ny, y in basis[i:]:
            lhs = mukai_pairing(ht.phi_homega(x), ht.phi_homega(y))
            rhs = mukai_pairing(x, y)
            if lhs != rhs:
                bad.append(f"<{nx},{ny}>: {lhs} != {rhs}")
    yield (
        None,
        "the even-cohomology transform preserves the Mukai pairing "
        "on all unordered basis pairs",
        {"pairs": 21},
        bad,
    )


_table_check(
    "contraction-table",
    "contraction against the holomorphic two-form matches its table",
    ht.contract_sigma,
    (
        ("sigma^-1", ht.SIGMA_INV, coh.ONE * 4),
        ("sigmabar", ht.SIGMABAR, coh.ETA * 4),
        ("sigma^-1*C", ht.SIGMA_INV_C, coh.C),
        ("sigma^-1*F", ht.SIGMA_INV_F, coh.F),
    ),
)

_table_check(
    "phiHT-table",
    "the conjugated transform equals its closed-form table on the "
    "polyvector basis",
    ht.phi_ht,
    (
        ("(1/4)*sigma^-1", ht.SIGMA_INV * _QUARTER, -ht.SIGMA_INV_C - ht.SIGMA_INV_F),
        ("(1/4)*sigmabar", ht.SIGMABAR * _QUARTER, ht.SIGMA_INV_F),
        ("sigma^-1*C", ht.SIGMA_INV_C, ht.SIGMA_INV * _QUARTER + ht.SIGMABAR * _QUARTER),
        ("sigma^-1*F", ht.SIGMA_INV_F, -(ht.SIGMABAR * _QUARTER)),
    ),
)

_table_check(
    "phiT-table",
    "the Todd-twisted transform equals its closed-form table on the "
    "polyvector basis",
    ht.phi_t,
    (
        ("(1/4)*sigma^-1", ht.SIGMA_INV * _QUARTER, -ht.SIGMA_INV_C - ht.SIGMA_INV_F * 2),
        ("(1/4)*sigmabar", ht.SIGMABAR * _QUARTER, ht.SIGMA_INV_F),
        (
            "sigma^-1*C",
            ht.SIGMA_INV_C,
            ht.SIGMA_INV * _QUARTER + ht.SIGMABAR * (_QUARTER * 2),
        ),
        ("sigma^-1*F", ht.SIGMA_INV_F, -(ht.SIGMABAR * _QUARTER)),
    ),
)


# -- symbolic and pointwise identities ---------------------------------

@check("bfield-correction", "deformation directions correspond up to the B-field correction")
def _check_bfield_correction(cfg):
    residuals = fam.family_identities(Scalar.t())
    yield (
        "phiT",
        "the Todd-twisted transform sends the twistor direction to "
        "the interpolation direction minus (1/(2t))*sigmabar",
        {"t": "symbolic"},
        _nonzero(residuals["correction-is-halved-inverse-t"]),
    )
    yield (
        "phiHT",
        "the untwisted transform sends the twistor direction to the "
        "interpolation direction exactly",
        {"t": "symbolic"},
        _nonzero(residuals["untwisted-correction-vanishes"]),
    )
    corr = fam.bfield_correction(Scalar.t())
    values = [abs(corr.r.eval(t0=Fraction(10) ** k).re) for k in range(1, 7)]
    decaying = all(a > b for a, b in zip(values, values[1:]))
    yield (
        "decay",
        "the correction coefficient shrinks monotonically along "
        "t = 10^k, witnessing its vanishing in the large-volume limit",
        {"t": "10^1..10^6"},
        [] if decaying else [[str(v) for v in values]],
    )


@check("kahler-arithmetic", "intersection numbers of the polarizing class")
def _check_kahler(cfg):
    residuals = fam.family_identities(Scalar.t())
    for key, statement in (
        ("alpha-dot-C", "alpha . C = (t^2-1)/t symbolically"),
        ("alpha-dot-F", "alpha . F = 1/t symbolically (the fibre volume)"),
        ("alpha-squared", "alpha^2 = 2 symbolically"),
        ("alpha-dot-C-at-t-1", "alpha . C vanishes at t = 1 (wall of the ample cone)"),
    ):
        yield key, statement, {"t": "symbolic"}, _nonzero(residuals[key])


@check("period-squares", "period classes square to zero")
def _check_period_squares(cfg):
    t, z = Scalar.t(), Scalar.zeta()
    tp = coh.twistor_period(t, z)
    yield (
        "twistor",
        "the twistor period has vanishing self-intersection "
        "identically in t and zeta",
        {"t": "symbolic", "zeta": "symbolic"},
        _nonzero(wedge(tp, tp)),
    )
    lcs = coh.SIGMA + coh.F * (2 * z)
    yield (
        "fibre-translation",
        "(sigma + 2*zeta*F)^2 = 0, so the fibre-translation family "
        "needs no higher-order period corrections",
        {"zeta": "symbolic"},
        _nonzero(wedge(lcs, lcs)),
    )


@check("spinor-exp", "exponential form of the family spinor")
def _check_spinor_exp(cfg):
    def at(t, z):
        if not z:
            return {}
        b, om = sp.bfield_symplectic_data(z, t)
        lhs = sp.exp_two_form(b).wedge(sp.exp_two_form(om * GR_I))
        st = sp.sigma() * t
        stb = sp.sigmabar() * t
        rhs = (
            sp.Spinor.scalar(1)
            + st * (GaussRational(1) / (2 * z))
            - stb * (z / GaussRational(2))
            - st.wedge(stb) * Fraction(1, 4)
        )
        return {"identity": lhs == rhs and lhs * (2 * z) == sp.family_spinor(z, t)}

    yield from _sampled(cfg, {
        "identity": "e^B e^{i omega} = 1 + (s/(2 zeta) - zeta s~/2) - s s~/4 "
        "with s the t-scaled two-form, and 2*zeta times it is the family spinor",
    }, at)
    t0 = cfg.t_samples[0]
    # in the chart at infinity, w = 1/zeta: w^2 * rho(1/w) at w = 0 is the
    # zeta^2 coefficient of rho, the top power of zeta in it
    rho = sp.family_spinor(Scalar.zeta(), t0)
    coeffs = {m: Scalar.from_value(c) for m, c in rho.terms.items()}
    top = sp.Spinor({m: c.zeta_coefficient(2) for m, c in coeffs.items()})
    ok = (
        sp.family_spinor(GaussRational(0), t0) == sp.sigma() * t0
        and top == -sp.family_spinor_infinity(t0)
        and all(e_zeta <= 2 for c in coeffs.values() for _, e_zeta, _ in c.terms)
    )
    yield (
        "specializations",
        "the family spinor specializes to the holomorphic two-form "
        "at zeta = 0 and to its conjugate in the chart at infinity",
        {"t": t0},
        [] if ok else ["specialization failed"],
    )


@check("gcs-family", "algebraic identities of the interpolation family")
def _check_gcs_family(cfg):
    def at(t, z):
        j = gcs.j_zeta(z, t)
        held = {"algebra": j.squares_to_minus_identity() and j.is_orthogonal()}
        if z.norm_sq() == 1:
            held["unit-circle"] = j.blocks()[0].is_zero()
        if z:
            b, om = sp.bfield_symplectic_data(z, t)
            held["b-transform"] = gcs.b_transform(gcs.j_symplectic(om), b) == j
        return held

    algebra, circle, factor = _sampled(cfg, {
        "algebra": "every sampled family member squares to -Id and is "
        "orthogonal for the natural pairing",
        "unit-circle": "on the unit circle the complex-type block vanishes: the "
        "structure is purely symplectic",
        "b-transform": "away from zeta = 0 the family member factors as the "
        "B-field transform of its symplectic part",
    }, at)
    # the unit-circle record counts the unit-circle zeta values
    circle[2]["samples"] = sum(1 for z in cfg.zeta_samples if z.norm_sq() == 1)
    yield from (algebra, circle, factor)


@check("spinor-gcs-match", "spinor annihilators match structure eigenspaces")
def _check_spinor_gcs_match(cfg):
    def at(t, z):
        ann = sp.clifford_annihilator(sp.family_spinor(z, t))
        pure = ann.dim == 4
        return {
            "annihilator": pure and ann == eigenspace_i(gcs.j_zeta(z, t).matrix),
            "purity": pure,
        }

    yield from _sampled(cfg, {
        "annihilator": "the Clifford annihilator of the family spinor equals the "
        "+i eigenspace of the family endomorphism at every sample",
        "purity": "the family spinor is pure (four-dimensional annihilator) "
        "at every sample",
    }, at)


@check("direction-pointwise", "pointwise deformation graphs match their closed forms")
def _check_direction_pointwise(cfg):
    yield (
        "twistor",
        "the graph of the rotated antiholomorphic tangent space "
        "equals -2*zeta times the inverse two-form composed with the Kaehler "
        "form, exactly in zeta",
        {"zeta-samples": len(cfg.zeta_samples)},
        [
            f"zeta={z}"
            for z in cfg.zeta_samples
            if gcs.twistor_pointwise_graph(z) != gcs.twistor_direction_matrix(z)
        ],
        len(cfg.zeta_samples),
    )

    graphs = {}  # (t, zeta) -> graph, for the linearity verdict
    # the action of v_t depends on t alone; zeta only scales it
    actions = {t: gcs.polyvector_action(fam.direction_Y(t)) for t in cfg.t_samples}

    def at(t, z):
        space = eigenspace_i(gcs.j_zeta(z, t).matrix)
        graph = graphs[t, z] = gcs.eigenspace_graph(space)
        held = {"interpolation": graph == actions[t].scale(z)}
        if z:
            held["transverse"] = space.intersection(space.conj()).dim == 0
        return held

    yield from _sampled(cfg, {
        "interpolation": "the eigenspace graph of the interpolation family equals "
        "the action of (zeta/2)(-(1/t)*sigma^-1 + t*sigmabar) at every sample",
        "transverse": "the +i eigenspace meets its conjugate trivially away from "
        "the poles of the family",
    }, at)
    # additivity needs two zeta samples
    linear_ts = cfg.t_samples if len(cfg.zeta_samples) > 1 else ()
    linear_bad = []
    for t in linear_ts:
        z1, z2 = cfg.zeta_samples[:2]
        if graphs[t, z1] + graphs[t, z2] != gcs.deformation_graph_Y(z1 + z2, t):
            linear_bad.append(f"t={t}")
    yield (
        "linearity",
        "the eigenspace graph is additive in zeta at fixed t",
        {"t-samples": len(linear_ts)},
        linear_bad,
        len(linear_ts),
    )


@check("direction-lattice", "lattice directions recovered from the families")
def _check_direction_lattice(cfg):
    residuals = fam.family_identities(Scalar.t())
    yield (
        "twistor",
        "minus the contraction inverse of the zeta-linear period "
        "term reproduces the twistor direction symbolically",
        {"t": "symbolic"},
        _nonzero(residuals["twistor-direction-recovered"]),
    )
    yield (
        "interpolation",
        "minus the contraction inverse of the zeta-linear spinor "
        "term reproduces the interpolation direction symbolically",
        {"t": "symbolic"},
        _nonzero(residuals["interpolation-direction-recovered"]),
    )
    corr = fam.bfield_correction(Scalar.t())
    yield (
        "correction-components",
        "the correction has a sigmabar component only",
        {"t": "symbolic"},
        [corr] if corr.p or corr.qC or corr.qF else [],
    )


@check("mirror-thm4", "the two families are mirror partners")
def _check_mirror(cfg):
    t, z = Scalar.t(), Scalar.zeta()
    yield (
        "symbolic",
        "the mirror of the normalized twistor period is the "
        "interpolation family's complexified Kaehler class mod F, exactly "
        "in the Laurent ring",
        {"t": "symbolic", "zeta": "symbolic"},
        [] if mir.verify_theorem4(t, z) else ["congruence failed"],
    )
    n = mukai_pairing(coh.F, coh.real_part(mir.normalized_twistor_period(t, z)))
    yield (
        "normalizer",
        "the fibre class pairs with the real part of the "
        "normalized period to 1/t",
        {"t": "symbolic", "zeta": "symbolic"},
        _nonzero(n - Scalar.one() / t),
    )
    yield from _sampled(
        cfg,
        {"samples": "the same congruence holds at every grid sample"},
        lambda t0, z0: {"samples": mir.verify_theorem4(t0, z0)} if z0 else {},
    )


def _normalized_quadruple():
    half = Scalar.monomial("1/2")
    omega = coh.C + coh.F * 2
    re_sigma = (coh.SIGMA + coh.SIGMABAR) * half
    im_sigma = (coh.SIGMA - coh.SIGMABAR) * Scalar.monomial(GaussRational(0, "-1/2"))
    bfield = (coh.SIGMA + coh.SIGMABAR) * half
    return bfield, omega, re_sigma, im_sigma


@check("normalize-roundtrip", "the mod-F normalization solver and its perturbation round trip")
def _check_normalize_roundtrip(cfg):
    quad = _normalized_quadruple()
    yield (
        "fixed-point",
        "already-normalized classes come back unchanged "
        "(all multipliers zero)",
        {},
        [] if mir.normalize_mod_F(quad) == quad else ["fixed point moved"],
    )
    t = Scalar.t()
    shifts = (Scalar.from_value(5), t * 3, Scalar.from_value(-7), t * t + 11)
    perturbed = tuple(x + coh.F * s for x, s in zip(quad, shifts))
    recovered = mir.normalize_mod_F(perturbed)
    yield (
        "perturbation",
        "perturbing by known multiples of the fibre class and "
        "re-solving recovers the normalized classes",
        {"shifts": "5, 3t, -7, t^2+11"},
        [] if recovered == quad else ["round trip failed"],
    )
    _, w, r, m = recovered
    mu = mukai_pairing
    constraints = {
        "Re^2=Im^2": mu(r, r) == mu(m, m),
        "Im^2=w^2": mu(m, m) == mu(w, w),
        "Re^2=w^2": mu(r, r) == mu(w, w),
        "w.Re=0": not mu(w, r),
        "w.Im=0": not mu(w, m),
        "Re.Im=0": not mu(r, m),
    }
    yield (
        "constraints",
        "the output satisfies all six pairing constraints exactly",
        {},
        [k for k, v in constraints.items() if not v],
    )


@check("limits", "boundary values of the parameter range")
def _check_limits(cfg):
    u1 = fam.direction_X(Scalar.one())
    yield (
        "t-1-direction",
        "at t = 1 the twistor direction is -2*sigma^-1*C - "
        "4*sigma^-1*F",
        {"t": 1},
        _nonzero(u1 - HTClass(qC=-2, qF=-4)),
    )
    yield (
        "t-1-image",
        "its Todd-twisted image is -(1/2)*sigma^-1, a holomorphic "
        "Poisson direction",
        {"t": 1},
        _nonzero(ht.phi_t(u1) - HTClass(p=Scalar.monomial("-1/2"))),
    )
    yield (
        "infinity",
        "the renormalized large-volume directions correspond: "
        "phi_t(-2*sigma^-1*F) = (1/2)*sigmabar",
        {"t": "renormalized limit"},
        _nonzero(ht.phi_t(fam.direction_X_infinity()) - fam.direction_Y_infinity()),
    )


# -- randomized property suites ---------------------------------------

def _rand_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _rand_gauss(rng):
    # GaussRational(_rand_fraction(rng), _rand_fraction(rng)) from the
    # same four draws, without building the two fractions
    a, p = rng.randint(-6, 6), rng.randint(1, 6)
    b, q = rng.randint(-6, 6), rng.randint(1, 6)
    return _reduce(a * q, b * p, p * q)


def _rand_scalar(rng, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
        terms[key] = _rand_gauss(rng)
    return Scalar(terms)


def _rand_coh(rng):
    return CohClass(*(_rand_scalar(rng, 2) for _ in range(6)))


def _rand_matrix(rng, rows, cols):
    return CMatrix([[_rand_gauss(rng) for _ in range(cols)] for _ in range(rows)])


def _rand_two_form(rng):
    # dx_j ^ dx_k for j < k is the basis two-form of mask 2^j + 2^k
    return sp.Spinor({
        (1 << j) | (1 << k): GaussRational(_rand_fraction(rng))
        for j in range(4)
        for k in range(j + 1, 4)
    })


def _suite(name, statement):
    """Register the decorated ``case(rng)`` as a randomized suite.

    A run draws ``cfg.cases`` cases from ``random.Random(cfg.seed)`` and
    stops at the first case that returns a problem instead of ``None``.
    """

    def register(case):
        @check(name, statement)
        def run(cfg):
            rng = random.Random(cfg.seed)
            failures = []
            for n in range(cfg.cases):
                problem = case(rng)
                if problem is not None:
                    failures.append(f"case {n}: {problem}")
                    break
            yield None, statement, {"cases": cfg.cases, "seed": cfg.seed}, failures, n + 1

        return case

    return register


@_suite("scalar-ring-axioms", "randomized ring axioms for the scalar Laurent ring")
def _case_scalar_ring(rng):
    a, b, c = (_rand_scalar(rng) for _ in range(3))
    if (a + b) + c != a + (b + c):
        return "addition not associative"
    if (a * b) * c != a * (b * c):
        return "multiplication not associative"
    if a * (b + c) != a * b + a * c:
        return "not distributive"
    if a * b != b * a or a + b != b + a:
        return "not commutative"
    return None


@_suite("conj-involution", "conjugation is an involutive ring automorphism")
def _case_conj(rng):
    a, b = _rand_scalar(rng), _rand_scalar(rng)
    if a.conj().conj() != a:
        return "conj not involutive"
    if (a + b).conj() != a.conj() + b.conj():
        return "conj not additive"
    if (a * b).conj() != a.conj() * b.conj():
        return "conj not multiplicative"
    return None


@_suite("wedge-associativity", "randomized wedge/pairing identities on cohomology classes")
def _case_wedge(rng):
    x, y, z = (_rand_coh(rng) for _ in range(3))
    xy, pairing = wedge(x, y), mukai_pairing(x, y)
    if wedge(xy, z) != wedge(x, wedge(y, z)):
        return "wedge not associative"
    if xy != wedge(y, x):
        return "wedge not commutative"
    if pairing != mukai_pairing(y, x):
        return "pairing not symmetric"
    if mukai_pairing(x.conj(), y.conj()) != pairing.conj():
        return "conjugation is not an isometry"
    return None


@_suite("subspace-roundtrip", "randomized kernel and canonical-form identities")
def _case_subspace(rng):
    m = _rand_matrix(rng, rng.randint(2, 4), rng.randint(2, 5))
    ker = kernel(m)
    for v in ker.basis:
        if any(m.apply(list(v))):
            return "kernel vector not annihilated"
    rank = Subspace(list(m.entries), ambient=m.cols).dim
    if rank + ker.dim != m.cols:
        return "rank-nullity violated"
    if ker.dim:
        vectors = [list(v) for v in ker.basis]
        nonzero = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        vectors[0] = [nonzero * x for x in vectors[0]]
        if ker.dim >= 2:
            scale = _rand_fraction(rng)
            vectors[0] = [x + scale * y for x, y in zip(vectors[0], vectors[1])]
        rng.shuffle(vectors)
        if Subspace(vectors, ambient=m.cols) != ker:
            return "canonical form not invariant under recombination"
    return None


# the structures the B-field transform suite acts on
_BTRANSFORM_POOL = (
    gcs.j_complex(),
    gcs.j_symplectic(sp.omega_j()),
    gcs.j_symplectic(sp.omega_i()),
)


@_suite("btransform-group", "randomized B-field transform group action")
def _case_btransform(rng):
    j = _BTRANSFORM_POOL[rng.randrange(len(_BTRANSFORM_POOL))]
    b1, b2 = _rand_two_form(rng), _rand_two_form(rng)
    if gcs.b_transform(j, sp.Spinor.zero()) != j:
        return "zero B-field acts nontrivially"
    lhs = gcs.b_transform(j, b1 + b2)
    rhs = gcs.b_transform(gcs.b_transform(j, b2), b1)
    if lhs != rhs:
        return "not a group action"
    if not lhs.squares_to_minus_identity():
        return "square not preserved"
    return None


REGISTRY_NAMES = tuple(name for name, _, _ in REGISTRY)


def run_checks(cfg: RunConfig) -> list[CheckDescriptor]:
    """Run the selected checks and return their descriptors in order."""
    cfg.validate()
    selected = cfg.names if cfg.names is not None else REGISTRY_NAMES
    return [d for name, _, run in REGISTRY if name in selected for d in run(cfg)]
