"""Named verification suites and their machine-readable results.

Every identity the package certifies is registered here under a unique
name together with a one-line statement of the mathematical fact it
checks.  A check is defined once, by decorating its body with
:func:`check`, the one place that registers a check, and the report,
the acceptance tests and every verdict the command line prints all
read its records from :func:`run_checks`, which :func:`selects` filters.

A run produces one :class:`CheckDescriptor` per verdict, always through
:func:`_verdict`.  A verdict passes only when it evaluated at least one
sample and none failed.  Checks are independent of each other and could
run concurrently; the report is always assembled in registration order.

Every verdict comes from one of three builders.  An exact claim is a
row ``(label, statement, params, residual)`` of :func:`_identities`;
the residual vanishes when the claim holds, or it is the list of the
claim's failures.  The four transform tables are such rows, one per
basis vector.  A sampled claim is one walk of :func:`_sampled` over
named grids of the :class:`RunConfig`, ``t`` and ``zeta`` or one alone,
and counts the points it evaluated, not those it skipped; the default
grid has five values of ``t > 1`` and twenty Gaussian-rational values
of ``zeta``, some on the unit circle.  A random suite is a :func:`_suite`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from . import cohomology as coh
from . import families as fam
from . import gcs
from . import harmonic as ht
from . import mirror as mir
from . import spinor as sp
from .cohomology import CohClass, mukai_pairing, wedge
from .harmonic import HTClass
from .linalg import CMatrix, Subspace, eigenspace_i, kernel
from .scalar import GR_I, GaussRational, Scalar, _lowest, _reduce


class ConfigError(ValueError):
    """Bad run configuration: empty grids or unknown check names."""


class CheckDescriptor:
    """One verdict: a named check, its statement, parameters, and residual."""

    def __init__(self, name, statement, params, verdict, witness="0"):
        self.name, self.statement, self.params = name, statement, params
        self.verdict, self.witness = verdict, witness

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


class RunConfig:
    """Sample grids, name filter, and randomness settings, one attribute per keyword."""

    def __init__(self, t_samples=DEFAULT_T_SAMPLES, zeta_samples=DEFAULT_ZETA_SAMPLES,
                 names=None, seed=0, cases=1000):
        self.t_samples, self.zeta_samples, self.names = t_samples, zeta_samples, names
        self.seed, self.cases = seed, cases

    def validate(self):
        if not self.t_samples or not self.zeta_samples:
            raise ConfigError("sample grids must be nonempty")
        if any(t <= 1 for t in self.t_samples):
            raise ConfigError("t samples must be greater than 1")
        if self.cases < 1:
            raise ConfigError("cases must be positive")
        if self.names is not None:
            unknown = [n for n in self.names if not selects(REGISTRY_NAMES, n)]
            if unknown:
                raise ConfigError(f"unknown check names: {', '.join(unknown)}; "
                                  f"known: {', '.join(REGISTRY_NAMES)}")


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
    """Register the decorated body as the check ``name``.

    The body takes the :class:`RunConfig` and returns or yields one
    ``(label, statement, params, failures[, evaluated])`` tuple per
    verdict, built by :func:`_identities`, :func:`_sampled` or
    :func:`_suite`; the record is ``name[label]``, or ``name`` itself
    when the label is ``None``.  Every check, table and suite registers here.
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


def _identities(rows):
    """The verdicts of exact identities, one per ``(label, statement,
    params, residual)`` row.

    Each ``residual()`` is computed here, when the check runs: a list is
    the row's failures, and any other value fails when it is nonzero and
    is then the witness.  A residual reaches the package through module
    attributes (``fam.bfield_correction``, ``coh.alpha_class``, never a
    function held since import), so a patched attribute sees every call.
    Rows may outlive a run, so each verdict copies its ``params``.
    """
    for label, statement, params, residual in rows:
        value = residual()
        failures = value if isinstance(value, list) else [value] if value else []
        yield label, statement, dict(params), failures


def _sampled(cfg: RunConfig, statements, evaluate, grids=("t", "zeta")):
    """The verdicts of one walk over the named sample grids of ``cfg``.

    ``grids`` names the grids walked, ``t`` and ``zeta`` or one alone;
    ``statements`` maps each label to its statement, in record order.
    ``evaluate(*point)`` returns ``{label: held}`` for the labels it
    evaluated at that point and leaves out the ones it skipped there.
    Each verdict counts the points it evaluated, as ``samples``, or as
    ``t-samples`` or ``zeta-samples`` on one grid; each failure names
    its point.
    """
    failures = {label: [] for label in statements}
    evaluated = dict.fromkeys(statements, 0)
    for point in product(*(getattr(cfg, f"{grid}_samples") for grid in grids)):
        for label, held in evaluate(*point).items():
            evaluated[label] += 1
            if not held:
                failures[label].append(", ".join(f"{g}={v}" for g, v in zip(grids, point)))
    count = "samples" if len(grids) > 1 else f"{grids[0]}-samples"
    return [
        (label, statement, {count: evaluated[label]}, failures[label], evaluated[label])
        for label, statement in statements.items()
    ]


# -- transform tables ----------------------------------------------------

_QUARTER = Scalar.monomial("1/4")


def _transform_table(name, statement, transform, table):
    """Register ``name`` with the row ``transform(input) = expected`` for
    each ``(label, input, expected)`` of ``table``.

    ``transform`` names a map of :mod:`gk3.harmonic`, looked up when the
    check runs; the inputs and expected values are built at import.
    """
    rows = tuple(
        (label, statement, {"input": label},
         lambda x=x, y=y: getattr(ht, transform)(x) - y)
        for label, x, y in table
    )
    check(name, statement)(lambda cfg: _identities(rows))


_transform_table(
    "phiOmega-table",
    "transform of the even-cohomology basis matches its closed-form table",
    "phi_homega",
    (
        ("one", coh.ONE, -coh.C - coh.F),
        ("eta", coh.ETA, coh.F),
        ("C", coh.C, coh.ONE + coh.ETA),
        ("F", coh.F, -coh.ETA),
    ),
)


@check("phiOmega-isometry", "the even-cohomology transform is a Mukai-pairing isometry")
def _check_phi_omega_isometry(cfg):
    basis = list(zip(CohClass.NAMES, (coh.ONE, coh.C, coh.F, coh.SIGMA, coh.SIGMABAR, coh.ETA)))

    def changed():
        # each unordered basis pair whose pairing the transform changes, by how much
        return [
            f"<{nx},{ny}>: {diff}"
            for i, (nx, x) in enumerate(basis) for ny, y in basis[i:]
            if (diff := mukai_pairing(ht.phi_homega(x), ht.phi_homega(y)) - mukai_pairing(x, y))
        ]

    return _identities((
        (None, "the even-cohomology transform preserves the Mukai pairing "
         "on all unordered basis pairs", {"pairs": 21}, changed),
    ))


_transform_table(
    "contraction-table",
    "contraction against the holomorphic two-form matches its table",
    "contract_sigma",
    (
        ("sigma^-1", ht.SIGMA_INV, coh.ONE * 4),
        ("sigmabar", ht.SIGMABAR, coh.ETA * 4),
        ("sigma^-1*C", ht.SIGMA_INV_C, coh.C),
        ("sigma^-1*F", ht.SIGMA_INV_F, coh.F),
    ),
)

_transform_table(
    "phiHT-table",
    "the conjugated transform equals its closed-form table on the "
    "polyvector basis",
    "phi_ht",
    (
        ("(1/4)*sigma^-1", ht.SIGMA_INV * _QUARTER, -ht.SIGMA_INV_C - ht.SIGMA_INV_F),
        ("(1/4)*sigmabar", ht.SIGMABAR * _QUARTER, ht.SIGMA_INV_F),
        ("sigma^-1*C", ht.SIGMA_INV_C, ht.SIGMA_INV * _QUARTER + ht.SIGMABAR * _QUARTER),
        ("sigma^-1*F", ht.SIGMA_INV_F, -(ht.SIGMABAR * _QUARTER)),
    ),
)

_transform_table(
    "phiT-table",
    "the Todd-twisted transform equals its closed-form table on the "
    "polyvector basis",
    "phi_t",
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

# the params of an identity in t, and of one in t and zeta
_T = {"t": "symbolic"}
_T_ZETA = {"t": "symbolic", "zeta": "symbolic"}


@check("bfield-correction", "deformation directions correspond up to the B-field correction")
def _check_bfield_correction(cfg):
    t = Scalar.t()

    def growing():
        # each step t = 10^k .. 10^(k+1) along which |coefficient|^2 does not shrink
        corr = fam.bfield_correction(t)
        values = [corr.r.eval(t0=Fraction(10) ** k).norm_sq() for k in range(1, 7)]
        return [f"t=10^{k}..10^{k + 1}: squared modulus {a} -> {b}"
                for k, a, b in zip(range(1, 7), values, values[1:]) if a <= b]

    return _identities((
        ("phiT", "the Todd-twisted transform sends the twistor direction to "
         "the interpolation direction minus (1/(2t))*sigmabar", _T,
         lambda: fam.bfield_correction(t) - HTClass(r=-(Scalar.monomial("1/2") / t))),
        ("phiHT", "the untwisted transform sends the twistor direction to the "
         "interpolation direction exactly", _T, lambda: fam.bfield_correction_untwisted(t)),
        ("decay", "the correction coefficient shrinks monotonically along t = 10^k, "
         "witnessing its vanishing in the large-volume limit", {"t": "10^1..10^6"}, growing),
    ))


@check("kahler-arithmetic", "intersection numbers of the polarizing class")
def _check_kahler(cfg):
    t, one = Scalar.t(), Scalar.one()
    alpha = coh.alpha_class(t)
    return _identities((
        ("alpha-dot-C", "alpha . C = (t^2-1)/t symbolically", _T,
         lambda: mukai_pairing(alpha, coh.C) - (t * t - 1) / t),
        ("alpha-dot-F", "alpha . F = 1/t symbolically (the fibre volume)", _T,
         lambda: mukai_pairing(alpha, coh.F) - one / t),
        ("alpha-squared", "alpha^2 = 2 symbolically", _T,
         lambda: mukai_pairing(alpha, alpha) - 2 * one),
        ("alpha-dot-C-at-t-1", "alpha . C vanishes at t = 1 (wall of the ample cone)", _T,
         lambda: mukai_pairing(coh.alpha_class(one), coh.C)),
    ))


@check("period-squares", "period classes square to zero")
def _check_period_squares(cfg):
    tp = coh.twistor_period(Scalar.t(), Scalar.zeta())
    lcs = coh.SIGMA + coh.F * (2 * Scalar.zeta())
    return _identities((
        ("twistor", "the twistor period has vanishing self-intersection "
         "identically in t and zeta", _T_ZETA, lambda: wedge(tp, tp)),
        ("fibre-translation", "(sigma + 2*zeta*F)^2 = 0, so the fibre-translation family "
         "needs no higher-order period corrections", {"zeta": "symbolic"},
         lambda: wedge(lcs, lcs)),
    ))


@check("spinor-exp", "exponential form of the family spinor")
def _check_spinor_exp(cfg):
    def at(t, z):
        if not z:
            return {}
        b, om = sp.bfield_symplectic_data(z, t)
        lhs = sp.exp_two_form(b).wedge(sp.exp_two_form(om * GR_I))
        st = sp.SIGMA * t
        stb = sp.SIGMABAR * t
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

    def specializations():
        # in the chart at infinity, w = 1/zeta: w^2 * rho(1/w) at w = 0 is the
        # zeta^2 coefficient of rho, the top power of zeta in it
        rho = sp.family_spinor(Scalar.zeta(), t0)
        coeffs = {m: Scalar.from_value(c) for m, c in rho.terms.items()}
        top = sp.Spinor({m: c.zeta_coefficient(2) for m, c in coeffs.items()})
        residuals = {"zeta=0": sp.family_spinor(GaussRational(0), t0) - sp.SIGMA * t0,
                     "infinity": top + sp.family_spinor_infinity(t0)}
        power = max((e_zeta for c in coeffs.values() for _, e_zeta, _ in c.terms), default=0)
        return ([f"{where}: {r}" for where, r in residuals.items() if r]
                + ([f"zeta^{power}"] if power > 2 else []))

    yield from _identities((
        ("specializations", "the family spinor specializes to the holomorphic two-form "
         "at zeta = 0 and to its conjugate in the chart at infinity", {"t": t0},
         specializations),
    ))


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
    yield from _sampled(cfg, {
        "twistor": "the graph of the rotated antiholomorphic tangent space "
        "equals -2*zeta times the inverse two-form composed with the Kaehler "
        "form, exactly in zeta",
    }, lambda z: {"twistor": gcs.twistor_pointwise_graph(z) == gcs.twistor_direction_matrix(z)},
        grids=("zeta",))

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

    def additive(t):
        # additivity needs two zeta samples
        if len(cfg.zeta_samples) < 2:
            return {}
        z1, z2 = cfg.zeta_samples[:2]
        return {"linearity": graphs[t, z1] + graphs[t, z2] == gcs.deformation_graph_Y(z1 + z2, t)}

    yield from _sampled(cfg, {
        "linearity": "the eigenspace graph is additive in zeta at fixed t",
    }, additive, grids=("t",))


@check("direction-lattice", "lattice directions recovered from the families")
def _check_direction_lattice(cfg):
    t, z = Scalar.t(), Scalar.zeta()
    return _identities((
        ("twistor", "minus the contraction inverse of the zeta-linear period "
         "term reproduces the twistor direction symbolically", _T,
         lambda: fam.direction_from_spinor_family(coh.twistor_period(t, z))
         - fam.direction_X(t)),
        ("interpolation", "minus the contraction inverse of the zeta-linear spinor "
         "term reproduces the interpolation direction symbolically", _T,
         lambda: fam.direction_from_spinor_family(coh.gualtieri_spinor_class(t, z))
         - fam.direction_Y(t)),
        # the residual is the correction's part off sigmabar
        ("correction-components", "the correction has a sigmabar component only", _T,
         lambda: HTClass(*fam.bfield_correction(t).components()[:3])),
    ))


@check("mirror-thm4", "the two families are mirror partners")
def _check_mirror(cfg):
    t, z = Scalar.t(), Scalar.zeta()
    yield from _identities((
        ("symbolic", "the mirror of the normalized twistor period is the "
         "interpolation family's complexified Kaehler class mod F, exactly "
         "in the Laurent ring", _T_ZETA, lambda: mir.verify_theorem4(t, z)),
        ("normalizer", "the fibre class pairs with the real part of the "
         "normalized period to 1/t", _T_ZETA,
         lambda: mukai_pairing(coh.F, coh.real_part(mir.normalized_twistor_period(t, z)))
         - Scalar.one() / t),
    ))
    yield from _sampled(
        cfg,
        {"samples": "the same congruence holds at every grid sample"},
        lambda t0, z0: {"samples": not mir.verify_theorem4(t0, z0)} if z0 else {},
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
    t = Scalar.t()
    shifts = (Scalar.from_value(5), t * 3, Scalar.from_value(-7), t * t + 11)
    recovered = mir.normalize_mod_F(tuple(x + coh.F * s for x, s in zip(quad, shifts)))
    _, w, r, m = recovered
    mu = mukai_pairing

    def moved(classes):
        names = ("B", "omega", "Re sigma", "Im sigma")
        return [name for name, x, y in zip(names, classes, quad) if x != y]

    def violated():
        # each pairing constraint on the output, by its residual pairing
        residuals = {
            "Re^2=Im^2": mu(r, r) - mu(m, m),
            "Im^2=w^2": mu(m, m) - mu(w, w),
            "Re^2=w^2": mu(r, r) - mu(w, w),
            "w.Re=0": mu(w, r),
            "w.Im=0": mu(w, m),
            "Re.Im=0": mu(r, m),
        }
        return [f"{k}: {v}" for k, v in residuals.items() if v]

    return _identities((
        ("fixed-point", "already-normalized classes come back unchanged "
         "(all multipliers zero)", {}, lambda: moved(mir.normalize_mod_F(quad))),
        ("perturbation", "perturbing by known multiples of the fibre class and "
         "re-solving recovers the normalized classes", {"shifts": "5, 3t, -7, t^2+11"},
         lambda: moved(recovered)),
        ("constraints", "the output satisfies all six pairing constraints exactly", {},
         violated),
    ))


@check("limits", "boundary values of the parameter range")
def _check_limits(cfg):
    u1 = fam.direction_X(Scalar.one())
    return _identities((
        ("t-1-direction", "at t = 1 the twistor direction is -2*sigma^-1*C - "
         "4*sigma^-1*F", {"t": 1}, lambda: u1 - HTClass(qC=-2, qF=-4)),
        ("t-1-image", "its Todd-twisted image is -(1/2)*sigma^-1, a holomorphic "
         "Poisson direction", {"t": 1},
         lambda: ht.phi_t(u1) - HTClass(p=Scalar.monomial("-1/2"))),
        ("infinity", "the renormalized large-volume directions correspond: "
         "phi_t(-2*sigma^-1*F) = (1/2)*sigmabar", {"t": "renormalized limit"},
         lambda: ht.phi_t(fam.direction_X_infinity()) - fam.direction_Y_infinity()),
    ))


# -- randomized property suites ---------------------------------------

def _spec(*ranges):
    """The ``(lo, n, n.bit_length())`` of each range ``lo..hi``, ``n = hi - lo + 1``."""
    return tuple((lo, hi - lo + 1, (hi - lo + 1).bit_length()) for lo, hi in ranges)


def _draws(rng, spec):
    """``[rng.randint(lo, hi) for each range of spec]`` from the same bits,
    without its argument checks: ``lo + r`` for ``r`` drawn below ``n`` as
    ``random.Random._randbelow_with_getrandbits`` draws it, with
    ``getrandbits(n.bit_length())`` until the value is below ``n``."""
    bits = rng.getrandbits
    out = []
    for lo, n, k in spec:
        r = n
        while r >= n:
            r = bits(k)
        out.append(lo + r)
    return out


# the suites' draw specs: a Fraction, a Gaussian rational, a Laurent term's exponents
# and coefficient, a two-form, a scalar's term count by its maximum, a matrix shape
_FRACTION = _spec((-6, 6), (1, 6))
_GAUSS = _FRACTION * 2
_TERM = _spec((-2, 2), (-2, 2), (-2, 2)) + _GAUSS
_TWO_FORM = _FRACTION * 6
_TERM_COUNT = tuple(_spec((0, m)) for m in range(4))
_SHAPE = _spec((2, 4), (2, 5))
_NONZERO = _spec((1, 6), (1, 6))


def _rand_fraction(rng):
    return Fraction(*_draws(rng, _FRACTION))


def _rand_gauss(rng):
    # GaussRational(_rand_fraction(rng), _rand_fraction(rng)) from the same draws
    a, p, b, q = _draws(rng, _GAUSS)
    return _reduce(a * q, b * p, p * q)


def _rand_scalar(rng, max_terms=3):
    # Scalar({key: _rand_gauss(rng)}) from the same draws, as reduced triples; a key
    # drawn again takes the later coefficient, and a zero one drops it.
    terms = {}
    count, = _draws(rng, _TERM_COUNT[max_terms])
    for _ in range(count):
        e_t, e_z, e_zb, a, p, b, q = _draws(rng, _TERM)
        if a or b:
            terms[e_t, e_z, e_zb] = _lowest(a * q, b * p, p * q)
        else:
            terms.pop((e_t, e_z, e_zb), None)
    return Scalar._of(terms)


def _rand_coh(rng):
    return CohClass(*(_rand_scalar(rng, 2) for _ in range(6)))


def _rand_matrix(rng, rows, cols):
    return CMatrix([[_rand_gauss(rng) for _ in range(cols)] for _ in range(rows)])


def _rand_two_form(rng):
    # dx_j ^ dx_k for j < k is the basis two-form of mask 2^j + 2^k
    v = iter(_draws(rng, _TWO_FORM))
    return sp.Spinor({(1 << j) | (1 << k): _reduce(next(v), 0, next(v))
                      for j in range(4) for k in range(j + 1, 4)})


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
    ab, bc, a_b, b_c = a * b, b * c, a + b, b + c
    if a_b + c != a + b_c:
        return "addition not associative"
    if ab * c != a * bc:
        return "multiplication not associative"
    if a * b_c != ab + a * c:
        return "not distributive"
    if ab != b * a or a_b != b + a:
        return "not commutative"
    return None


@_suite("conj-involution", "conjugation is an involutive ring automorphism")
def _case_conj(rng):
    a, b = _rand_scalar(rng), _rand_scalar(rng)
    a_conj, b_conj = a.conj(), b.conj()
    if a_conj.conj() != a:
        return "conj not involutive"
    if (a + b).conj() != a_conj + b_conj:
        return "conj not additive"
    if (a * b).conj() != a_conj * b_conj:
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
    m = _rand_matrix(rng, *_draws(rng, _SHAPE))
    ker = kernel(m)
    for v in ker.basis:
        if any(m.apply(list(v))):
            return "kernel vector not annihilated"
    rank = Subspace(list(m.entries), ambient=m.cols).dim
    if rank + ker.dim != m.cols:
        return "rank-nullity violated"
    if ker.dim:
        vectors = [list(v) for v in ker.basis]
        nonzero = Fraction(*_draws(rng, _NONZERO))
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
    gcs.J_COMPLEX,
    gcs.j_symplectic(sp.OMEGA_J),
    gcs.j_symplectic(sp.OMEGA_I),
)
_POOL = _spec((0, len(_BTRANSFORM_POOL) - 1))


@_suite("btransform-group", "randomized B-field transform group action")
def _case_btransform(rng):
    j = _BTRANSFORM_POOL[_draws(rng, _POOL)[0]]
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


def selects(names, record) -> bool:
    """Whether ``names`` selects ``record``: a record's name selects it,
    and so does the name of its check, the part before ``[label]``."""
    return record in names or record.partition("[")[0] in names


def run_checks(cfg: RunConfig) -> list[CheckDescriptor]:
    """Run once each check that ``cfg.names`` mentions, and return the
    records those names select (every record when None), in registry order."""
    cfg.validate()
    names = cfg.names if cfg.names is not None else REGISTRY_NAMES
    return [d for name, _, run in REGISTRY if any(selects((name,), n) for n in names)
            for d in run(cfg) if selects(names, d.name)]
