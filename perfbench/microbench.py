"""Per-layer microbenchmarks, each on inputs drawn from the benchmark seed.

Every benchmark repeats one call for about ``BUDGET_S`` seconds and
reports the median time of a call in microseconds.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from workloads import make_config

BUDGET_S = 0.25
MIN_CALLS = 5


def _median_us(call) -> float:
    times = []
    deadline = time.perf_counter() + BUDGET_S
    while len(times) < MIN_CALLS or time.perf_counter() < deadline:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def run_all(seed: int) -> dict:
    """Median microseconds per call of each per-layer microbenchmark."""
    from gk3 import gcs
    from gk3 import spinor as sp
    from gk3.linalg import CMatrix, kernel
    from gk3.scalar import GR_I, GR_ZERO, GaussRational, Scalar

    cfg = make_config("all", seed)
    rng = random.Random(f"perfbench-micro:{seed}")

    def fraction():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    def gauss():
        return GaussRational(fraction(), fraction())

    def laurent():
        terms = {}
        while len(terms) < 3:
            terms[rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)] = gauss()
        return Scalar(terms)

    pairs = [(gauss(), gauss()) for _ in range(200)]

    def muladd():
        acc = GR_ZERO
        for a, b in pairs:
            acc = acc + a * b
        return acc

    x, y = laurent(), laurent()
    t, zeta = cfg["t"][0], GaussRational(*cfg["zeta"][0])
    two_form = sp.Spinor.zero()
    for p in range(4):
        for q in range(p + 1, 4):
            two_form = two_form + sp.Spinor.one_form(p).wedge(sp.Spinor.one_form(q)) * fraction()
    b = gcs.form_map_matrix(two_form)
    shear = CMatrix(
        [[1 if i == j else 0 for j in range(4)] + [0] * 4 for i in range(4)]
        + [list(b.entries[i]) + [1 if i == j else 0 for j in range(4)] for i in range(4)]
    )
    frame = gcs.dolbeault_frame()
    member = gcs.j_zeta(zeta, t).matrix
    shifted = member - CMatrix.identity(8).scale(GR_I)
    rho = sp.family_spinor(zeta, t)
    return {
        "scalar.gauss_muladd_us": _median_us(muladd),
        "scalar.laurent_mul_us": _median_us(lambda: x * y),
        "linalg.matmul8_us": _median_us(lambda: (shear * member, frame * member)) / 2,
        "linalg.kernel_us": _median_us(lambda: kernel(shifted)),
        "spinor.annihilator_us": _median_us(lambda: sp.clifford_annihilator(rho)),
        "gcs.j_zeta_us": _median_us(lambda: gcs.j_zeta(zeta, t)),
    }
