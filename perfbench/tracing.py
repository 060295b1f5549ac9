"""Per-layer tracing of one ``gk3 verify`` call, installed from outside.

The tracer wraps the package's public functions and methods and
patches every place a name is bound: ``checks``, ``spinor``, ``gcs``
and ``cli`` import from ``linalg`` with ``from .linalg import ...``, so
a wrapper set only on ``gk3.linalg`` would miss their calls, and the
registry's table checks keep their transform in a closure.

Layer boundaries become spans ``[name, start, end, parent]`` kept in
memory; a layer's self time is its spans' duration minus the part their
child spans cover.  A call into a layer from inside the same layer (the
``kernel`` that ``eigenspace_i`` runs, say) belongs to the outer span.
Coefficient operations are too numerous for spans: they get counts and
accumulated time only.  ``scalar.gauss`` counts every outermost
Gaussian-rational operation, wherever it is called from, and its time;
``scalar.laurent`` counts outermost Laurent-polynomial operations and
their time without the Gaussian operations inside them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

perf = time.perf_counter

GAUSS_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse", "conj",
    "norm_sq",
)
LAURENT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "unit_inverse",
    "conj", "eval", "zeta_coefficient",
)

# layer -> (module, dotted names) of the functions and methods it spans
SPAN_LAYERS = {
    "linalg.elim": ("linalg", ("kernel", "eigenspace_i", "Subspace.__init__",
                               "Subspace.contains", "Subspace.intersection",
                               "CMatrix.inverse")),
    "spinor.wedge": ("spinor", ("Spinor.wedge",)),
    "spinor.annihilator": ("spinor", ("clifford_annihilator",)),
    "gcs.j_zeta": ("gcs", ("j_zeta",)),
    "gcs.b_transform": ("gcs", ("b_transform",)),
    "gcs.graph": ("gcs", ("deformation_graph_Y", "twistor_pointwise_graph")),
    "cohomology.wedge": ("cohomology", ("wedge", "CohClass.wedge")),
    "cohomology.mukai": ("cohomology", ("mukai_pairing",)),
    "harmonic.transform": ("harmonic", ("phi_homega", "phi_ht", "phi_t",
                                        "contract_sigma", "contract_sigma_inv",
                                        "todd_contract")),
    "families.direction": ("families", ("direction_X", "direction_Y",
                                        "direction_X_infinity", "direction_Y_infinity",
                                        "direction_from_spinor_family",
                                        "bfield_correction",
                                        "bfield_correction_untwisted")),
    "mirror.theorem4": ("mirror", ("verify_theorem4",)),
    "mirror.normalize": ("mirror", ("normalize_mod_F",)),
    "cli.render": ("cli", ("_render",)),
    "parser.parse": ("parser", ("parse_scalar_expr", "parse_class_expr")),
}

# counter -> (module, dotted names) whose every call it counts
CALL_COUNTERS = {
    "linalg.inverse_calls": ("linalg", ("CMatrix.inverse",)),
    "gcs.frame_calls": ("gcs", ("tangent_frame", "covector_frame", "dolbeault_frame")),
}


class Tracer:
    """Wraps the package while installed; ``summary()`` reports the layers."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self.stack = []  # indices of the open spans
        self.counts = defaultdict(int)
        self.gauss = [False, 0, 0.0]  # [inside an op, ops, seconds]
        self.laurent = [False, 0, 0.0]
        self.patches = []  # (owner, attribute, original)
        self.missing = []

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, module_name, dotted, make):
        """Replace ``module.dotted`` by ``make(original)`` at every binding site."""
        module = sys.modules.get(f"gk3.{module_name}")
        owner_name, _, attr = dotted.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{dotted}")
            return
        wrapped = make(original)
        if owner_name:  # a method: the class is its only binding site
            self._set(owner, attr, wrapped)
            return
        for name, mod in list(sys.modules.items()):
            if name == "gk3" or name.startswith("gk3."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        # the table checks hold their transform in a closure cell
        for _, _, runner in sys.modules["gk3.checks"].REGISTRY:
            for cell in runner.__closure__ or ():
                if cell.cell_contents is original:
                    self._set(cell, "cell_contents", wrapped)

    def install(self):
        import gk3.checks
        import gk3.cli  # imports every module the layers name

        for layer, (module, names) in SPAN_LAYERS.items():
            for dotted in names:
                self._wrap(module, dotted, lambda fn, layer=layer: self._span(layer, fn))
        for counter, (module, names) in CALL_COUNTERS.items():
            for dotted in names:
                self._wrap(module, dotted, lambda fn, c=counter: self._count(c, fn))
        self._wrap("linalg", "CMatrix.__mul__", self._matmul)
        for op in GAUSS_OPS:
            self._wrap("scalar", f"GaussRational.{op}", self._gauss_op)
        for op in LAURENT_OPS:
            self._wrap("scalar", f"Scalar.{op}", self._laurent_op)
        registry = tuple(
            (name, statement, self._span(f"checks.{name}", runner))
            for name, statement, runner in gk3.checks.REGISTRY
        )
        self._set(gk3.checks, "REGISTRY", registry)

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------

    def _span(self, layer, fn):
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()

        return wrapped

    def _count(self, counter, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _matmul(self, fn):
        from gk3.linalg import CMatrix

        counts = self.counts
        product = self._span("linalg.matmul", fn)

        def wrapped(a, b):
            if not isinstance(b, CMatrix) or a.cols != b.rows:
                return fn(a, b)  # scaling, or a shape error
            # scalar products a[i][k]*b[k][j]; useful when both are nonzero
            col_nonzero = [sum(1 for row in a.entries if row[k]) for k in range(a.cols)]
            row_nonzero = [sum(1 for x in row if x) for row in b.entries]
            counts["linalg.matmul_products"] += a.rows * a.cols * b.cols
            counts["linalg.matmul_useful"] += sum(
                c * r for c, r in zip(col_nonzero, row_nonzero)
            )
            return product(a, b)

        return wrapped

    def _gauss_op(self, fn):
        state = self.gauss

        def wrapped(*args):
            if state[0]:
                return fn(*args)
            state[0] = True
            start = perf()
            try:
                return fn(*args)
            finally:
                state[2] += perf() - start
                state[1] += 1
                state[0] = False

        return wrapped

    def _laurent_op(self, fn):
        state, gauss = self.laurent, self.gauss

        def wrapped(*args, **kwargs):
            if state[0]:
                return fn(*args, **kwargs)
            state[0] = True
            gauss_before = gauss[2]
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                state[2] += perf() - start - (gauss[2] - gauss_before)
                state[1] += 1
                state[0] = False

        return wrapped

    # -- report --------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls, self and total seconds, and the counters."""
        child_s = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        layers = {}
        for (layer, start, end, _), covered in zip(self.spans, child_s):
            entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - covered
            entry["total_s"] += end - start
        counts = dict(self.counts)
        counts["scalar.gauss_ops"] = self.gauss[1]
        counts["scalar.laurent_ops"] = self.laurent[1]
        return {
            "layers": layers,
            "counts": counts,
            "seconds": {"scalar.gauss_s": self.gauss[2], "scalar.laurent_s": self.laurent[2]},
            "missing": self.missing,
        }
