"""Exact dense linear algebra over Gaussian rationals or Laurent polynomials.

Entries are sampled (``GaussRational``) or symbolic (``Scalar``)
coefficients.  The one Gauss-Jordan elimination, :func:`_rref`, pivots
on the first unit of each column (``is_unit()``): every nonzero
Gaussian rational, but only a nonzero monomial of the Laurent ring, so
:meth:`CMatrix.inverse` and :func:`solve`, which share one solver
:func:`_solve`, stay exact there and raise :class:`NoUniqueSolution`
rather than divide by a non-unit.

The matrices here are mostly zero, so products, :meth:`CMatrix.apply`
and the elimination's row operations skip every term with a zero
factor instead of computing it, :meth:`CMatrix.scale` skips every
zero entry, and sums and differences compute nothing where either
operand is zero.
On Gaussian data the first three run the fused integer kernels of
:mod:`gk3.scalar`, which reduce each output entry once: a product
entry is one reduction, not one per term, and so is an entry of the
elimination's row update ``x - f*y``.  The dot products take a
``start`` value, the entry a sum such as :func:`gk3.gcs.b_transform`'s
shear adds to, which is folded into the same single reduction.
Whether a product or an elimination takes the kernels follows from
its entries: all ``GaussRational``, or any ``Scalar`` (then every term
goes through the coefficient operators).  :func:`_dot_kernel` is the one
chooser of a dot product, once per matrix, for :mod:`gk3.gcs` too.  The
results of the class's own operations, whose entries are already
coefficients, are built by :meth:`CMatrix._of` without coercing them
again; the public constructor coerces int and ``Fraction`` entries.

Subspaces are over the Gaussian field Q(i): :class:`Subspace`,
:func:`kernel` and the functions built on them raise ``TypeError`` on a
Laurent entry, so every nonzero pivot is a unit and each reduction is
the reduced echelon form.  Laurent elimination is :func:`solve` and
:meth:`CMatrix.inverse` only.  Subspaces are stored in reduced row
echelon form, which is canonical: two subspaces are equal exactly when
their stored bases are identical.  A graph ``{(v, A v)}`` has the
canonical basis ``(Id | A^T)``, so :func:`graph_extract` reads ``A`` off
it without eliminating again.  :func:`kernel` reduces the columns in
reverse, which makes its vectors the canonical basis, kept as it is by
:meth:`Subspace._of`; :meth:`Subspace.intersection` solves on this
space's free columns, and :meth:`Subspace.conj`, which keeps every 0
and 1 of the basis, eliminates nothing.
"""

from __future__ import annotations

from .scalar import GR_I, GR_ONE, GR_ZERO, GaussRational, as_coefficient
from .scalar import _gauss_dot, _gauss_sub_scaled


class NotAGraph(ValueError):
    """The subspace does not project isomorphically onto the base block."""


class NoUniqueSolution(ValueError):
    """A linear system is inconsistent, or an unknown gets no unit pivot."""


class CMatrix:
    """Rectangular matrix with ``GaussRational`` or ``Scalar`` entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [[as_coefficient(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("rows have unequal lengths")

    @classmethod
    def _of(cls, entries) -> "CMatrix":
        """The matrix of equal-length rows that already hold coefficients,
        taken as they are; for the results of operations on matrices."""
        m = object.__new__(cls)
        m.entries = entries
        m.rows = len(entries)
        m.cols = len(entries[0]) if entries else 0
        return m

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[GR_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)])

    def __add__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return CMatrix._of(
            [
                [(a + b if a else b) if b else a for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        return self + -other if isinstance(other, CMatrix) else NotImplemented

    def __neg__(self):
        return CMatrix._of([[-x for x in row] for row in self.entries])

    def scale(self, c) -> "CMatrix":
        c = as_coefficient(c)
        return CMatrix._of([[c * x if x else x for x in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, CMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            cols = list(zip(*other.entries))
            dot = _dot_kernel(self.entries, cols)
            return CMatrix._of([[dot(row, col) for col in cols] for row in _sparse_rows(self)])
        return self.scale(other)

    def apply(self, vec):
        """Matrix times coordinate vector (a list of entries)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        vec = [as_coefficient(x) for x in vec]
        dot = _dot_kernel(self.entries, (vec,))
        return [dot(row, vec) for row in _sparse_rows(self)]

    def transpose(self) -> "CMatrix":
        return CMatrix._of([list(col) for col in zip(*self.entries)])

    def submatrix(self, row_range, col_range) -> "CMatrix":
        return CMatrix._of([[self.entries[i][j] for j in col_range] for i in row_range])

    def inverse(self) -> "CMatrix":
        """The inverse: :func:`_solve` against the identity."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        return CMatrix._of(_solve(self.entries, CMatrix.identity(self.rows).entries))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)

    def __repr__(self):
        return f"CMatrix({self.rows}x{self.cols})"


def _is_gauss(rows) -> bool:
    """True when every entry of ``rows`` is a ``GaussRational``."""
    for row in rows:
        for x in row:
            if type(x) is not GaussRational:
                return False
    return True


def _dot_kernel(*blocks):
    """The fused :func:`~gk3.scalar._gauss_dot` when every entry of ``blocks``
    (each an iterable of rows) is a ``GaussRational``, else :func:`_dot`."""
    return _gauss_dot if all(map(_is_gauss, blocks)) else _dot


def _sparse_rows(m):
    """Each row of ``m`` as the ``(column, entry)`` pairs of its nonzero entries."""
    return [[(k, a) for k, a in enumerate(row) if a] for row in m.entries]


def _dot(row, col, start=GR_ZERO):
    """``start + sum(a * col[k])`` over the pairs ``(k, a)`` of a sparse
    row, skipping each term whose ``col[k]`` is zero."""
    out = start
    for k, a in row:
        b = col[k]
        if b:
            out = out + a * b
    return out


def _rref(rows, gauss=None):
    """Reduced row echelon form (in place on a copied list of lists).

    Each column pivots on its first unit entry at or below the current
    row; a column whose remaining nonzero entries are all non-units gets
    no pivot.  ``gauss`` is :func:`_is_gauss` of ``rows`` when the
    caller has it; the reduction keeps it.  Returns ``(rows, pivot_columns)``.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    if gauss is None:
        gauss = _is_gauss(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c].is_unit()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].unit_inverse()
        rows[r] = [x * inv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                if gauss:
                    rows[i] = _gauss_sub_scaled(rows[i], f, rows[r])
                else:
                    rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _gaussian(rows):
    """``rows``, after a ``TypeError`` unless every entry is a ``GaussRational``."""
    if not _is_gauss(rows):
        raise TypeError("subspaces and kernels take Gaussian-rational entries only")
    return rows


def _solve(rows, rhs_rows) -> list:
    """The rows of the unique ``X`` with ``rows * X == rhs_rows``.

    One elimination of the augmented rows ``(rows | rhs_rows)``.  Raises
    :class:`NoUniqueSolution` when some unknown gets no unit pivot (it
    is free, or only a non-unit could determine it) or when the
    equations are inconsistent.
    """
    n = len(rows[0]) if rows else 0
    reduced, pivots = _rref([row + rhs for row, rhs in zip(rows, rhs_rows)])
    missing = [c for c in range(n) if c not in pivots]
    if missing:
        raise NoUniqueSolution(f"unknowns {missing} are not determined")
    if any(any(row[n:]) for row in reduced[n:]):
        raise NoUniqueSolution("the equations are inconsistent")
    return [row[n:] for row in reduced[:n]]


def solve(m: CMatrix, rhs) -> list:
    """The unique ``x`` with ``m.apply(x) == rhs``, by :func:`_solve`."""
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length mismatch")
    return [row[0] for row in _solve(m.entries, [[as_coefficient(b)] for b in rhs])]


class Subspace:
    """Linear subspace over Q(i) with a canonical reduced-echelon basis."""

    __slots__ = ("ambient", "basis")

    def __init__(self, vectors, ambient=None):
        vectors = _gaussian([[as_coefficient(x) for x in v] for v in vectors])
        if ambient is None:
            if not vectors:
                raise ValueError("ambient dimension required for empty basis")
            ambient = len(vectors[0])
        if any(len(v) != ambient for v in vectors):
            raise ValueError("vector length mismatch")
        reduced, pivots = _rref(vectors, True)
        self.ambient = ambient
        self.basis = tuple(tuple(reduced[i]) for i in range(len(pivots)))

    @classmethod
    def _of(cls, basis, ambient) -> "Subspace":
        """The subspace of a canonical basis (tuples of coefficients), as it is."""
        s = object.__new__(cls)
        s.ambient, s.basis = ambient, basis
        return s

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        probe = _gaussian([[as_coefficient(x) for x in vec]])
        _, pivots = _rref(list(self.basis) + probe, True)
        return len(pivots) == self.dim

    def intersection(self, other: "Subspace") -> "Subspace":
        """``sum(c_j * w_j)`` over ``other``'s basis for ``c`` in the kernel of the
        residuals ``w_j - sum(w_j[p_i] * u_i)`` (``u_i`` pivots at ``p_i``) on the free columns."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        n, ws = self.ambient, other.basis
        pivots = [next(k for k, x in enumerate(u) if x) for u in self.basis]
        free = [k for k in range(n) if k not in pivots]
        if not free:
            return other
        reducers = [[(i, -w[p]) for i, p in enumerate(pivots) if w[p]] for w in ws]
        residuals = [[_gauss_dot(r, [u[f] for u in self.basis], w[f])
                      for r, w in zip(reducers, ws)] for f in free]
        combos = kernel(CMatrix._of(residuals)).basis
        return Subspace((CMatrix._of(combos) * CMatrix._of(ws)).entries if combos else [], n)

    def conj(self) -> "Subspace":
        return Subspace._of(tuple(tuple(x.conj() for x in b) for b in self.basis), self.ambient)

    def transformed(self, m: CMatrix) -> "Subspace":
        """Image of the subspace under an injective linear map of Gaussian entries."""
        _gaussian(m.entries)
        rows = _sparse_rows(m)
        return Subspace([[_gauss_dot(row, b) for row in rows] for b in self.basis], ambient=m.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __str__(self):
        if not self.basis:
            return f"Subspace(0 in {self.ambient})"
        rows = "; ".join("(" + ", ".join(str(x) for x in b) + ")" for b in self.basis)
        return f"Subspace[{rows}]"

    __repr__ = __str__


def kernel(m: CMatrix) -> Subspace:
    """Exact null space over Q(i): free column ``f`` of the column-reversed
    reduction gives a canonical basis vector, 1 at ``n-1-f``."""
    n = m.cols
    reduced, pivots = _rref([row[::-1] for row in _gaussian(m.entries)], True)
    basis = []
    for f in reversed(range(n)):
        if f not in pivots:
            v = [GR_ZERO] * n
            v[f] = GR_ONE
            for row, p in zip(reduced, pivots):
                if row[f]:  # only where p < f: a row is zero before its pivot
                    v[p] = -row[f]
            basis.append(tuple(v[::-1]))
    return Subspace._of(tuple(basis), n)


def eigenspace_i(m: CMatrix) -> Subspace:
    """Eigenspace for eigenvalue ``i`` as ``kernel(m - i*Id)``."""
    if m.rows != m.cols:
        raise ValueError("eigenspace of a non-square matrix")
    shifted = [[x - GR_I if j == k else x for k, x in enumerate(row)]
               for j, row in enumerate(m.entries)]
    return kernel(CMatrix._of(shifted))


def graph_extract(space: Subspace, base_dim: int) -> CMatrix:
    """Matrix ``A`` with ``space = {(v, A v)}`` over the leading coordinates.

    The first ``base_dim`` coordinates are the base block.  The
    projection onto them is an isomorphism exactly when the pivots of
    the reduced echelon basis are the base coordinates; then that basis
    is ``(Id | A^T)``, and ``A`` is read off its tail.  Raises
    :class:`NotAGraph` otherwise.
    """
    if space.dim != base_dim:
        raise NotAGraph(
            f"subspace dimension {space.dim} differs from base dimension {base_dim}"
        )
    # the pivot of row i is 1 at column i, or it lies later and row i is 0 there
    if any(space.basis[i][i] != 1 for i in range(base_dim)):
        raise NotAGraph("projection onto the base block is singular")
    return CMatrix._of([list(col) for col in zip(*(b[base_dim:] for b in space.basis))])
