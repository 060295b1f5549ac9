"""Generalized complex structures on the flat local model.

A generalized complex structure is an endomorphism of ``T + T*`` that
squares to minus the identity and is orthogonal for the natural
pairing ``<X + xi, Y + eta> = (xi(Y) + eta(X))/2``.  Complex and
symplectic structures give the two basic examples; the interpolation
family between them is built as exact 8x8 matrices from ring operations
only, so the same code takes sampled parameters (``GaussRational``
``zeta``, rational ``t``) or the symbols ``Scalar.zeta()`` and
``Scalar.t()``; each entry is one dot product of five multipliers with
constants read at import.  :func:`j_zeta` divides :func:`family_matrix` by
``1 + zeta*zetabar``, which needs a sample, folding it into the multipliers.

All two-forms are taken from :mod:`gk3.spinor`, and their map
matrices (:func:`form_map_matrix`) are read mechanically off the form
coefficients so that the two modules cannot drift apart on
conventions.  :func:`b_transform` applies the shear of such a matrix
in one pass over the structure's entries, one fused dot product per
entry it changes, with no block products.  Coordinates on ``T + T*``
are tangent-first: ``(dx1*, dy1*, dx2*, dy2*, dx1, dy1, dx2, dy2)``,
matching the annihilator coordinates in :mod:`gk3.spinor`.

The structure of complex type is one value, :data:`J_COMPLEX`, built at
import and shared by every caller, so no caller may change its
matrix's entries in place.

The deformed eigenspaces are graphs over the undeformed ones in the
Dolbeault frames; :func:`gk3.linalg.graph_extract` reads each graph
off the canonical basis.  The frames' inverses and the blocks of the
closed forms do not depend on ``zeta`` or ``t``: each is one value
built at import, which the closed forms only scale.  The interpolation
one, ``zeta`` times :func:`polyvector_action` of the lattice direction
``v_t``, is composed by the registry: no lattice module is imported here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from . import spinor as sp
from .linalg import CMatrix, _dot_kernel, eigenspace_i, graph_extract, kernel
from .scalar import GR_I, GR_ONE, GR_ZERO, GaussRational, as_coefficient
from .spinor import Spinor


class DegenerateForm(ValueError):
    """A two-form that must be nondegenerate is singular."""


def _form_columns(form: Spinor) -> list:
    """The columns of :func:`form_map_matrix`, column ``j`` as the pairs
    ``(k, form(e_j, e_k))`` of its nonzero entries.  The coefficient ``c``
    of ``dx_j ^ dx_k`` (mask ``2^j + 2^k``, ``j < k``) is ``form(e_j, e_k)``,
    and ``-c`` is ``form(e_k, e_j)``."""
    if not form.is_homogeneous(2):
        raise sp.WrongDegree("expected a homogeneous two-form")
    cols = [[], [], [], []]
    for m, c in form.terms.items():
        j, k = (m & -m).bit_length() - 1, m.bit_length() - 1
        c = as_coefficient(c)
        cols[j].append((k, c))
        cols[k].append((j, -c))
    return cols


def form_map_matrix(form: Spinor) -> CMatrix:
    """Matrix of ``v -> form(v, .)`` from tangent to cotangent coordinates.

    Column ``j`` holds ``form(e_j, e_k)`` in row ``k``.  Raises
    :class:`~gk3.spinor.WrongDegree` unless ``form`` is a two-form.
    """
    cols = [dict(col) for col in _form_columns(form)]
    return CMatrix._of([[col.get(k, GR_ZERO) for col in cols] for k in range(4)])


def _from_columns(cols) -> CMatrix:
    return CMatrix([[col[i] for col in cols] for i in range(len(cols[0]))])


def _block_matrix(a, p, q, d) -> CMatrix:
    n = a.rows
    out = []
    for i in range(n):
        out.append(list(a.entries[i]) + list(p.entries[i]))
    for i in range(n):
        out.append(list(q.entries[i]) + list(d.entries[i]))
    return CMatrix._of(out)


# Complex structure of the model: I dx_k* = dy_k*, I dy_k* = -dx_k*.
I_MATRIX = CMatrix(
    [
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ]
)

_ZERO2, _ZERO4 = CMatrix.zeros(2, 2), CMatrix.zeros(4, 4)

#: Gram matrix of twice the natural pairing; orthogonality statements
#: are invariant under this rescaling.
PAIRING = _block_matrix(_ZERO4, CMatrix.identity(4), CMatrix.identity(4), _ZERO4)

_MINUS_IDENTITY8 = CMatrix.identity(8).scale(-1)


class GCStructure:
    """An endomorphism of ``(T + T*) (x) C`` at a point of the model."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: CMatrix):
        if (matrix.rows, matrix.cols) != (8, 8):
            raise ValueError("expected an 8x8 matrix")
        self.matrix = matrix

    def squares_to_minus_identity(self) -> bool:
        return self.matrix * self.matrix == _MINUS_IDENTITY8

    def is_orthogonal(self) -> bool:
        rows = self.matrix.entries  # PAIRING * M swaps the row blocks of M
        return self.matrix.transpose() * CMatrix._of(rows[4:] + rows[:4]) == PAIRING

    def __eq__(self, other):
        if not isinstance(other, GCStructure):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"GCStructure({self.matrix!r})"


#: Structure of complex type: blocks ``(-I, 0; 0, I*)``.
J_COMPLEX = GCStructure(_block_matrix(-I_MATRIX, _ZERO4, _ZERO4, I_MATRIX.transpose()))


#: ``J_COMPLEX`` and ``(0, omega^-1; 0, 0)``, ``(0, 0; omega, 0)`` for ``omega_j``, ``omega_k``.
_FAMILY_PIECES = (J_COMPLEX.matrix,) + tuple(
    _block_matrix(_ZERO4, *blocks, _ZERO4)
    for omega in (form_map_matrix(sp.OMEGA_J), form_map_matrix(sp.OMEGA_K))
    for blocks in ((omega.inverse(), _ZERO4), (_ZERO4, omega))
)
#: Each entry of :func:`family_matrix` as ``(piece, constant)`` pairs, one per nonzero term.
_FAMILY_TERMS = tuple(
    tuple(tuple((k, x) for k, p in enumerate(_FAMILY_PIECES) if (x := p.entries[i][j]))
          for j in range(8))
    for i in range(8)
)


def j_symplectic(omega: Spinor) -> GCStructure:
    """Structure of symplectic type: blocks ``(0, -omega^-1; omega, 0)``."""
    m = form_map_matrix(omega)
    try:
        m_inv = m.inverse()
    except ValueError as exc:
        raise DegenerateForm("symplectic form is degenerate") from exc
    return GCStructure(_block_matrix(_ZERO4, -m_inv, m, _ZERO4))


def b_transform(j: GCStructure, b: Spinor) -> GCStructure:
    """Conjugate by the shear of a two-form: ``(1,0;-B,1) j (1,0;B,1)``.

    One pass over the entries of ``j``, with the columns of ``B =
    form_map_matrix(b)`` read off ``b`` (:func:`_form_columns`).  The
    right shear ``X = j (1,0;B,1)`` changes only columns 0-3: ``X[i][c] =
    j[i][c] + sum_k B[k][c] j[i][4+k]``.  The left shear
    changes only rows 4-7: ``out[4+i][c] = X[4+i][c] + sum_k B[k][i]
    X[k][c]``, since ``-B[i][k] = B[k][i]``.  Each changed entry is one
    dot product over a column of ``B`` that starts at the old entry and
    is reduced once; a sum over a zero column of ``B``, or over a zero
    row of ``j[:, 4:]``, is skipped and its entry kept.  The dot kernel
    is chosen by :func:`~gk3.linalg._dot_kernel`, so ``Scalar`` forms
    and structures take the same pass.
    """
    cols = _form_columns(b)
    rows = j.matrix.entries
    dot = _dot_kernel(rows, ((x for col in cols for _, x in col),))
    out = []
    for row in rows:
        tail = row[4:]
        if any(tail):
            row = [dot(col, tail, x) if col else x for col, x in zip(cols, row)] + tail
        out.append(row)
    top = list(zip(*out[:4]))
    for i, col in enumerate(cols):
        if col:
            out[4 + i] = [dot(col, x_col, x) for x_col, x in zip(top, out[4 + i])]
    return GCStructure(CMatrix._of(out))


def family_matrix(zeta, t, scale=GR_ONE) -> CMatrix:
    """The interpolation family at ``zeta``, forms scaled by ``t``, times ``n``.

    ``M = (1 - zeta*zetabar) J_complex + i(zeta - zetabar) J_{t*omega_j}
    + (zeta + zetabar) J_{t*omega_k}`` with ``zetabar = zeta.conj()``, so
    that ``M = n * j_zeta(zeta, t)`` for ``n = 1 + zeta*zetabar``.  Only
    ring operations are used: the parameters may be samples
    (``GaussRational`` ``zeta``, rational ``t``) or the symbols
    ``Scalar.zeta()`` and ``Scalar.t()``.  The result is times ``scale``,
    which multiplies the five multipliers of the entries, not the entries.
    """
    zetabar = zeta.conj()
    factors = [1 - zeta * zetabar]
    for c in (GR_I * (zeta - zetabar), zeta + zetabar):
        if c and not t:
            raise DegenerateForm("symplectic form is degenerate")
        # c*j_symplectic(t*omega) has blocks (0, -(c/t)*omega^-1; c*t*omega, 0)
        factors += [-c / t, c * t] if c else [GR_ZERO, GR_ZERO]
    factors = [x * scale if x else x for x in factors]
    dot = _dot_kernel((factors,))
    return CMatrix._of([[dot(terms, factors) for terms in row] for row in _FAMILY_TERMS])


def j_zeta(zeta, t) -> GCStructure:
    """Member of the interpolation family at ``zeta``, forms scaled by ``t``.

    :func:`family_matrix` divided by ``1 + |zeta|^2``: the convex
    combination ``cI*J_complex + cJ*J_{t*omega_j} + cK*J_{t*omega_k}``
    with the stereographic coefficients ``cI = (1-|z|^2)/(1+|z|^2)``,
    ``cJ = -2 Im z/(1+|z|^2)``, ``cK = 2 Re z/(1+|z|^2)``.
    """
    return GCStructure(family_matrix(zeta, t, (1 + zeta * zeta.conj()).unit_inverse()))


# -- Dolbeault frames ------------------------------------------------

# The frames below are built once and shared by every caller, and the
# inverses and closed-form blocks after them are values built from them
# at import; no caller may change a matrix's entries in place.

@cache
def tangent_frame() -> CMatrix:
    """Columns ``(dz1bar*, dz2bar*, dz1*, dz2*)`` in real tangent coordinates."""
    h, hi = GaussRational(Fraction(1, 2)), GaussRational(0, Fraction(1, 2))
    return _from_columns(
        [
            [h, hi, GR_ZERO, GR_ZERO],
            [GR_ZERO, GR_ZERO, h, hi],
            [h, -hi, GR_ZERO, GR_ZERO],
            [GR_ZERO, GR_ZERO, h, -hi],
        ]
    )


@cache
def covector_frame() -> CMatrix:
    """Columns ``(dz1, dz2, dz1bar, dz2bar)`` in real cotangent coordinates."""
    one, i = GaussRational(1), GaussRational(0, 1)
    return _from_columns(
        [
            [one, i, GR_ZERO, GR_ZERO],
            [GR_ZERO, GR_ZERO, one, i],
            [one, -i, GR_ZERO, GR_ZERO],
            [GR_ZERO, GR_ZERO, one, -i],
        ]
    )


@cache
def dolbeault_frame() -> CMatrix:
    """Frame adapted to the graph decomposition of deformed eigenspaces.

    Column order: base block ``(dz1bar*, dz2bar*, dz1, dz2)`` then
    fiber block ``(dz1bar, dz2bar, dz1*, dz2*)``, all expressed in the
    real tangent-first coordinates: the columns of :func:`tangent_frame`
    fill the tangent rows, those of :func:`covector_frame` the cotangent
    rows.
    """
    zero = [GR_ZERO] * 4
    return CMatrix._of([row[:2] + zero + row[2:] for row in tangent_frame().entries]
                       + [zero[:2] + row + zero[:2] for row in covector_frame().entries])


_TANGENT_FRAME_INVERSE = tangent_frame().inverse()
_COVECTOR_FRAME_INVERSE = covector_frame().inverse()
_DOLBEAULT_FRAME_INVERSE = dolbeault_frame().inverse()


def _frame_block(form: Spinor, src, dst, message) -> CMatrix:
    """``w -> form(w, .)`` on the tangent frame columns ``src``, in rows ``dst``.

    The block of ``covector_frame()^-1 * form_map_matrix(form) *
    tangent_frame()[:, src]``, rows in ``(dz1, dz2, dz1bar, dz2bar)``;
    raises :class:`DegenerateForm` when an image leaves the rows ``dst``.
    """
    columns = tangent_frame().submatrix(range(4), src)
    image = _COVECTOR_FRAME_INVERSE * (form_map_matrix(form) * columns)
    if any(image.entries[i][j] for i in range(4) if i not in dst for j in range(len(src))):
        raise DegenerateForm(message)
    return image.submatrix(dst, range(len(src)))


#: Inverse of ``w -> sigma(w, .)`` from ``T^{1,0}`` to ``(dz1, dz2)``.
_SIGMA_BLOCK_INVERSE = _frame_block(
    sp.SIGMA, (2, 3), (0, 1), "sigma is not of type (2,0)"
).inverse()

#: ``sigma^-1(omega_i(w, .))`` on the tangent columns ``dz1bar*, dz2bar*``,
#: whose image under ``omega_i`` lies in the (1,0)-forms.
_TWISTOR_BLOCK = _SIGMA_BLOCK_INVERSE * _frame_block(
    sp.OMEGA_I, (0, 1), (0, 1),
    "omega_i image of an antiholomorphic vector should be a (1,0)-form",
)

#: ``sigmabar(w, .)`` on the tangent columns ``dz1bar*, dz2bar*``, in the
#: (0,1)-forms ``(dz1bar, dz2bar)``.
_SIGMABAR_BLOCK = _frame_block(
    sp.SIGMABAR, (0, 1), (2, 3),
    "sigmabar image of an antiholomorphic vector should be a (0,1)-form",
)


def twistor_pointwise_graph(zeta) -> CMatrix:
    """Graph of the deformed antiholomorphic tangent space, twistor side.

    The kernel of ``sigma + 2*zeta*omega_i - zeta^2*sigmabar`` on the
    complexified tangent space is two-dimensional; expressed over the
    base ``(dz1bar*, dz2bar*)`` it is the graph of a map to
    ``(dz1*, dz2*)``, returned as a 2x2 matrix.  Raises
    :class:`~gk3.linalg.NotAGraph` when it is not such a graph.
    """
    form = sp.SIGMA + sp.OMEGA_I * (2 * zeta) - sp.SIGMABAR * (zeta * zeta)
    ker = kernel(form_map_matrix(form))
    return graph_extract(ker.transformed(_TANGENT_FRAME_INVERSE), 2)


def twistor_direction_matrix(zeta) -> CMatrix:
    """Closed form of the same graph: ``-2*zeta*sigma^-1(omega_i(., .))``.

    Built mechanically from the form data: contract a base vector into
    ``omega_i``, then invert the bundle map induced by ``sigma``.
    """
    return _TWISTOR_BLOCK.scale(-2 * zeta)


def deformation_graph_Y(zeta, t) -> CMatrix:
    """Graph of the +i eigenspace of the interpolation family member.

    The eigenspace is expressed over the base
    ``(dz1bar*, dz2bar*, dz1, dz2)`` of the undeformed +i eigenspace;
    the returned 4x4 matrix maps it into ``(dz1bar, dz2bar, dz1*,
    dz2*)``.  Raises :class:`~gk3.linalg.NotAGraph` outside the graph chart.
    """
    return eigenspace_graph(eigenspace_i(j_zeta(zeta, t).matrix))


def eigenspace_graph(space) -> CMatrix:
    """The graph that :func:`deformation_graph_Y` extracts, from the +i
    eigenspace ``space`` of a family member."""
    return graph_extract(space.transformed(_DOLBEAULT_FRAME_INVERSE), 4)


def polyvector_action(x) -> CMatrix:
    """The action of an :class:`~gk3.harmonic.HTClass` on the graph base.

    With the polyvector normalization of :mod:`gk3.harmonic`, a base
    vector ``Z`` in the antiholomorphic tangent block maps to
    ``x.r * sigmabar(Z, .)``, and a base one-form ``xi`` in the
    holomorphic cotangent block to ``x.p * sigma^-1(xi)``, where the
    bivector ``sigma^-1`` acts on one-forms as four times the inverse of
    the bundle map ``w -> sigma(w, .)`` (the normalization that makes
    its contraction with ``sigma`` equal 4).  Raises ``ValueError`` for
    a class with a ``sigma^-1*C`` or ``sigma^-1*F`` component.
    """
    if x.qC or x.qF:
        raise ValueError("only sigma^-1 and sigmabar act on the flat model")
    return _block_matrix(_SIGMABAR_BLOCK.scale(x.r), _ZERO2, _ZERO2,
                         _SIGMA_BLOCK_INVERSE.scale(x.p * 4))
