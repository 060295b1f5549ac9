
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gk3.linalg import (
    CMatrix,
    _dot,
    _rref,
    NotAGraph,
    NoUniqueSolution,
    Subspace,
    eigenspace_i,
    graph_extract,
    kernel,
    solve,
)
from gk3.gcs import twistor_pointwise_graph
from gk3.scalar import GR_ONE, GR_ZERO, GaussRational, Scalar, _gauss_dot
from gk3.spinor import clifford_annihilator, family_spinor
from strategies import fractions as fraction_strategy

T = Scalar.t()
Z = Scalar.zeta()


def test_kernel_trivial_cases():
    assert kernel(CMatrix.identity(4)).dim == 0
    assert kernel(CMatrix.zeros(4, 4)).dim == 4


def test_kernel_vectors_are_annihilated():
    m = CMatrix([[1, 2, 3], [2, 4, 6]])
    ker = kernel(m)
    assert ker.dim == 2
    for v in ker.basis:
        assert not any(m.apply(list(v)))


def test_eigenspace_i():
    # rotation by 90 degrees has eigenvalues +-i
    rot = CMatrix([[0, -1], [1, 0]])
    space = eigenspace_i(rot)
    assert space.dim == 1
    v = list(space.basis[0])
    assert rot.apply(v) == [GaussRational(0, 1) * x for x in v]
    conj_space = eigenspace_i(rot.scale(-1))
    assert conj_space == space.conj()
    assert space.intersection(conj_space).dim == 0


def test_subspace_canonical_form_is_intrinsic():
    s1 = Subspace([[1, 0, 2], [0, 1, 3]])
    s2 = Subspace([[1, 1, 5], [2, 1, 7]])  # same row space, different basis
    assert s1 == s2
    assert s1.basis == s2.basis


def test_subspace_contains():
    s = Subspace([[1, 0, 1], [0, 1, 1]])
    assert s.contains([1, 1, 2])
    assert not s.contains([1, 1, 3])


def test_graph_extract_zero_graph():
    base = Subspace([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert graph_extract(base, 2) == CMatrix.zeros(2, 2)


def test_graph_extract_roundtrip():
    a = CMatrix([[1, 2], [3, GaussRational(0, 1)]])
    vectors = []
    for j in range(2):
        v = [GaussRational(1 if k == j else 0) for k in range(2)]
        vectors.append(v + a.apply(v))
    assert graph_extract(Subspace(vectors), 2) == a


def test_graph_extract_vertical_fails():
    vertical = Subspace([[0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotAGraph):
        graph_extract(vertical, 2)
    with pytest.raises(NotAGraph):
        graph_extract(Subspace([[1, 0, 0, 0]]), 2)
    # the right dimension, but the second pivot lies outside the base block
    with pytest.raises(NotAGraph):
        graph_extract(Subspace([[1, 0, 0, 0], [0, 0, 1, 0]]), 2)


def test_matrix_inverse():
    m = CMatrix([[1, 2], [3, 4]])
    assert m * m.inverse() == CMatrix.identity(2)
    with pytest.raises(NoUniqueSolution):
        CMatrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(NoUniqueSolution):
        CMatrix([[1 + T, 0], [0, 1]]).inverse()  # 1 + t is no unit


def test_laurent_matrix_inverse():
    m = CMatrix([[T, 1], [0, Z]])
    inv = m.inverse()
    assert inv == CMatrix([[1 / T, -1 / (T * Z)], [0, 1 / Z]])
    assert m * inv == CMatrix.identity(2) == inv * m


def test_solve_with_monomial_pivots():
    # the only unit in column 0 is in the second row
    m = CMatrix([[1 + T, 1], [T, 0], [0, Z]])
    x = [Scalar.from_value(3), T * Z]
    assert solve(m, m.apply(x)) == x


def test_solve_raises_without_unique_unit_solution():
    with pytest.raises(NoUniqueSolution, match="not determined"):
        solve(CMatrix([[1 + T, 0], [0, 1]]), [1 + T, 1])
    with pytest.raises(NoUniqueSolution, match="not determined"):
        solve(CMatrix([[1, 1], [2, 2]]), [1, 2])
    with pytest.raises(NoUniqueSolution, match="inconsistent"):
        solve(CMatrix([[T], [Z]]), [T, 1 + 2 * Z])  # residual 1 + zeta, a non-unit
    with pytest.raises(NoUniqueSolution, match="inconsistent"):
        solve(CMatrix([[1, 0], [0, 1], [1, 1]]), [1, 1, 3])


def test_subspace_paths_refuse_laurent_entries():
    # subspaces are over Q(i); each entry point refuses a Laurent entry
    # before it eliminates, whether or not a unit pivot would serve
    refused = {
        "Subspace": lambda: Subspace([[1, T]]),
        "Subspace.contains": lambda: Subspace([[1, 0]]).contains([0, T]),
        "Subspace.transformed": lambda: Subspace([[1, 0]]).transformed(CMatrix([[T, 0], [0, 1]])),
        "kernel": lambda: kernel(CMatrix([[1, T]])),
        "eigenspace_i": lambda: eigenspace_i(CMatrix([[1, 0], [0, Z]])),
        "clifford_annihilator": lambda: clifford_annihilator(family_spinor(Z, T)),
        "twistor_pointwise_graph": lambda: twistor_pointwise_graph(Z),
    }
    for name, call in refused.items():
        with pytest.raises(TypeError, match="Gaussian-rational entries only"):
            call()
            pytest.fail(f"{name} took a Laurent entry")
    # Laurent elimination stays in solve and the inverse
    m = CMatrix([[T, 1], [0, Z]])
    assert m * m.inverse() == CMatrix.identity(2)
    assert solve(m, m.apply([T, 1 + Z])) == [T, 1 + Z]


fractions = fraction_strategy(-5, 5, max_denominator=5)
entries = st.builds(GaussRational, fractions, fractions)


@given(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=2, max_size=4))
def test_rank_nullity(rows):
    m = CMatrix(rows)
    rank = Subspace(rows, ambient=4).dim
    assert rank + kernel(m).dim == 4


@given(st.lists(st.lists(entries, min_size=2, max_size=2), min_size=2, max_size=2))
def test_graph_roundtrip_random(rows):
    a = CMatrix(rows)
    vectors = []
    for j in range(2):
        v = [GaussRational(1 if k == j else 0) for k in range(2)]
        vectors.append(v + a.apply(v))
    assert graph_extract(Subspace(vectors), 2) == a


@given(
    st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(entries, min_size=3, max_size=3),
)
def test_solve_agrees_with_inverse(rows, rhs):
    m = CMatrix(rows)
    try:
        inv = m.inverse()
    except ValueError:
        with pytest.raises(NoUniqueSolution):
            solve(m, rhs)
        return
    assert solve(m, rhs) == inv.apply(rhs)


def _reference_product(a, b):
    # plain triple loop over every pair of factors, zero or not
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), GaussRational(0))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _sparse_matrices(entry):
    """Pairs of conformable matrices, mostly zero, with a zero row in the
    left factor and a zero column in the right one."""
    sparse = st.one_of(st.just(0), st.just(0), entry)
    size = st.integers(min_value=1, max_value=4)

    @st.composite
    def pair(draw):
        n, k, m = draw(size), draw(size), draw(size)
        left = [[draw(sparse) for _ in range(k)] for _ in range(n)]
        right = [[draw(sparse) for _ in range(m)] for _ in range(k)]
        return [[0] * k] + left, [row + [0] for row in right]

    return pair()


laurent = st.dictionaries(
    st.tuples(*(st.integers(min_value=-1, max_value=1),) * 3), entries, max_size=2
).map(Scalar)


@given(st.one_of(_sparse_matrices(entries), _sparse_matrices(laurent),
                 _sparse_matrices(st.one_of(entries, laurent))))
@example(([[0, GaussRational(1, 2), 1 + T]],
          [[GaussRational(0, 3), 1 + Z, 0], [0, 0, 0], [T, 0, 0]]))
def test_product_and_apply_match_triple_loop(pair):
    left, right = pair
    a, b = CMatrix(left), CMatrix(right)
    expected = _reference_product(a.entries, b.entries)
    assert (a * b).entries == expected
    for j in range(b.cols):
        column = [row[j] for row in b.entries]
        assert a.apply(column) == [row[j] for row in expected]
    # scaling by zero, Gaussian and Laurent factors, skipping zero entries
    for c in b.entries[0]:
        assert a.scale(c).entries == [[c * x for x in row] for row in a.entries]


def test_operation_results_hold_only_coefficients():
    product = CMatrix([[1, 2]]) * CMatrix([[3], [4]])
    difference = CMatrix([[1]]) - CMatrix([[2]])
    assert product == CMatrix([[11]]) and difference == CMatrix([[-1]])
    for m in (product, difference):
        assert all(type(x) is GaussRational for row in m.entries for x in row)


class _Pair:
    """Reference Gaussian rational: a ``(Fraction, Fraction)`` pair with
    schoolbook arithmetic and no reduction of its own."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=Fraction(0)):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return _Pair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _Pair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _Pair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __bool__(self):
        return bool(self.re or self.im)

    is_unit = __bool__

    def unit_inverse(self):
        n = self.re * self.re + self.im * self.im
        return _Pair(self.re / n, -self.im / n)

    def __eq__(self, o):
        return (self.re, self.im) == (o.re, o.im)


def _pairs(rows):
    return [[_Pair(x.re, x.im) for x in row] for row in rows]


def _reference_rref(rows):
    """Textbook Gauss-Jordan with every operation carried out: the first
    unit of each column is its pivot."""
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c].is_unit()), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].unit_inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _assert_canonical(x):
    if isinstance(x, Scalar):
        for a, b, d in x.terms.values():  # reduced nonzero triples
            assert d > 0 and math.gcd(a, b, d) == 1 and (a, b) != (0, 0)
        return
    assert type(x) is GaussRational
    assert x._d > 0 and math.gcd(x._a, x._b, x._d) == 1


_shared_denominators = st.sampled_from([None, 1, 2, 6])
_denominators = st.integers(min_value=1, max_value=6)
_numerators = st.integers(min_value=-4, max_value=4)
_one_in = {n: st.integers(min_value=1, max_value=n).map(lambda k: k == 1) for n in (3, 4)}
_small_laurent = st.dictionaries(
    st.tuples(*(st.integers(min_value=-1, max_value=1),) * 3),
    st.builds(lambda a, b, d: GaussRational(Fraction(a, d), Fraction(b, d)),
              _numerators, _numerators, _denominators),
    max_size=2,
).map(Scalar)


def _gauss_rows(draw, rows, cols, mixed=False):
    """A ``rows x cols`` matrix of Gaussian rationals over one shared
    denominator or over one denominator per entry, mostly zero, with a
    zero row and a zero column more often than not.  With ``mixed``, its
    first entry and some others are Laurent polynomials.

    Called with the ``draw`` of a composite strategy, so that a drawn
    shape builds no strategy per example."""
    shared = draw(_shared_denominators)

    def entry():
        if draw(_one_in[3]):
            return GaussRational(0)
        d = shared or draw(_denominators)
        return GaussRational(Fraction(draw(_numerators), d), Fraction(draw(_numerators), d))

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    zero_row = draw(st.integers(min_value=-1, max_value=rows - 1))
    zero_col = draw(st.integers(min_value=-1, max_value=cols - 1))
    for i in range(rows):
        for j in range(cols):
            if i == zero_row or j == zero_col:
                m[i][j] = GaussRational(0)
    if mixed:
        m[0][0] = draw(_small_laurent)
        for i in range(rows):
            for j in range(cols):
                if draw(_one_in[4]):
                    m[i][j] = draw(_small_laurent)
    return m


_sizes = st.integers(min_value=1, max_value=4)
_booleans = st.booleans()


@st.composite
def _product_operands(draw):
    n = draw(_sizes)
    return _gauss_rows(draw, n, 4), _gauss_rows(draw, 4, 3), _gauss_rows(draw, 1, 4)[0]


@given(_product_operands())
def test_gauss_kernels_match_fraction_reference(args):
    left, right, vec = args
    a, b = CMatrix(left), CMatrix(right)
    expected = [[sum((x * y for x, y in zip(row, col)), _Pair(0)) for col in zip(*_pairs(right))]
                for row in _pairs(left)]
    product = a * b
    assert _pairs(product.entries) == expected
    image = a.apply(vec)
    (vec_pairs,) = _pairs([vec])
    assert _pairs([image]) == [[sum((x * v for x, v in zip(row, vec_pairs)), _Pair(0))
                                for row in _pairs(left)]]
    reduced, pivots = _rref(left)
    assert (_pairs(reduced), pivots) == _reference_rref(_pairs(left))
    for x in [*image, *(x for row in product.entries + reduced for x in row)]:
        _assert_canonical(x)


@st.composite
def _square_systems(draw):
    n = draw(_sizes)
    return _gauss_rows(draw, n, n), _gauss_rows(draw, 1, n)


@given(_square_systems())
def test_inverse_and_solve_match_fraction_reference(args):
    rows, (rhs,) = args
    m, n = CMatrix(rows), len(rows)
    identity = [[_Pair(int(i == j)) for j in range(n)] for i in range(n)]
    reduced, pivots = _reference_rref([r + e for r, e in zip(_pairs(rows), identity)])
    if pivots != list(range(n)):
        with pytest.raises(ValueError):
            m.inverse()
        with pytest.raises(NoUniqueSolution):
            solve(m, rhs)
        return
    inverse = m.inverse()
    assert _pairs(inverse.entries) == [row[n:] for row in reduced]
    x = solve(m, rhs)
    expected, _ = _reference_rref([r + [_Pair(b.re, b.im)] for r, b in zip(_pairs(rows), rhs)])
    assert _pairs([x]) == [[row[n] for row in expected]]
    for v in [*x, *(v for row in inverse.entries for v in row)]:
        _assert_canonical(v)


@st.composite
def _same_shape_pairs(draw):
    shape = draw(_sizes), draw(_sizes), draw(_booleans)
    return _gauss_rows(draw, *shape), _gauss_rows(draw, *shape)


@given(_same_shape_pairs())
def test_sums_and_differences_match_entrywise(args):
    # zero, Gaussian and Laurent entries, the zero operands skipped
    left, right = args
    a, b = CMatrix(left), CMatrix(right)
    pairs = [list(zip(r, s)) for r, s in zip(left, right)]
    assert (a + b).entries == [[x + y for x, y in row] for row in pairs]
    assert (a - b).entries == [[x - y for x, y in row] for row in pairs]


def test_sums_and_differences_with_zero_left_entries():
    g, s = GaussRational(Fraction(1, 2), -3), 1 + T * GaussRational(0, Fraction(2, 3))
    for b in (g, s):
        zero, right = CMatrix([[0, 0]]), CMatrix([[b, 0]])
        total, difference = (zero + right).entries[0], (zero - right).entries[0]
        assert total[0] is b and difference[0] == -b  # 0 + b and 0 - b compute nothing
        assert (right + zero).entries[0] == [b, 0] and (right - zero).entries[0] == [b, 0]
    # mixed rows: zero left, zero right, both zero, neither, with both kinds of entries
    left = CMatrix([[0, g, 0, s, g], [s, 0, 0, g, 0]])
    right = CMatrix([[s, 0, 0, g, g], [0, g, s, s, 0]])
    assert (left + right).entries == [[s, g, 0, s + g, 2 * g], [s, g, s, g + s, 0]]
    assert (left - right).entries == [[-s, g, 0, s - g, 0], [s, -g, -s, g - s, 0]]
    for m in (left + right, left - right):
        for x in (x for row in m.entries for x in row):
            _assert_canonical(x)


_mixed_heights = st.integers(min_value=1, max_value=3)


@st.composite
def _mixed_rows(draw):
    return _gauss_rows(draw, draw(_mixed_heights), 4, mixed=True)


@given(_mixed_rows())
def test_mixed_elimination_takes_the_operator_path(rows):
    reduced, pivots = _rref(rows)
    assert (reduced, pivots) == _reference_rref(rows)
    for x in (x for row in reduced for x in row):
        _assert_canonical(x)


@st.composite
def _dot_operands(draw):
    row, col, (start, *_) = _gauss_rows(draw, 3, 4)
    return [(k, a) for k, a in enumerate(row) if a], col, start


@given(_dot_operands())
def test_dot_kernels_start_at_the_given_value(args):
    row, col, start = args
    expected = _Pair(start.re, start.im)
    for k, a in row:
        expected = expected + _Pair(a.re, a.im) * _Pair(col[k].re, col[k].im)
    for value in (_gauss_dot(row, col, start), _dot(row, col, start)):
        assert _pairs([[value]]) == [[expected]]
        _assert_canonical(value)
    # without a start both sum from zero, as products and apply call them
    assert _gauss_dot(row, col) == _dot(row, col) == _gauss_dot(row, col, GR_ZERO)


def test_dot_kernels_start_examples():
    half, third = GaussRational(Fraction(1, 2)), GaussRational(0, Fraction(1, 3))
    start = GaussRational(Fraction(1, 2), Fraction(1, 3))
    # a start value alone: no terms, or only terms with a zero column entry
    for dot in (_gauss_dot, _dot):
        assert dot([], [], start) == start
        assert dot([(0, half)], [GR_ZERO], start) == start
    # start and terms over different denominators: 1/2 + i/3 + (1/2)(1/5) + (i/3)(3/7)
    row, col = [(0, half), (1, third)], [GaussRational(Fraction(1, 5)), GaussRational(Fraction(3, 7))]
    expected = GaussRational(Fraction(3, 5), Fraction(1, 3) + Fraction(1, 7))
    assert _gauss_dot(row, col, start) == _dot(row, col, start) == expected
    # a sum that cancels exactly: 1/2 + i/3 + (1/4)(-2 - 4i/3) is zero
    row, col = [(0, GaussRational(Fraction(1, 4)))], [GaussRational(-2, Fraction(-4, 3))]
    assert _gauss_dot(row, col, start) is GR_ZERO
    assert _dot(row, col, start) == GR_ZERO
    # the operator path takes a Laurent start: t + t*(-1) is zero
    assert _dot([(0, T)], [GaussRational(-1)], T) == 0
    assert _dot([(0, T)], [GaussRational(2)], Z) == Z + 2 * T


# -- the one-elimination subspace paths against the two-elimination ones --

def _two_step_kernel(m):
    """The kernel by a forward elimination of ``m`` and a second
    elimination of the vectors of its free columns."""
    reduced, pivots = _rref(m.entries)
    vectors = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [GR_ZERO] * m.cols
        v[f] = GR_ONE
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        vectors.append(v)
    return Subspace(vectors, ambient=m.cols)


def _zassenhaus(u, v):
    """The intersection by Zassenhaus: reduce the rows ``(u | u)`` and
    ``(v | 0)``; the rows with zero left half have right halves spanning it."""
    n = u.ambient
    block = [list(b) + list(b) for b in u.basis] + [list(b) + [GR_ZERO] * n for b in v.basis]
    reduced, _ = _rref(block)
    return Subspace([row[n:] for row in reduced if not any(row[:n]) and any(row[n:])], ambient=n)


_kernel_kinds = st.sampled_from(["sparse", "zero", "low-rank", "full-rank"])
_kernel_shapes = st.integers(min_value=1, max_value=6)


@st.composite
def _kernel_matrices(draw):
    """Gaussian matrices with zero rows and columns, of rank 0, of low
    rank (a product through ``k`` < both sides) and of full rank (a
    nonzero diagonal over zeros, then columns permuted)."""
    rows, cols, kind = draw(_kernel_shapes), draw(_kernel_shapes), draw(_kernel_kinds)
    if kind == "zero":
        return [[GR_ZERO] * cols for _ in range(rows)]
    if kind == "low-rank":
        k = draw(st.integers(min_value=1, max_value=max(1, min(rows, cols) - 1)))
        return (CMatrix(_gauss_rows(draw, rows, k)) * CMatrix(_gauss_rows(draw, k, cols))).entries
    m = _gauss_rows(draw, rows, cols)
    if kind == "full-rank":
        for i in range(rows):
            for j in range(cols):
                if j < i:
                    m[i][j] = GR_ZERO
                elif j == i:
                    m[i][j] = m[i][j] or GaussRational(1, -1)
        order = draw(st.permutations(range(cols)))
        m = [[row[j] for j in order] for row in m]
    return m


@given(_kernel_matrices())
def test_kernel_matches_the_two_step_kernel(rows):
    m = CMatrix(rows)
    ker = kernel(m)
    assert ker == _two_step_kernel(m)
    assert ker.dim + Subspace(rows, ambient=m.cols).dim == m.cols
    for v in ker.basis:
        assert not any(m.apply(list(v)))
        for x in v:
            _assert_canonical(x)


def test_kernel_of_full_rank_and_zero_matrices():
    full_rank = CMatrix([[1, 2, 3], [0, 1, 4]])
    assert kernel(full_rank) == _two_step_kernel(full_rank)
    assert kernel(CMatrix.zeros(2, 3)).basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert kernel(CMatrix([[0, 0, 1]])).basis == ((1, 0, 0), (0, 1, 0))


@st.composite
def _permuted_kernel_matrices(draw):
    rows = draw(_kernel_matrices())
    return rows, draw(st.permutations(range(len(rows[0]))))


@given(_permuted_kernel_matrices())
def test_kernel_does_not_depend_on_the_column_order(args):
    # over Q(i) every nonzero pivot is a unit: kernel(m[:, p]) is kernel(m) permuted
    rows, order = args
    permuted = kernel(CMatrix([[row[j] for j in order] for row in rows]))
    vectors = [[v[j] for j in order] for v in kernel(CMatrix(rows)).basis]
    assert permuted == Subspace(vectors, ambient=len(order))


@st.composite
def _subspace_pairs(draw):
    """Two subspaces of one ambient space spanned by shared and own
    vectors, so that they often meet, and are sometimes zero or everything."""
    n = draw(_kernel_shapes)
    shared = _gauss_rows(draw, draw(st.integers(0, 2)), n)
    own = [_gauss_rows(draw, draw(st.integers(0, 3)), n) for _ in range(2)]
    return [Subspace(shared + vectors, ambient=n) for vectors in own]


@given(_subspace_pairs())
def test_intersection_matches_zassenhaus(pair):
    u, v = pair
    assert u.intersection(v) == _zassenhaus(u, v)
    assert v.intersection(u) == _zassenhaus(v, u)
    assert u.conj().intersection(v) == _zassenhaus(u.conj(), v)


def test_intersection_with_the_zero_space_and_the_whole_space():
    line, zero = Subspace([[1, 2, GaussRational(0, 1)]]), Subspace([], ambient=3)
    whole = Subspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for a, b, expected in ((line, zero, zero), (zero, line, zero), (whole, line, line),
                           (line, whole, line), (line, line.conj(), zero), (line, line, line)):
        assert a.intersection(b) == expected == _zassenhaus(a, b)


def test_conj_keeps_the_canonical_basis():
    space = Subspace([[1, GaussRational(0, 2), 0, 3], [0, 0, 1, GaussRational(1, -1)]])
    assert space.conj() == Subspace([[x.conj() for x in b] for b in space.basis])
    assert space.conj().basis == tuple(tuple(x.conj() for x in b) for b in space.basis)


def test_matrix_truth_is_a_nonzero_entry():
    assert not CMatrix.zeros(2, 2) and not CMatrix([[0, T - T]])
    assert CMatrix([[0, GaussRational(0, 1)]]) and CMatrix([[0], [T]])
