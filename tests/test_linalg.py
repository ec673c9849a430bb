"""Exact matrix algebra over cyclotomic fields.

A ``Mat`` stores only its nonzero pattern, and a vector is a
``{index: nonzero value}`` dict.  Its operations and the sparse kernels
(``Echelon`` and the products over ``Mat.nz_rows``) are also checked against
dense reference loops on random sparse matrices.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublerep.cyclo import CycScalar, root_of_unity
from doublerep.datum import datum_from_json
from doublerep import linalg
from doublerep.linalg import (Echelon, Mat, block_diag, frobenius_pair, hstack, inv,
                              nullspace, rank, solve_right, vstack)
from doublerep.repmod import ModuleRep, spin_submodule

from .conftest import DATUM_JSON, sparse
from .reference import echelon, span_basis


def sc(v, order=4):
    return CycScalar.rational(v, order)


def mat(rows, order=4):
    return Mat.from_rows(order, [[sc(v, order) for v in row] for row in rows])


def trace(m):
    """The sum of the diagonal of the dense rows."""
    return sum((r[i] for i, r in enumerate(m.rows)), CycScalar.zero(m.order))


def test_construction_round_trips():
    m = mat([[1, 2], [3, 4]])
    assert m.nrows == 2 and m.ncols == 2
    assert m[0, 1] == sc(2)
    cols = m.cols()
    assert cols == [{0: sc(1), 1: sc(3)}, {0: sc(2), 1: sc(4)}]
    again = Mat.from_cols(4, cols, nrows=2)
    assert again == m
    assert m.transpose().transpose() == m
    assert Mat.diag(4, [sc(1), sc(5)])[1, 1] == sc(5)
    assert Mat.zeros(4, 2, 3).is_zero()
    empty = Mat.from_cols(4, [{}, {}], nrows=0)
    assert (empty.nrows, empty.ncols) == (0, 2)
    for bad in ([[1, 2], [3]], [[1, 2, 3]]):
        with pytest.raises(ValueError):
            Mat.from_rows(4, [[sc(v) for v in r] for r in bad], 2)


def test_entry_index_outside_the_shape_is_an_index_error():
    m = Mat.identity(4, 2)
    assert m[1, 1] == sc(1) and m[0, 1] == sc(0)
    for i, j in ((-1, 1), (2, 0), (0, -1), (0, 2), (5, 5)):
        with pytest.raises(IndexError, match=rf"^entry \({i},{j}\) outside 2x2$"):
            m[i, j]
    with pytest.raises(IndexError):
        Mat.zeros(4, 0, 3)[0, 0]


def test_arithmetic():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a + b - b == a
    assert -a + a == Mat.zeros(4, 2, 2)
    assert a * Mat.identity(4, 2) == a
    assert a * b == mat([[2, 1], [4, 3]])
    assert a.scale(sc(2)) == a + a
    assert a.matvec({0: sc(1)}) == {0: sc(1), 1: sc(3)}
    assert mat([[1, 1], [0, 0]]).matvec({0: sc(1), 1: sc(-1)}) == {}
    with pytest.raises(Exception):
        a + mat([[1, 2, 3]])


def test_matvec_rejects_an_index_outside_the_columns():
    a = mat([[1, 2], [3, 4]])
    for v in ({2: sc(1)}, {0: sc(1), 5: sc(1)}, {-1: sc(1)}):
        with pytest.raises(ValueError):
            a.matvec(v)
    assert Mat.zeros(4, 2, 0).matvec({}) == {}


def test_rank_rref_nullspace():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2
    assert echelon(m.nz_rows(), 4).pivots == [0, 1]
    ns = nullspace(m)
    assert len(ns) == 1
    assert m.matvec(ns[0]) == {}
    assert nullspace(Mat.identity(4, 3)) == []


def test_solve_and_inverse():
    a = mat([[1, 1], [0, 1]])
    b = mat([[2, 0], [1, 1]])
    x = solve_right(a, b)
    assert x is not None and a * x == b
    # inconsistent system: rank(a) < rank([a|b])
    sing = mat([[1, 1], [1, 1]])
    assert solve_right(sing, Mat.identity(4, 2)) is None
    assert a * inv(a) == Mat.identity(4, 2)
    with pytest.raises(ValueError, match="singular"):
        inv(sing)


def test_inverse_runs_one_elimination(monkeypatch):
    calls = []
    eliminate = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda order, rows: calls.append(order) or eliminate(order, rows))
    a = mat([[1, 1], [0, 1]])
    for m, invertible in ((a, True), (mat([[1, 2], [2, 4]]), False),
                          (Mat.zeros(4, 3, 3), False), (Mat.identity(9, 0), True)):
        calls.clear()
        if invertible:
            assert m * inv(m) == Mat.identity(m.order, m.nrows)
        else:
            with pytest.raises(ValueError, match="singular"):
                inv(m)
        assert len(calls) == 1


def test_frobenius_pairing_is_trace_of_product():
    i = root_of_unity(4)
    a = Mat.from_rows(4, [[i, sc(1)], [sc(0), i]])
    b = mat([[1, 2], [3, 4]])
    assert frobenius_pair(a, b) == trace(a * b)


def test_stacking():
    a = mat([[1, 2]])
    b = mat([[3, 4]])
    v = vstack([a, b])
    assert v == mat([[1, 2], [3, 4]])
    h = hstack([a.transpose(), b.transpose()])
    assert h == mat([[1, 3], [2, 4]])
    d = block_diag(4, [mat([[2]]), mat([[3]])])
    assert d == mat([[2, 0], [0, 3]])


def test_span_helpers():
    vecs = [{0: sc(1), 2: sc(1)}, {0: sc(2), 2: sc(2)}, {1: sc(1)}]
    e = Echelon(4)
    assert [e.add(v) for v in vecs] == [0, None, 1]
    assert [e.rows[p] for p in e.pivots] == [{0: sc(1), 2: sc(1)}, {1: sc(1)}]
    assert e.reduce({0: sc(3), 1: sc(1), 2: sc(3)}) == {}
    assert e.reduce({2: sc(1)}) == {2: sc(1)}
    assert Echelon(4).pivots == []


# ---------------------------------------------------------------------------
# differential tests against dense references


def _eliminate(rows: list[list[CycScalar]], ncols: int, reduce_up: bool = True) -> list[int]:
    """Dense in-place RREF (or REF if reduce_up=False); returns pivot column list."""
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if not pv.is_one():
            ipv = pv.inv()
            rows[r] = [ipv * v if v else v for v in rows[r]]
        rng = range(nrows) if reduce_up else range(r + 1, nrows)
        for i in rng:
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [a - f * b if b else a for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def ref_rref(m):
    rows = [list(r) for r in m.rows]
    pivots = _eliminate(rows, m.ncols)
    return Mat.from_rows(m.order, rows, m.ncols), pivots


def ref_rank(m):
    return len(_eliminate([list(r) for r in m.rows], m.ncols, reduce_up=False))


def ref_nullspace(m):
    red, pivots = ref_rref(m)
    z, o = CycScalar.zero(m.order), CycScalar.one(m.order)
    basis = []
    for fc in range(m.ncols):
        if fc in pivots:
            continue
        v = [z] * m.ncols
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, fc]
        basis.append(tuple(v))
    return basis


def ref_solve_right(a, b):
    rows = [list(ra) + list(rb) for ra, rb in zip(a.rows, b.rows)]
    pivots = _eliminate(rows, a.ncols + b.ncols)
    if any(pc >= a.ncols for pc in pivots):
        return None
    z = CycScalar.zero(a.order)
    out = [[z] * b.ncols for _ in range(a.ncols)]
    for r, pc in enumerate(pivots):
        out[pc] = rows[r][a.ncols:]
    return Mat.from_rows(a.order, out, b.ncols)


def ref_mul(a, b):
    z = CycScalar.zero(a.order)
    ga, gb = a.rows, b.rows
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            s = z
            for k in range(a.ncols):
                s = s + ga[i][k] * gb[k][j]
            row.append(s)
        out.append(row)
    return Mat.from_rows(a.order, out, b.ncols)


ORDERS = (4, 9, 12)
DIMS = st.integers(0, 6)


def scalars(order):
    """Nonzero a*z^i + b*z^j with small rational a, b: roots of unity and
    their multiples, and sums of two of them."""
    root = st.integers(0, order - 1).map(lambda k: root_of_unity(order, k))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(
        lambda a: CycScalar.rational(a, order))
    return st.builds(lambda a, x, b, y: x * a + y * b, coeff, root, coeff, root).filter(bool)


@st.composite
def grids(draw, order, nrows, ncols):
    """Dense rows with about one nonzero entry per row, with any rows or
    columns left zero."""
    z = CycScalar.zero(order)
    rows = [[z] * ncols for _ in range(nrows)]
    if nrows and ncols:
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
        for i, j in draw(st.lists(cells, max_size=2 * max(nrows, ncols))):
            rows[i][j] = draw(scalars(order))
    return rows


def sparse_mats(order, nrows, ncols):
    return grids(order, nrows, ncols).map(lambda g: Mat.from_rows(order, g, ncols))


@st.composite
def systems(draw):
    """(order, m): sparse, or of rank at most r as a product through r columns."""
    order = draw(st.sampled_from(ORDERS))
    nrows, ncols = draw(DIMS), draw(DIMS)
    if draw(st.booleans()):
        r = draw(st.integers(0, 2))
        m = draw(sparse_mats(order, nrows, r)) * draw(sparse_mats(order, r, ncols))
    else:
        m = draw(sparse_mats(order, nrows, ncols))
    return order, m


SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(systems())
def test_eliminations_match_dense_reference(om):
    _, m = om
    e = echelon(m.nz_rows(), m.order)
    ref_red, ref_pivots = ref_rref(m)
    assert e.pivots == ref_pivots
    assert [e.rows[p] for p in e.pivots] == list(ref_red.nz_rows()[:len(e.pivots)])
    assert not any(ref_red.nz_rows()[len(e.pivots):])
    assert rank(m) == ref_rank(m) == len(e.pivots)
    assert nullspace(m) == [sparse(v) for v in ref_nullspace(m)]


@SETTINGS
@given(systems(), st.data())
def test_solve_right_matches_dense_reference(om, data):
    order, a = om
    k = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):  # consistent: b = a * x
        b = a * data.draw(sparse_mats(order, a.ncols, k))
    else:  # usually inconsistent when a is rank-deficient
        b = data.draw(sparse_mats(order, a.nrows, k))
    x = solve_right(a, b)
    ref = ref_solve_right(a, b)
    assert (x is None) == (ref is None)
    if x is not None:
        assert x.rows == ref.rows
        assert a * x == b


@SETTINGS
@given(st.sampled_from(ORDERS), DIMS, DIMS, DIMS, st.data())
def test_products_match_dense_loops(order, n, k, m, data):
    a = data.draw(sparse_mats(order, n, k))
    b = data.draw(sparse_mats(order, k, m))
    c = data.draw(sparse_mats(order, k, n))
    v = data.draw(sparse_mats(order, 1, k)).rows[0] if k else ()
    assert (a * b).rows == ref_mul(a, b).rows
    ref = ref_mul(a, Mat.from_rows(order, [[x] for x in v], 1))
    assert a.matvec(sparse(v)) == sparse(r[0] for r in ref.rows)
    assert frobenius_pair(a, c) == trace(ref_mul(a, c))


@SETTINGS
@given(systems(), st.randoms(use_true_random=False))
def test_echelon_rows_do_not_depend_on_row_order(om, rng):
    order, m = om
    shuffled = list(m.nz_rows())
    rng.shuffle(shuffled)
    a, b = Echelon(order), Echelon(order)
    for row in m.nz_rows():
        a.add(row)
    for row in shuffled:
        b.add(row)
    assert a.pivots == b.pivots
    assert a.rows == b.rows
    assert [a.rows[p] for p in a.pivots] == list(ref_rref(m)[0].nz_rows()[:len(a.pivots)])


def assert_dense(m, grid, ncols):
    """m has the dense rows ``grid`` and stores neither a zero nor a column
    outside its shape; ``Mat.__eq__`` compares the stored patterns."""
    assert (m.nrows, m.ncols) == (len(grid), ncols)
    assert [list(r) for r in m.rows] == [list(r) for r in grid]
    assert all(x and 0 <= j < ncols for r in m.nz_rows() for j, x in r.items())


@SETTINGS
@given(st.sampled_from(ORDERS), DIMS, DIMS, DIMS, st.data())
def test_mat_operations_match_dense_loops(order, n, k, m, data):
    z = CycScalar.zero(order)
    ga = data.draw(grids(order, n, k))
    a = Mat.from_rows(order, ga, k)
    # b is a with some rows negated, so a + b cancels there, elsewhere random
    flips = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    gb = [[-x for x in ra] if f else rb
          for ra, rb, f in zip(ga, data.draw(grids(order, n, k)), flips)]
    b = Mat.from_rows(order, gb, k)
    gc = data.draw(grids(order, n, m))
    gd = data.draw(grids(order, m, k))
    c, d = Mat.from_rows(order, gc, m), Mat.from_rows(order, gd, k)

    assert_dense(a, ga, k)
    assert all(a[i, j] == ga[i][j] for i in range(n) for j in range(k))
    assert a.cols() == [sparse(r[j] for r in ga) for j in range(k)]
    assert_dense(a + b, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(ga, gb)], k)
    assert_dense(a - b, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ga, gb)], k)
    assert_dense(-a, [[-x for x in r] for r in ga], k)
    assert_dense(a - a, [[z] * k for _ in range(n)], k)
    for s in (z, data.draw(scalars(order))):
        assert_dense(a.scale(s), [[s * x for x in r] for r in ga], k)
    assert_dense(a.transpose(), [[r[j] for r in ga] for j in range(k)], n)
    assert_dense(Mat.from_cols(order, [sparse(r[j] for r in ga) for j in range(k)], nrows=n),
                 ga, k)
    assert_dense(hstack([a, c]), [ra + rc for ra, rc in zip(ga, gc)], k + m)
    assert_dense(vstack([a, d]), ga + gd, k)
    assert_dense(block_diag(order, [a, c]),
                 [ra + [z] * m for ra in ga] + [[z] * k + rc for rc in gc], k + m)
    o = CycScalar.one(order)
    assert_dense(Mat.identity(order, n), [[o if i == j else z for j in range(n)]
                                          for i in range(n)], n)
    entries = [x if keep else z for x, keep in zip(
        data.draw(st.lists(scalars(order), min_size=n, max_size=n)),
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))]
    assert_dense(Mat.diag(order, entries), [[entries[i] if i == j else z for j in range(n)]
                                            for i in range(n)], n)
    assert_dense(Mat.zeros(order, n, k), [[z] * k for _ in range(n)], k)


# ---------------------------------------------------------------------------
# one vector type: every vector handed out is a sparse dict


ORDER_DATUMS = {4: DATUM_JSON["B"], 9: DATUM_JSON["E"],
                12: {"orders": [12], "chi": [4], "a": [1], "alpha": 0}}


def assert_sparse(vectors, length):
    for v in vectors:
        assert type(v) is dict
        assert all(0 <= k < length and isinstance(x, CycScalar) and x for k, x in v.items())


@SETTINGS
@given(systems(), st.data())
def test_vectors_are_sparse_dicts(om, data):
    order, m = om
    k = m.ncols
    kernel = nullspace(m)
    assert_sparse(kernel, k)
    assert_sparse([m.matvec(v) for v in kernel + list(m.nz_rows())], m.nrows)
    assert_sparse(m.cols(), m.nrows)
    assert_sparse(span_basis(m.nz_rows(), order), k)
    # x and xi of a module need not satisfy the relations to be spun
    datum = datum_from_json(ORDER_DATUMS[order])
    weights = datum.enumerate_weights()
    tags = data.draw(st.lists(st.sampled_from(weights[:3]), min_size=k, max_size=k))
    square = m.transpose() * m
    mod = ModuleRep(datum, tags, square, square.transpose())
    assert_sparse(mod.x_kernel(), k)
    assert_sparse(spin_submodule(mod, list(m.nz_rows()) + kernel).rows, k)
