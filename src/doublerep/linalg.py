"""Sparse exact linear algebra over a cyclotomic field.

A vector is a ``{index: nonzero value}`` dict (``Row``) with no stored zero.
A matrix is its nonzero pattern: one such dict per row (``Mat.nz_rows``),
all at one field order.  Sums, products, matrix-vector products, stacking
and the trace pairing visit only nonzero entries; kernel bases, sparse
columns and span bases are dicts too.  The dense grid ``Mat.rows`` is built
only when read, for JSON, printing and tests.
Every elimination is a sparse reduced row echelon form built row by row in
``Echelon``: the pivot of a row is its first nonzero column, scaled to one,
and every other row is zero there.  The reduced row echelon form of a row
space is unique, so ranks, pivots, kernel bases and solutions do not depend
on the order in which rows are added.
"""

from __future__ import annotations

from bisect import insort

from .cyclo import CycScalar

Row = dict[int, CycScalar]


class Mat:
    """Immutable exact matrix over Q(zeta_order), stored as its nonzero
    pattern: ``Mat(order, nz, ncols)`` keeps the row dicts ``nz``, which
    must hold no zero value and must not be changed afterwards."""

    __slots__ = ("order", "nrows", "ncols", "_nz")

    def __init__(self, order: int, nz, ncols: int):
        self.order = order
        self._nz = tuple(nz)
        self.nrows = len(self._nz)
        self.ncols = ncols

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(order: int, rows, ncols: int | None = None) -> Mat:
        """The matrix with the given dense rows, all ``ncols`` long; ``ncols``
        may be left out when there is a row."""
        rows = [tuple(r) for r in rows]
        if ncols is None and rows:
            ncols = len(rows[0])
        if ncols is None or any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows, or no rows and no ncols")
        return Mat(order, ({j: x for j, x in enumerate(r) if x} for r in rows), ncols)

    @staticmethod
    def from_cols(order: int, cols, nrows: int) -> Mat:
        """The matrix with the given sparse columns, each ``nrows`` long."""
        return Mat(order, cols, nrows).transpose()

    @staticmethod
    def zeros(order: int, r: int, c: int) -> Mat:
        return Mat(order, ({} for _ in range(r)), c)

    @staticmethod
    def identity(order: int, n: int) -> Mat:
        o = CycScalar.one(order)
        return Mat(order, ({i: o} for i in range(n)), n)

    @staticmethod
    def diag(order: int, entries) -> Mat:
        entries = list(entries)
        return Mat(order, ({i: x} if x else {} for i, x in enumerate(entries)), len(entries))

    # -- structure ---------------------------------------------------------

    def nz_rows(self) -> tuple[Row, ...]:
        """The nonzero entries of each row as {column: value}; read-only."""
        return self._nz

    @property
    def rows(self) -> tuple[tuple[CycScalar, ...], ...]:
        """The dense rows, built on each read."""
        z = CycScalar.zero(self.order)
        return tuple(tuple(r.get(j, z) for j in range(self.ncols)) for r in self._nz)

    def __getitem__(self, ij: tuple[int, int]) -> CycScalar:
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i},{j}) outside {self.nrows}x{self.ncols}")
        x = self._nz[i].get(j)
        return CycScalar.zero(self.order) if x is None else x

    def cols(self) -> list[Row]:
        """The sparse columns."""
        return list(self.transpose().nz_rows())

    def transpose(self) -> Mat:
        out = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self._nz):
            for j, x in r.items():
                out[j][i] = x
        return Mat(self.order, out, self.nrows)

    def is_zero(self) -> bool:
        return not any(self._nz)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return self._nz == other._nz

    def __hash__(self):
        raise TypeError("Mat is not hashable")

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols} over Q(z{self.order}))"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: Mat) -> Mat:
        self._shape_match(other)
        out = []
        for ra, rb in zip(self._nz, other._nz):
            r = dict(ra)
            for j, y in rb.items():
                if j not in r:
                    r[j] = y
                elif s := r[j] + y:
                    r[j] = s
                else:
                    del r[j]
            out.append(r)
        return Mat(self.order, out, self.ncols)

    def __sub__(self, other: Mat) -> Mat:
        return self + -other

    def __neg__(self) -> Mat:
        return Mat(self.order, ({j: -x for j, x in r.items()} for r in self._nz), self.ncols)

    def scale(self, c: CycScalar) -> Mat:
        if not c:
            return Mat.zeros(self.order, self.nrows, self.ncols)
        return Mat(self.order, ({j: c * x for j, x in r.items()} for r in self._nz), self.ncols)

    def __mul__(self, other: Mat) -> Mat:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        b = other._nz
        out = []
        for ra in self._nz:
            acc = {}
            for k, x in ra.items():
                for j, y in b[k].items():
                    acc[j] = acc[j] + x * y if j in acc else x * y
            out.append({j: s for j, s in acc.items() if s})
        return Mat(self.order, out, other.ncols)

    def matvec(self, v: Row) -> Row:
        if v and not 0 <= min(v) <= max(v) < self.ncols:
            raise ValueError(f"vector index outside {self.ncols} columns")
        out = {}
        for i, r in enumerate(self._nz):
            s = None
            for k, a in r.items():
                b = v.get(k)
                if b is not None:
                    s = a * b if s is None else s + a * b
            if s:
                out[i] = s
        return out

    def _shape_match(self, other: Mat) -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")


def frobenius_pair(a: Mat, b: Mat) -> CycScalar:
    """trace(a*b) without forming the product."""
    if a.ncols != b.nrows or a.nrows != b.ncols:
        raise ValueError("shape mismatch in trace pairing")
    s = CycScalar.zero(a.order)
    bnz = b.nz_rows()
    for i, ra in enumerate(a.nz_rows()):
        for j, v in ra.items():
            w = bnz[j].get(i)
            if w is not None:
                s = s + v * w
    return s


def hstack(mats: list[Mat]) -> Mat:
    return vstack([m.transpose() for m in mats]).transpose()


def vstack(mats: list[Mat]) -> Mat:
    if not mats:
        raise ValueError("stack of nothing")
    c = mats[0].ncols
    if any(m.ncols != c for m in mats):
        raise ValueError("stacked matrices do not match in shape")
    return Mat(mats[0].order, (r for m in mats for r in m.nz_rows()), c)


def block_diag(order: int, mats: list[Mat]) -> Mat:
    out, c = [], 0
    for m in mats:
        out.extend({j + c: x for j, x in r.items()} for r in m.nz_rows())
        c += m.ncols
    return Mat(order, out, c)


def _clear(v: Row, p: int, row: Row) -> None:
    """v -= v[p] * row, in place, for a row with entry one at column p."""
    c = -v.pop(p)
    for k, b in row.items():
        if k != p:
            if k in v:
                s = v[k] + c * b
                if s:
                    v[k] = s
                else:
                    del v[k]
            else:
                v[k] = c * b


class Echelon:
    """Reduced row echelon basis of a growing row space over Q(zeta_order).

    ``rows[p]`` is the basis row whose pivot is column p, with value one at p
    and no entry at any other pivot; ``pivots`` lists the pivot columns in
    increasing order.  Vectors passed in are not modified.
    """

    __slots__ = ("order", "pivots", "rows")

    def __init__(self, order: int):
        self.order = order
        self.pivots: list[int] = []
        self.rows: dict[int, Row] = {}

    def reduce(self, v: Row) -> Row:
        """The residue of v modulo the span, zero at every pivot: empty
        exactly when v lies in the span."""
        v = dict(v)
        rows = self.rows
        # a row has no entry at another row's pivot, so one pass suffices
        for p in [p for p in v if p in rows]:
            _clear(v, p, rows[p])
        return v

    def add(self, v: Row) -> int | None:
        """Extend the span by v; return the new pivot, or None if v was in it."""
        v = self.reduce(v)
        if not v:
            return None
        p = min(v)
        c = v[p]
        if not c.is_one():
            c = c.inv()
            v = {k: c * x for k, x in v.items() if k != p}
            v[p] = CycScalar.one(self.order)
        for row in self.rows.values():
            if p in row:
                _clear(row, p, v)
        insort(self.pivots, p)
        self.rows[p] = v
        return p


def _echelon(order: int, rows) -> Echelon:
    e = Echelon(order)
    for r in rows:
        if r:  # an empty row adds nothing, and Echelon.add would copy it
            e.add(r)
    return e


def rank(m: Mat) -> int:
    return len(_echelon(m.order, m.nz_rows()).pivots)


def nullspace(m: Mat) -> list[Row]:
    """Echelonized basis of the right kernel, one vector per free column,
    with its indices in increasing order."""
    e = _echelon(m.order, m.nz_rows())
    o = CycScalar.one(m.order)
    basis = []
    for fc in range(m.ncols):
        if fc not in e.rows:
            # a row has entries only at and after its pivot
            v = {pc: -x for pc in e.pivots if (x := e.rows[pc].get(fc)) is not None}
            v[fc] = o
            basis.append(v)
    return basis


def solve_right(a: Mat, b: Mat) -> Mat | None:
    """A particular X with a*X = b, or None if inconsistent."""
    if a.nrows != b.nrows:
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} \\ {b.nrows}x{b.ncols}")
    n = a.ncols
    e = _echelon(a.order,
                 ({**ra, **{n + j: x for j, x in rb.items()}}
                  for ra, rb in zip(a.nz_rows(), b.nz_rows())))
    if e.pivots and e.pivots[-1] >= n:
        return None
    out = [{j - n: x for j, x in e.rows[c].items() if j >= n} if c in e.rows else {}
           for c in range(n)]
    return Mat(a.order, out, b.ncols)


def inv(m: Mat) -> Mat:
    if m.nrows != m.ncols:
        raise ValueError("inverse of non-square matrix")
    # a singular m leaves a pivot in the identity block of [m | I]
    x = solve_right(m, Mat.identity(m.order, m.nrows))
    if x is None:
        raise ValueError("matrix is singular")
    return x
