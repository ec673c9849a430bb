"""Dense exact linear algebra over a cyclotomic field.

Matrices are immutable row-major grids of CycScalar, all at one field
order.  Elimination uses exact division with first-nonzero pivoting, so
every routine is deterministic.
"""

from __future__ import annotations

from .cyclo import CycScalar

Vec = tuple[CycScalar, ...]


class Mat:
    """Immutable exact matrix over Q(zeta_order)."""

    __slots__ = ("order", "nrows", "ncols", "rows")

    def __init__(self, order: int, rows: tuple[tuple[CycScalar, ...], ...], ncols: int | None = None):
        self.order = order
        self.rows = rows
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            for r in rows:
                if len(r) != self.ncols:
                    raise ValueError("ragged rows")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(order: int, rows, ncols: int | None = None) -> Mat:
        return Mat(order, tuple(tuple(r) for r in rows), ncols)

    @staticmethod
    def from_cols(order: int, cols, nrows: int | None = None) -> Mat:
        cols = [tuple(c) for c in cols]
        if not cols:
            if nrows is None:
                raise ValueError("empty column list needs explicit nrows")
            return Mat.zeros(order, nrows, 0)
        n = len(cols[0])
        return Mat.from_rows(order, [[c[i] for c in cols] for i in range(n)])

    @staticmethod
    def zeros(order: int, r: int, c: int) -> Mat:
        z = CycScalar.zero(order)
        return Mat(order, tuple(tuple(z for _ in range(c)) for _ in range(r)), c)

    @staticmethod
    def identity(order: int, n: int) -> Mat:
        z = CycScalar.zero(order)
        o = CycScalar.one(order)
        return Mat(order, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)), n)

    @staticmethod
    def diag(order: int, entries) -> Mat:
        entries = list(entries)
        z = CycScalar.zero(order)
        n = len(entries)
        return Mat(order, tuple(tuple(entries[i] if i == j else z for j in range(n)) for i in range(n)), n)

    # -- structure ---------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> CycScalar:
        return self.rows[ij[0]][ij[1]]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[Vec]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> Mat:
        return Mat.from_rows(self.order, [self.col(j) for j in range(self.ncols)], self.nrows)

    def is_zero(self) -> bool:
        return all(v.is_zero() for r in self.rows for v in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def __hash__(self):
        raise TypeError("Mat is not hashable")

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols} over Q(z{self.order}))"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: Mat) -> Mat:
        self._shape_match(other)
        return Mat.from_rows(
            self.order,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other: Mat) -> Mat:
        self._shape_match(other)
        return Mat.from_rows(
            self.order,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __neg__(self) -> Mat:
        return Mat.from_rows(self.order, [[-a for a in r] for r in self.rows], self.ncols)

    def scale(self, c: CycScalar) -> Mat:
        return Mat.from_rows(self.order, [[c * a for a in r] for r in self.rows], self.ncols)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
            z = CycScalar.zero(self.order)
            bcols = [other.col(j) for j in range(other.ncols)]
            out = []
            for ra in self.rows:
                nz = [(k, a) for k, a in enumerate(ra) if a]
                row = []
                for cb in bcols:
                    s = z
                    for k, a in nz:
                        if cb[k]:
                            s = s + a * cb[k]
                    row.append(s)
                out.append(row)
            return Mat.from_rows(self.order, out, other.ncols)
        if isinstance(other, CycScalar):
            return self.scale(other)
        return NotImplemented

    def matvec(self, v: Vec) -> Vec:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        z = CycScalar.zero(self.order)
        out = []
        for r in self.rows:
            s = z
            for a, b in zip(r, v):
                if a and b:
                    s = s + a * b
            out.append(s)
        return tuple(out)

    def trace(self) -> CycScalar:
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        s = CycScalar.zero(self.order)
        for i in range(self.nrows):
            s = s + self.rows[i][i]
        return s

    def _shape_match(self, other: Mat) -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")


def frobenius_pair(a: Mat, b: Mat) -> CycScalar:
    """trace(a*b) without forming the product."""
    if a.ncols != b.nrows or a.nrows != b.ncols:
        raise ValueError("shape mismatch in trace pairing")
    s = CycScalar.zero(a.order)
    for i in range(a.nrows):
        ra = a.rows[i]
        for j, v in enumerate(ra):
            if v:
                w = b.rows[j][i]
                if w:
                    s = s + v * w
    return s


def hstack(mats: list[Mat]) -> Mat:
    if not mats:
        raise ValueError("hstack of nothing")
    n = mats[0].nrows
    rows = [sum((list(m.rows[i]) for m in mats), []) for i in range(n)]
    return Mat.from_rows(mats[0].order, rows, sum(m.ncols for m in mats))


def vstack(mats: list[Mat]) -> Mat:
    if not mats:
        raise ValueError("vstack of nothing")
    c = mats[0].ncols
    rows = []
    for m in mats:
        if m.ncols != c:
            raise ValueError("vstack column mismatch")
        rows.extend(m.rows)
    return Mat.from_rows(mats[0].order, rows, c)


def block_diag(order: int, mats: list[Mat]) -> Mat:
    r = sum(m.nrows for m in mats)
    c = sum(m.ncols for m in mats)
    z = CycScalar.zero(order)
    grid = [[z] * c for _ in range(r)]
    ro = co = 0
    for m in mats:
        for i in range(m.nrows):
            row = m.rows[i]
            for j in range(m.ncols):
                grid[ro + i][co + j] = row[j]
        ro += m.nrows
        co += m.ncols
    return Mat.from_rows(order, grid, c)


def _eliminate(rows: list[list[CycScalar]], ncols: int, reduce_up: bool = True) -> list[int]:
    """In-place RREF (or REF if reduce_up=False); returns pivot column list."""
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


def rref(m: Mat) -> tuple[Mat, list[int]]:
    rows = [list(r) for r in m.rows]
    pivots = _eliminate(rows, m.ncols)
    return Mat.from_rows(m.order, rows, m.ncols), pivots


def rank(m: Mat) -> int:
    rows = [list(r) for r in m.rows]
    return len(_eliminate(rows, m.ncols, reduce_up=False))


def nullspace(m: Mat) -> list[Vec]:
    """Echelonized basis of the right kernel, deterministic order."""
    rows = [list(r) for r in m.rows]
    pivots = _eliminate(rows, m.ncols)
    pivset = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivset]
    z = CycScalar.zero(m.order)
    o = CycScalar.one(m.order)
    basis = []
    for fc in free:
        v = [z] * m.ncols
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def solve_right(a: Mat, b: Mat) -> Mat | None:
    """A particular X with a*X = b, or None if inconsistent."""
    aug = hstack([a, b])
    rows = [list(r) for r in aug.rows]
    pivots = _eliminate(rows, aug.ncols)
    for pc in pivots:
        if pc >= a.ncols:
            return None
    z = CycScalar.zero(a.order)
    out = [[z] * b.ncols for _ in range(a.ncols)]
    for r, pc in enumerate(pivots):
        for j in range(b.ncols):
            out[pc][j] = rows[r][a.ncols + j]
    return Mat.from_rows(a.order, out, b.ncols)


def inv(m: Mat) -> Mat:
    if m.nrows != m.ncols:
        raise ValueError("inverse of non-square matrix")
    x = solve_right(m, Mat.identity(m.order, m.nrows))
    if x is None or rank(m) != m.nrows:
        raise ValueError("matrix is singular")
    return x


def column_space_basis(vectors: list[Vec], order: int) -> list[Vec]:
    """Echelonized basis of the span of the given vectors (as columns)."""
    if not vectors:
        return []
    m = Mat.from_rows(order, list(vectors))  # rows = vectors
    r, pivots = rref(m)
    return [r.rows[i] for i in range(len(pivots))]


def in_span(basis_rows: list[Vec], v: Vec, order: int) -> bool:
    """Is v in the row span of basis_rows?"""
    if not basis_rows:
        return all(x.is_zero() for x in v)
    m = Mat.from_rows(order, list(basis_rows) + [list(v)])
    return rank(m) == len(column_space_basis(list(basis_rows), order))
