"""Exact integer matrices: rank, Hermite normal form, kernel bases.

Everything here works over Python's arbitrary-precision integers; there is
no floating point anywhere.  Matrices are immutable.  `Frozen`, the base of
the package's immutable value classes, lives here, in the bottom layer.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter


class Frozen:
    """Base of the immutable value classes.

    A subclass names its fields in `__slots__` and sets them once, through
    `_init(*values)` in `__init__`, in `__slots__` order. Equality (only
    with an instance of the same class), hash and repr come from the field
    tuple; assigning or deleting a field raises AttributeError. Pickle and
    `copy` rebuild an instance through `__init__`, so its validation runs
    again.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        cls._astuple = staticmethod(get if len(cls.__slots__) > 1
                                    else lambda x: (get(x),))

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple(self)


class IntMatrix(Frozen):
    """Immutable integer matrix stored as a tuple of row tuples."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        if entries and any(len(r) != len(entries[0]) for r in entries):
            raise ValueError("ragged rows")
        self._init(entries)

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in r) for r in rows))

    @staticmethod
    def from_cols(cols) -> "IntMatrix":
        cols = [tuple(int(x) for x in c) for c in cols]
        return IntMatrix(tuple(zip(*cols))) if cols else IntMatrix(())

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * cols for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else self

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        bt = other.transpose().entries
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
            for row in self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in r) for r in self.entries)


def rank(m: IntMatrix) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == nr:
            break
    return r


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U @ m == H, pivots positive, entries
    above each pivot reduced into [0, pivot), and zero rows at the bottom.
    """
    nr = m.rows
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    a = _hnf_rows(m, u)
    return IntMatrix.from_rows(a), IntMatrix.from_rows(u)


def _hnf_rows(m: IntMatrix, *carried: list) -> list[list[int]]:
    """The rows of the Hermite normal form of m; every row operation is
    applied to each matrix of `carried` as well, in place."""
    a = [list(r) for r in m.entries]
    mats = (a,) + carried
    nr, nc = m.rows, m.cols

    def addmul(dst, src, q):
        for b in mats:
            b[dst] = [x - q * y for x, y in zip(b[dst], b[src])]

    def swap(i, j):
        for b in mats:
            b[i], b[j] = b[j], b[i]

    def negate(i):
        for b in mats:
            b[i] = [-x for x in b[i]]

    r = 0
    pivots = []
    for c in range(nc):
        # Euclid on the column below row r.
        while True:
            nz = [i for i in range(r, nr) if a[i][c] != 0]
            if not nz:
                break
            imin = min(nz, key=lambda i: abs(a[i][c]))
            swap(r, imin)
            if a[r][c] < 0:
                negate(r)
            done = True
            for i in range(r + 1, nr):
                if a[i][c] != 0:
                    addmul(i, r, a[i][c] // a[r][c])
                    done = done and a[i][c] == 0
            if done:
                break
        if r < nr and a[r][c] != 0:
            pivots.append((r, c))
            r += 1
            if r == nr:
                break
    for pr, pc in pivots:
        for i in range(pr):
            q = a[i][pc] // a[pr][pc]
            if q:
                addmul(i, pr, q)
    return a


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Rows form a Z-basis of the integer kernel {v : m @ v = 0}.

    Computed from the HNF transform of the transpose: the transformation
    rows that map to zero rows span the (saturated) kernel lattice.
    """
    if m.cols == 0:
        return IntMatrix(())
    h, u = hermite_normal_form(m.transpose())
    zero_rows = [i for i in range(h.rows) if all(x == 0 for x in h.row(i))]
    return IntMatrix.from_rows([u.row(i) for i in zero_rows])


def row_space_hnf(m: IntMatrix) -> IntMatrix:
    """Canonical form of the row lattice: nonzero rows of the HNF."""
    return IntMatrix.from_rows([r for r in _hnf_rows(m) if any(r)])


def primitive(v) -> tuple[int, ...]:
    """Scale an integer vector to primitive form (gcd 1, orientation kept)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)
