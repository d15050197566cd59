"""Exact linear algebra over a prime field, plus limits and colimits of
finite diagrams of vector spaces and the segment ranks of a zigzag.

All computation happens on integer matrices reduced modulo a prime ``p``
(default 2).  Row reduction is the single workhorse: rank, kernel and
cokernel bases, linear solves, and the limit/colimit constructions below
are all phrased in terms of it.  Pivots are chosen leftmost-first and
kernel basis vectors are enumerated in ascending free-column order, so
every routine is deterministic: identical inputs give identical outputs.

Dimensions here are desk scale (tens, not thousands); dense int64 arrays
are entirely adequate and keep the arithmetic exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

DEFAULT_PRIME = 2

# Keeps p*p*cols comfortably inside int64 during matrix products.
_MAX_PRIME = 1 << 20


# every Matrix checks its field, and a program uses only a few fields
@lru_cache(maxsize=64)
def is_prime(p: int) -> bool:
    """True when ``p`` is a prime number."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _check_prime(p: int) -> int:
    # the bound goes first: trial division of a huge p would not finish
    if not isinstance(p, int) or isinstance(p, bool) or p > _MAX_PRIME or not is_prime(p):
        raise ValueError(f"field order must be a prime <= {_MAX_PRIME}, got {p!r}")
    return p


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable dense matrix over GF(p).

    ``data`` is a read-only ``(rows, cols)`` int64 array with entries in
    ``[0, p)``.  Either dimension may be zero; empty matrices show up
    constantly as maps in and out of zero spaces and every routine in this
    module accepts them.
    """

    p: int
    data: np.ndarray

    def __post_init__(self) -> None:
        _check_prime(self.p)
        a = np.asarray(self.data, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {a.shape}")
        a = np.mod(a, self.p)
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], p: int = DEFAULT_PRIME,
                  cols: int | None = None) -> "Matrix":
        """Build a matrix from a list of rows.

        ``cols`` disambiguates the width when ``rows`` is empty.
        """
        if len(rows) == 0:
            return cls(p, np.zeros((0, 0 if cols is None else cols), dtype=np.int64))
        a = np.array(rows, dtype=np.int64)
        if a.ndim == 1:
            # a list of empty rows collapses to shape (n,); restore width 0
            a = a.reshape(len(rows), -1)
        return cls(p, a)

    @classmethod
    def zero(cls, rows: int, cols: int, p: int = DEFAULT_PRIME) -> "Matrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, n: int, p: int = DEFAULT_PRIME) -> "Matrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def cols(self) -> int:
        return int(self.data.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def entries(self) -> tuple[int, ...]:
        """Row-major flat tuple of entries."""
        return tuple(int(x) for x in self.data.reshape(-1))

    def tolists(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.data]

    def is_zero(self) -> bool:
        return not np.any(self.data)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        return Matrix(self.p, self.data.T)

    def _require_same_field(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"field mismatch: GF({self.p}) vs GF({other.p})")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._require_same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch for product: {self.shape} @ {other.shape}")
        return Matrix(self.p, self.data @ other.data)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch for sum: {self.shape} + {other.shape}")
        return Matrix(self.p, self.data + other.data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch for difference: {self.shape} - {other.shape}")
        return Matrix(self.p, self.data - other.data)

    def __neg__(self) -> "Matrix":
        return Matrix(self.p, -self.data)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.p == other.p
                and self.shape == other.shape
                and bool(np.array_equal(self.data, other.data)))

    def __hash__(self) -> int:
        return hash((self.p, self.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"Matrix(p={self.p}, {self.rows}x{self.cols}, {self.tolists()})"


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    """Block-diagonal sum of two matrices over the same field."""
    a._require_same_field(b)
    out = np.zeros((a.rows + b.rows, a.cols + b.cols), dtype=np.int64)
    out[:a.rows, :a.cols] = a.data
    out[a.rows:, a.cols:] = b.data
    return Matrix(a.p, out)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    """Stack matrices vertically; all must share a field and column count."""
    if len(mats) == 0:
        raise ValueError("vstack needs at least one matrix")
    first = mats[0]
    for m in mats[1:]:
        first._require_same_field(m)
        if m.cols != first.cols:
            raise ValueError(f"column mismatch for vstack: {first.cols} vs {m.cols}")
    return Matrix(first.p, np.vstack([m.data for m in mats]))


def hstack(mats: Sequence[Matrix]) -> Matrix:
    """Stack matrices horizontally; all must share a field and row count."""
    if len(mats) == 0:
        raise ValueError("hstack needs at least one matrix")
    first = mats[0]
    for m in mats[1:]:
        first._require_same_field(m)
        if m.rows != first.rows:
            raise ValueError(f"row mismatch for hstack: {first.rows} vs {m.rows}")
    return Matrix(first.p, np.hstack([m.data for m in mats]))


def _rref(a: np.ndarray, p: int, pivot_limit: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``a`` mod ``p``.

    Pivots are restricted to the first ``pivot_limit`` columns (all columns
    by default); row operations span the full width, which is what a solver
    with an augmented right-hand side needs.  Returns the reduced array and
    the pivot column indices in order.
    """
    R = np.array(a, dtype=np.int64) % p
    m, n = R.shape
    limit = n if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        if r == m:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        v = int(R[r, c])
        if v != 1:
            R[r] = (R[r] * pow(v, -1, p)) % p
        col = R[:, c].copy()
        col[r] = 0
        others = np.flatnonzero(col)
        if others.size:
            R[others] = (R[others] - np.outer(col[others], R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def _kernel_array(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of the right null space of ``a`` mod ``p``."""
    R, pivots = _rref(a, p)
    n = a.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    K = np.zeros((n, len(free)), dtype=np.int64)
    for j, fcol in enumerate(free):
        K[fcol, j] = 1
        for r, pc in enumerate(pivots):
            K[pc, j] = (-int(R[r, fcol])) % p
    return K


def _cokernel_array(a: np.ndarray, p: int) -> np.ndarray:
    """Rows form a basis of the left null space of ``a`` mod ``p``.

    The matrix projects the target space onto coker(a): it has full row
    rank and annihilates the column space of ``a``.
    """
    return _kernel_array(a.T, p).T


def rank(M: Matrix) -> int:
    return len(_rref(M.data, M.p)[1])


def kernel_basis(M: Matrix) -> Matrix:
    """Matrix whose columns are a deterministic basis of ker(M)."""
    return Matrix(M.p, _kernel_array(M.data, M.p))


def cokernel(M: Matrix) -> tuple[int, Matrix]:
    """Dimension of coker(M) together with the projection onto it.

    The projection has full row rank and satisfies proj @ M == 0.
    """
    P = _cokernel_array(M.data, M.p)
    return int(P.shape[0]), Matrix(M.p, P)


def solve(A: Matrix, B: Matrix) -> Matrix | None:
    """An exact solution X of A @ X == B, or None when none exists.

    Free variables are set to zero, so the answer is deterministic; when A
    has full column rank the solution is the unique one.
    """
    A._require_same_field(B)
    if A.rows != B.rows:
        raise ValueError(f"shape mismatch for solve: {A.shape} vs {B.shape}")
    aug = np.hstack([A.data, B.data])
    R, pivots = _rref(aug, A.p, pivot_limit=A.cols)
    r = len(pivots)
    if np.any(R[r:, A.cols:]):
        return None
    X = np.zeros((A.cols, B.cols), dtype=np.int64)
    for i, pc in enumerate(pivots):
        X[pc] = R[i, A.cols:]
    return Matrix(A.p, X)


def is_invertible(M: Matrix) -> bool:
    return M.is_square() and rank(M) == M.rows


def inverse(M: Matrix) -> Matrix:
    if not M.is_square():
        raise ValueError(f"only square matrices can be inverted, got {M.shape}")
    X = solve(M, Matrix.identity(M.rows, M.p))
    if X is None:
        raise ValueError("matrix is not invertible")
    return X


@dataclass(frozen=True)
class FiniteDiagram:
    """A finite diagram of GF(p) vector spaces.

    ``spaces[i]`` is the dimension of the i-th space; each arrow
    ``(src, tgt, M)`` is a linear map from space ``src`` to space ``tgt``,
    so ``M`` has shape ``(spaces[tgt], spaces[src])``.
    """

    p: int
    spaces: tuple[int, ...]
    arrows: tuple[tuple[int, int, Matrix], ...]

    def __post_init__(self) -> None:
        _check_prime(self.p)
        spaces = tuple(int(d) for d in self.spaces)
        if any(d < 0 for d in spaces):
            raise ValueError(f"space dimensions must be nonnegative, got {spaces}")
        arrows = tuple((int(s), int(t), M) for (s, t, M) in self.arrows)
        for idx, (s, t, M) in enumerate(arrows):
            if not (0 <= s < len(spaces)) or not (0 <= t < len(spaces)):
                raise ValueError(f"arrow {idx} endpoints ({s}, {t}) out of range")
            if not isinstance(M, Matrix):
                raise ValueError(f"arrow {idx} carries {type(M).__name__}, expected Matrix")
            if M.p != self.p:
                raise ValueError(f"arrow {idx} is over GF({M.p}), diagram is over GF({self.p})")
            if M.shape != (spaces[t], spaces[s]):
                raise ValueError(
                    f"arrow {idx} has shape {M.shape}, expected {(spaces[t], spaces[s])}")
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "arrows", arrows)


def _offsets(dims: Sequence[int]) -> list[int]:
    off = [0]
    for d in dims:
        off.append(off[-1] + d)
    return off


def diagram_limit(D: FiniteDiagram) -> tuple[int, tuple[Matrix, ...]]:
    """Limit of a finite diagram with its legs.

    The limit is the subspace of the direct sum of all spaces cut out by
    one block of constraints per arrow f: A -> B, namely x_B = f(x_A).
    ``legs[j]`` maps the limit into space j (the coordinate projection
    onto slot j); the legs commute with every arrow of the diagram.
    """
    dims, p = D.spaces, D.p
    off = _offsets(dims)
    rows = sum(dims[t] for (_, t, _) in D.arrows)
    C = np.zeros((rows, off[-1]), dtype=np.int64)
    r = 0
    for (s, t, M) in D.arrows:
        dt, ds = dims[t], dims[s]
        C[r:r + dt, off[t]:off[t] + dt] += np.eye(dt, dtype=np.int64)
        C[r:r + dt, off[s]:off[s] + ds] -= M.data
        r += dt
    C %= p
    K = _kernel_array(C, p)
    return int(K.shape[1]), tuple(Matrix(p, K[off[j]:off[j] + dims[j], :])
                                  for j in range(len(dims)))


def diagram_colimit(D: FiniteDiagram) -> tuple[int, tuple[Matrix, ...]]:
    """Colimit of a finite diagram with its legs.

    The colimit is the quotient of the direct sum by the span of one block
    of relations per arrow f: A -> B, one column per generator e of A,
    namely inj_A(e) - inj_B(f(e)).  ``legs[j]`` maps space j into the
    colimit (the projection of the direct sum, restricted to slot j); the
    legs commute with every arrow of the diagram.
    """
    dims, p = D.spaces, D.p
    off = _offsets(dims)
    cols = sum(dims[s] for (s, _, _) in D.arrows)
    R = np.zeros((off[-1], cols), dtype=np.int64)
    c = 0
    for (s, t, M) in D.arrows:
        dt, ds = dims[t], dims[s]
        R[off[s]:off[s] + ds, c:c + ds] += np.eye(ds, dtype=np.int64)
        R[off[t]:off[t] + dt, c:c + ds] -= M.data
        c += ds
    R %= p
    P = _cokernel_array(R, p)
    return int(P.shape[0]), tuple(Matrix(p, P[:, off[j]:off[j] + dims[j]])
                                  for j in range(len(dims)))


def _extend(S: np.ndarray, db: int, forward: bool, M: np.ndarray, p: int) -> np.ndarray:
    """Sections over b..d+1 from a basis ``S`` of the (x_b, x_d) over b..d."""
    top, bot = S[:db], S[db:]
    if forward:
        R, pivots = _rref((np.vstack([top, M @ bot]) % p).T, p)
        return R[:len(pivots)].T
    K = _kernel_array(np.hstack([bot, -M]), p)  # pairs (c, x_{d+1}) with X_d c = M x_{d+1}
    k = S.shape[1]
    return np.vstack([top @ K[:k] % p, K[k:]])


def segment_ranks(p: int, dims: Sequence[int], forward: Sequence[bool],
                  maps: Sequence[np.ndarray]) -> dict[tuple[int, int], int]:
    """Nonzero ranks of the limit-to-colimit map of every slice b..d of a zigzag.

    Positions are 0-based; ``maps[i]`` goes from position i to i+1 when
    ``forward[i]``, else back.  For each birth b one sweep to the right
    carries a basis of the pairs (x_b, x_d) that extend to a section over
    b..d: a forward arrow f sends it to (x_b, f x_d), and a backward arrow
    g to the (x_b, y) with g y = x_d, a kernel that keeps the basis
    independent.  The x_b block spans the image of the limit leg at b.
    The same sweep over the dual zigzag (maps transposed, arrows reversed)
    spans the annihilator of the kernel of the colimit leg at b, because
    colim(D)* = lim(D*); the rank of their pairing is rk(b, d).  It never
    grows with d, so a sweep stops at the first zero.
    """
    sides = ((forward, maps), ([not f for f in forward], [M.T for M in maps]))
    out: dict[tuple[int, int], int] = {}
    for b, db in enumerate(dims):
        X = Y = np.vstack([np.eye(db, dtype=np.int64)] * 2)
        for d in range(b, len(dims)):
            if d > b:
                X, Y = (_extend(S, db, fwd[d - 1], ms[d - 1], p)
                        for S, (fwd, ms) in zip((X, Y), sides))
            r = len(_rref(Y[:db].T @ X[:db], p)[1])
            if r == 0:
                break
            out[(b, d)] = r
    return out
