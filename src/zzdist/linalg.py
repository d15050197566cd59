"""Exact linear algebra over a prime field, plus limits and colimits of
finite diagrams of vector spaces.

All computation happens on plain Python integers reduced modulo a prime
``p`` (default 2), so every result is exact whatever the size of ``p`` or
of an entry.  One elimination primitive does all the work: ``_echelon``
inserts vectors into one echelon in order, each with a companion vector
carried through the same row operations, and reports each vector as a
new row or as the companion it reduced to.  Rank inserts rows; null
spaces, solves and the limit/colimit constructions below (a colimit is
the dual of a limit) insert columns with signed unit companions, and
``diagrams.decompose`` makes one call per arrow.  Every product is one
sum of rows scaled by a vector's nonzero entries (``_combine``), so its
cost follows the nonzeros.  Vectors are inserted in a fixed order and
null space vectors come in ascending free-column order, so every routine
is deterministic: identical inputs give identical outputs.

Dimensions here are desk scale: the spaces of a typical module have a
few dimensions, and a file's are bounded (``_MAX_DIM``), so plain lists
of integers serve.  Elimination costs grow as the cube of the dimension;
the comment at the bound gives timings there.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress
from operator import add, attrgetter, index
from typing import Iterable, Sequence

DEFAULT_PRIME = 2

# Keeps trial division in is_prime short (under 512 odd divisors), so every
# Matrix checks its field afresh; entries are exact integers, so the field
# size needs no other bound.
_MAX_PRIME = 1 << 20

# Bounds the dimensions a module file declares: a map out of a zero space
# is an empty list, so a file can declare a dimension no entry spells out,
# and elimination costs grow as the cube of a dimension (in-process on a
# shared 2-vCPU machine, two 256 spaces joined by a dense random GF(2) map
# decompose in 0.12 s with a ">" arrow and 0.45-0.5 s with a "<", five
# joined by identities in 0.04 s and twenty-five in 0.17-0.32 s).  The
# bound also covers what the CLI writes: `gen` and `synthesize` write no
# file that `decompose` would refuse.  Modules built in memory, whose
# limits and sums may pass it, are not bounded.
_MAX_DIM = 256


def is_prime(p: int) -> bool:
    """True when ``p``, read as ``_check_prime`` reads it, is a prime number."""
    try:
        p = p if type(p) is int else _index(p)
    except TypeError:
        raise ValueError(f"p must be an integer, got {p!r}") from None
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


def _check_prime(p) -> int:
    """``p`` read as ``_count`` reads a size, if it is a prime <= ``_MAX_PRIME``."""
    try:
        q = p if type(p) is int else _index(p)
    except TypeError:
        q = 0  # no prime
    # the bound goes first: trial division of a huge p would not finish
    if q > _MAX_PRIME or not is_prime(q):
        raise ValueError(f"field order must be a prime <= {_MAX_PRIME}, got {p!r}")
    return q


def _index(x) -> int:
    """``operator.index``, which also refuses a bool: JSON ``true`` is not 1."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a bool")
    return index(x)


def _position(k, top: int, what: str) -> int:
    """``k`` read as ``_exact_ints`` reads an entry, if it lies in
    1..``top``; else a ValueError naming ``what``."""
    try:
        i = k if type(k) is int else _index(k)
    except TypeError:
        i = 0  # out of every range
    if not 1 <= i <= top:
        raise ValueError(f"{what} {k!r} out of range 1..{top}")
    return i


def _count(x, least: int, what: str) -> int:
    """``x`` read as ``_exact_ints`` reads an entry, if it is at least
    ``least``; else a ValueError naming ``what``."""
    try:
        i = x if type(x) is int else _index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None
    if i < least:
        raise ValueError(f"{what} must be >= {least}, got {i}")
    return i


def _check_p(p: float) -> float:
    """``p`` as a float, if it is a real number >= 1 or infinity."""
    if isinstance(p, (int, float)) and not isinstance(p, bool) and p >= 1:
        try:
            return float(p)
        except OverflowError:  # an integer past the largest float
            pass
    raise ValueError(f"p must be a real number >= 1 or infinity, got {p!r}")


def _iterable(entries, what: str):
    """An iterator over the entries; a ValueError naming ``what`` if they
    are not iterable.  Every constructor reads a sequence through it."""
    try:
        return iter(entries)
    except TypeError:
        raise ValueError(f"{what} must be a sequence, got {type(entries).__name__}") from None


def _exact_ints(entries, what: str, tuples: bool = False, size: int | None = None) -> list:
    """The entries as exact integers, or as tuples of them (``size`` long if
    given) if ``tuples`` is set: 1.9 is refused rather than truncated to 1,
    and the ValueError names the first offending entry.

    One type pass, run in C, accepts the plain ints, and for tuples one
    length pass their sizes; only what fails them goes through the loop
    that names the first bad entry and reads the rest with ``_index``, so
    an int subclass such as an IntEnum is read as its plain int and a bool
    is refused.  The entries are read once, so a generator may be given."""
    entries = _iterable(entries, what)
    if not tuples:
        out = list(entries)
        if not set(map(type, out)) <= {int}:
            for i, e in enumerate(out):
                try:
                    out[i] = _index(e)
                except TypeError:
                    raise ValueError(f"entry {i} {e!r}: {what} must be integers") from None
        return out
    rows = list(entries)
    out = []
    try:  # stops at an entry that is not iterable, keeping the tuples made before it
        out.extend(map(tuple, rows))
    except TypeError:
        pass
    if (len(out) == len(rows) and set(map(type, chain.from_iterable(out))) <= {int}
            and (size is None or set(map(len, out)) <= {size})):
        return out
    for i, e in enumerate(rows):
        try:
            if i == len(out):  # tuple() refused this entry in the pass above
                raise TypeError
            if not set(map(type, out[i])) <= {int}:
                out[i] = tuple(map(_index, out[i]))
        except TypeError:
            raise ValueError(f"entry {i} {e!r}: {what} must be integers") from None
        if size is not None and len(out[i]) != size:
            raise ValueError(f"entry {i} {e!r}: {what} must be {size} integers")
    return out


def _residues(entries, p: int, what: str) -> list[int]:
    """The entries, checked once as ``_exact_ints`` checks them, reduced
    mod a prime ``p`` that the caller has checked: rows cut from them may
    go to ``Matrix._trusted``."""
    return [x % p for x in _exact_ints(entries, what)]


def _dims(entries, what: str, top: int | None = None) -> list[int]:
    """The entries as dimensions: exact integers >= 0, and <= ``top`` if
    given; the ValueError names the first offending entry."""
    out = _exact_ints(entries, what)
    for i, d in enumerate(out):
        if d < 0 or top is not None and d > top:
            span = "nonnegative integers" if top is None else f"integers from 0 to {top}"
            raise ValueError(f"entry {i} {d}: {what} must be {span}")
    return out


def _combine(coeffs: Sequence[int], rows: Sequence[Sequence[int]], width: int) -> list[int]:
    """The sum of ``rows[i]`` scaled by ``coeffs[i]``, ``width`` integers
    left unreduced; rows whose coefficient is zero are skipped, so the
    cost follows the nonzero coefficients."""
    out = [0] * width
    for c, row in compress(zip(coeffs, rows), coeffs):
        out = list(map(add, out, row)) if c == 1 else [o + c * x for o, x in zip(out, row)]
    return out


def _transpose(rows: Sequence[Sequence[int]], cols: int) -> list:
    """Rows of the transpose of a ``len(rows)`` x ``cols`` matrix."""
    return list(zip(*rows)) if rows else [()] * cols


class _Record:
    """Base of the immutable records.  A subclass annotates its fields in
    order, which become its ``__match_args__``; its ``__init__`` checks the
    values and stores them with ``_set``.  Records of one class with equal
    fields are equal and hash equal, print as ``Name(field=value!r, ...)``
    and refuse assignment and deletion.  Fields live in the instance
    ``__dict__``, so copies and pickles need no hooks."""

    def __init_subclass__(cls) -> None:
        # a subclass that annotates nothing keeps its parent's fields
        cls.__match_args__ = names = tuple(cls.__annotations__) or cls.__match_args__
        # the field tuple, read in C; attrgetter gives a bare value for one name
        get = attrgetter(*names)
        cls._fields = staticmethod(get if len(names) > 1 else lambda r: (get(r),))

    def _set(self, **fields) -> None:
        # the call builds one dict, set in one step: faster than a setattr per
        # field and, unlike filling the instance's own __dict__, it keeps
        # attribute reads fast on CPython 3.11
        object.__setattr__(self, "__dict__", fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        body = ", ".join(map("{}={!r}".format, self.__match_args__, self._fields(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _typed(value, cls: type | tuple[type, ...], what: str):
    """``value`` if it is a ``cls`` (or one of a tuple), else a ValueError naming ``what``."""
    if not isinstance(value, cls):
        names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise ValueError(f"{what} is {type(value).__name__}, expected {names}")
    return value


def _map(M, p: int, shape: tuple[int, int], what: str) -> "Matrix":
    """``M`` if it is a Matrix over GF(``p``) of this shape, else a
    ValueError naming ``what``."""
    if _typed(M, Matrix, what).p != p:
        raise ValueError(f"{what} is over GF({M.p}), expected GF({p})")
    if M.shape != shape:
        raise ValueError(f"{what} has shape {M.shape}, expected {shape}")
    return M


def _matrices(mats, what: str) -> list["Matrix"]:
    """The entries of ``mats`` as a list of matrices over one field; a
    ValueError naming ``what`` if they are no sequence, and naming the
    first entry that is no Matrix or is over another field."""
    mats = list(_iterable(mats, what))
    for i, M in enumerate(mats):
        if _typed(M, Matrix, f"entry {i} of {what}").p != mats[0].p:
            raise ValueError(f"field mismatch: GF({mats[0].p}) vs GF({M.p})")
    return mats


class Matrix(_Record):
    """Immutable dense matrix over GF(p).

    ``data`` is a tuple of row tuples, each holding ``cols`` integers in
    ``[0, p)``; the constructor reduces whatever integers it is given.
    ``cols`` is stored because a matrix with no rows cannot show its
    width.  Either dimension may be zero; empty matrices show up
    constantly as maps in and out of zero spaces and every routine in this
    module accepts them.
    """

    p: int
    data: tuple[tuple[int, ...], ...]
    cols: int

    def __init__(self, p: int, data: Sequence[Sequence[int]], cols: int) -> None:
        p = _check_prime(p)
        cols = _count(cols, 0, "matrix width")
        data = tuple(tuple([x % p for x in row])
                     for row in _exact_ints(data, "matrix row entries", True))
        if any(len(row) != cols for row in data):
            raise ValueError(f"every row must have {cols} entries, "
                             f"got lengths {[len(row) for row in data]}")
        self._set(p=p, data=data, cols=cols)

    @classmethod
    def _trusted(cls, p: int, rows: Sequence[Sequence[int]], cols: int) -> "Matrix":
        """A matrix over a checked prime p of ``cols``-wide rows whose
        entries are already exact integers in [0, p): rows taken from
        matrices over GF(p), or cut from ``_residues``.  No check is rerun."""
        M = object.__new__(cls)
        M._set(p=p, data=tuple(map(tuple, rows)), cols=cols)
        return M

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], p: int = DEFAULT_PRIME,
                  cols: int | None = None) -> "Matrix":
        """Build a matrix from a list of rows.

        ``cols`` disambiguates the width when ``rows`` is empty.
        """
        rows = _exact_ints(rows, "matrix row entries", True)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(p, rows, cols)

    @classmethod
    def zero(cls, rows: int, cols: int, p: int = DEFAULT_PRIME) -> "Matrix":
        rows, cols = _count(rows, 0, "matrix height"), _count(cols, 0, "matrix width")
        return cls(p, ((0,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, n: int, p: int = DEFAULT_PRIME) -> "Matrix":
        n = _count(n, 0, "matrix size")
        return cls(p, [[int(i == j) for j in range(n)] for i in range(n)], n)

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def entries(self) -> tuple[int, ...]:
        """Row-major flat tuple of entries."""
        return tuple(chain.from_iterable(self.data))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.p, _transpose(self.data, self.cols), self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _matrices((self, other), "a product")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch for product: {self.shape} @ {other.shape}")
        return Matrix(self.p, [_combine(row, other.data, other.cols) for row in self.data],
                      other.cols)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    """Block-diagonal sum of two matrices over the same field."""
    a, b = _matrices((a, b), "a block sum")
    right, left = (0,) * b.cols, (0,) * a.cols
    return Matrix._trusted(a.p, [row + right for row in a.data] + [left + row for row in b.data],
                           a.cols + b.cols)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    """Stack matrices vertically; all must share a field and column count."""
    mats = _matrices(mats, "a stack")
    if len(mats) == 0:
        raise ValueError("stacking needs at least one matrix")
    first = mats[0]
    for m in mats[1:]:
        if m.cols != first.cols:
            raise ValueError(f"stacked matrices disagree along the join: {first.cols} vs {m.cols}")
    return Matrix._trusted(first.p, [row for m in mats for row in m.data], first.cols)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    """Stack matrices horizontally; all must share a field and row count."""
    return vstack([m.transpose() for m in _matrices(mats, "a stack")]).transpose()


def _unit(i: int, size: int, x: int = 1) -> list[int]:
    """x times the i-th unit vector of length ``size``."""
    return [0] * i + [x] + [0] * (size - i - 1)


def _echelon(pairs: Iterable[tuple[Sequence[int], Sequence[int]]],
             p: int) -> tuple[list[int], dict[int, list[int]]]:
    """Insert vectors into one echelon mod ``p`` in order, each carrying a
    companion vector through the same row operations.

    Vector i is reduced, left to right, by the rows already made.  If a
    nonzero entry is left, the first one is its pivot, which no other row
    has, and it becomes a row; otherwise it depends on the vectors before
    it, and ``reduced[i]`` is its companion reduced with it.  Row
    operations are linear, so a relation v = L c that every vector keeps
    with its companion holds for the rows, and a dependent vector's gives
    L c = 0.  Returns the rows' pivots in the order they were made, and
    ``reduced``, whose keys ascend.  Entries may be any integers; those
    returned lie in [0, p).
    """
    rows: dict[int, list[int]] = {}  # pivot -> [row | companion], -1 mod p at the pivot
    reduced: dict[int, list[int]] = {}
    for i, (v, c) in enumerate(pairs):
        w, v, fresh = len(v), [*v, *c], True
        for col in range(w):
            f = v[col] % p
            if not f:
                continue
            row = rows.get(col)
            if row is None:
                # a vector no row changed, -1 at its pivot, is kept as it came
                if f != p - 1 or not fresh:
                    s = -pow(f, -1, p)
                    v = [x * s % p for x in v]
                rows[col] = v
                break
            v = list(map(add, v, row)) if f == 1 else [x + f * y for x, y in zip(v, row)]
            fresh = False
        else:
            reduced[i] = [x % p for x in v[w:]]
    return list(rows), reduced


def _kernel(a: Sequence[Sequence[int]], cols: int, p: int) -> list[list[int]]:
    """A basis of the right null space of the rows ``a`` (of width
    ``cols``) mod ``p``, one vector per free column in ascending order.

    Column j, inserted with the companion e_j, is free when it depends on
    the columns before it; its kernel vector is then the one that is 1 at
    j and 0 at every other free column."""
    units = (_unit(j, cols) for j in range(cols))
    return list(_echelon(zip(_transpose(a, cols), units), p)[1].values())


def rank(M: Matrix) -> int:
    M = _typed(M, Matrix, "M")
    return len(_echelon(((row, ()) for row in M.data), M.p)[0])


def solve(A: Matrix, B: Matrix) -> Matrix | None:
    """An exact solution X of A @ X == B, or None when none exists.

    One echelon of A's columns, column j with companion -e_j, then B's
    columns with zero companions, so each vector is a B column less A
    times its companion.  Column j of B reduces to zero exactly when it
    lies in A's column space, and its companion is then the one solution
    supported on the pivot columns: free variables are zero, and the
    answer is deterministic, the unique one when A has full column rank.
    """
    A, B = _matrices((A, B), "a solve")
    if A.rows != B.rows:
        raise ValueError(f"shape mismatch for solve: {A.shape} vs {B.shape}")
    n, zero = A.cols, [0] * A.cols
    _, reduced = _echelon([*zip(_transpose(A.data, n), (_unit(j, n, -1) for j in range(n))),
                           *((b, zero) for b in _transpose(B.data, B.cols))], A.p)
    X = [reduced.get(n + j) for j in range(B.cols)]
    if None in X:
        return None
    return Matrix._trusted(A.p, _transpose(X, n), B.cols)


def is_invertible(M: Matrix) -> bool:
    return _typed(M, Matrix, "M").is_square() and rank(M) == M.rows


def inverse(M: Matrix) -> Matrix:
    if not _typed(M, Matrix, "M").is_square():
        raise ValueError(f"only square matrices can be inverted, got {M.shape}")
    X = solve(M, Matrix.identity(M.rows, M.p))
    if X is None:
        raise ValueError("matrix is not invertible")
    return X


class FiniteDiagram(_Record):
    """A finite diagram of GF(p) vector spaces.

    ``spaces[i]`` is the dimension of the i-th space; each arrow
    ``(src, tgt, M)`` is a linear map from space ``src`` to space ``tgt``,
    so ``M`` has shape ``(spaces[tgt], spaces[src])``.
    """

    p: int
    spaces: tuple[int, ...]
    arrows: tuple[tuple[int, int, Matrix], ...]

    def __init__(self, p: int, spaces: Sequence[int],
                 arrows: Iterable[tuple[int, int, Matrix]]) -> None:
        p = _check_prime(p)
        spaces = tuple(_dims(spaces, "space dimensions"))
        arrows = tuple(arrows)
        ends = _exact_ints(((s, t) for (s, t, _) in arrows), "arrow endpoints", True)
        arrows = tuple((s, t, M) for (s, t), (_, _, M) in zip(ends, arrows))
        for idx, (s, t, M) in enumerate(arrows):
            if not (0 <= s < len(spaces)) or not (0 <= t < len(spaces)):
                raise ValueError(f"arrow {idx} endpoints ({s}, {t}) out of range")
            _map(M, p, (spaces[t], spaces[s]), f"arrow {idx}")
        self._set(p=p, spaces=spaces, arrows=arrows)


def diagram_limit(D: FiniteDiagram) -> tuple[int, tuple[Matrix, ...]]:
    """Limit of a finite diagram with its legs.

    The limit is the subspace of the direct sum of all spaces cut out by
    one block of constraints per arrow f: A -> B, namely x_B = f(x_A).
    ``legs[j]`` maps the limit into space j (the coordinate projection
    onto slot j); the legs commute with every arrow of the diagram.
    """
    dims, p = _typed(D, FiniteDiagram, "D").spaces, D.p
    off = [0, *accumulate(dims)]
    constraints = []
    for (s, t, M) in D.arrows:
        for i, row in enumerate(M.data):
            c = [0] * off[-1]
            c[off[s]:off[s + 1]] = [-x for x in row]
            c[off[t] + i] += 1
            constraints.append(c)
    basis = _kernel(constraints, off[-1], p)
    return len(basis), tuple(Matrix(p, [[v[q] for v in basis] for q in range(off[j], off[j + 1])],
                                    len(basis))
                             for j in range(len(dims)))


def diagram_colimit(D: FiniteDiagram) -> tuple[int, tuple[Matrix, ...]]:
    """Colimit of a finite diagram with its legs.

    Built as a dual limit, colim(D)* = lim(D*): D* reverses every arrow
    and transposes its matrix, and the transposed legs of its limit are
    the colimit's.  ``legs[j]`` maps space j into the colimit; the legs
    commute with every arrow of the diagram.  The result is the quotient
    of the direct sum by one relation inj_A(e) - inj_B(f(e)) per arrow
    f: A -> B and generator e of A, whose relation matrix is the
    transpose of D*'s constraint matrix.
    """
    D = _typed(D, FiniteDiagram, "D")
    dual = FiniteDiagram(D.p, D.spaces, tuple((t, s, M.transpose()) for (s, t, M) in D.arrows))
    dim, legs = diagram_limit(dual)
    return dim, tuple(leg.transpose() for leg in legs)
