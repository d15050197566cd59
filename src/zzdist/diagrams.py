"""Decomposition into diagrams, and the symbolic side of reflections.

A persistence diagram (``PersistenceDiagram``, defined in
``zigzag_core`` beside the relations that read it) is the multiset of
interval supports in a module's decomposition into interval summands.
``decompose`` reads it off a concrete module in one pass from left to
right, one elimination per arrow (the right filtration of Carlsson and
de Silva, 2010), and ``synthesize`` builds one from intervals read by
``PersistenceDiagram``.
``_reflect`` moves (dirs, counts) tuples through a reflection without
matrices, by a closed-form rule for where each interval goes; ``act``
applies it to a module, and ``_state`` makes the search states that the
reflection search and ``annihilating_sequence`` move through.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Iterable

from .linalg import (DEFAULT_PRIME, Matrix, _check_prime, _combine, _echelon, _Record,
                     _transpose, _typed, _unit)
from .reflections import COLIMIT, LIMIT, ReflectionOp, ReflectionSequence, check_applicable
from .zigzag_core import (BACKWARD, FORWARD, Orientation, PersistenceDiagram, ZigzagModule,
                          _canonical_dirs, _ends, _turn)


class SymbolicModule(_Record):
    """A module up to isomorphism: an orientation plus its diagram."""

    tau: Orientation
    diagram: PersistenceDiagram

    def __init__(self, tau: Orientation, diagram: PersistenceDiagram) -> None:
        n, m = _typed(tau, Orientation, "tau").n, _typed(diagram, PersistenceDiagram, "diagram").n
        if n != m:
            raise ValueError(f"length mismatch: type has {n} positions, diagram has {m}")
        self._set(tau=tau, diagram=diagram)

    @property
    def n(self) -> int:
        return self.tau.n


def decompose(V: ZigzagModule) -> PersistenceDiagram:
    """The multiset of interval supports in V's interval decomposition.

    One pass from left to right, with one ``_echelon`` per arrow, reads
    the intervals off the right filtration (Carlsson and de Silva,
    "Zigzag persistence", 2010).  At position k the pass carries a basis
    v_1 ... v_m of V_k, each vector tagged with its birth and ordered so
    that every prefix spans a canonical subspace: the span of the
    generators of the intervals with those births, in any interval
    decomposition.

    A forward arrow f: V_k -> V_{k+1} inserts only the images f v_1 ...
    f v_m.  Where f v_i depends on the images before it, [tag_i, k]
    ends; the others keep their tags and their order.  The unit vectors
    at the positions where no row has its pivot complete them to a basis
    of V_{k+1} and follow them, born at k+1.

    A backward arrow g: V_{k+1} -> V_k inserts g's columns, column j
    with the companion -e_j, then v_1 ... v_m with zero companions, so
    that every vector is a combination of the v_i less g times its
    companion.  A dependent column gives a vector of ker g, born at k+1
    and placed first.  A dependent v_i gives a y with g y in v_i +
    span(v_1 ... v_{i-1}), which keeps tag_i, in order of i; where v_i
    is a row, [tag_i, k] ends.

    At n every vector left gives [tag, n].  A step out of or into a zero
    space needs no elimination: all of V_k ends and all of V_{k+1} is
    born.  The ended copies are counted once, at the end.  A wrong
    covering cannot occur for honest inputs; it raises at once and names
    the module.
    """
    # ended: (b, d) once for each copy of [b, d]; basis, tags: V_k's vectors and births
    p, ended, basis, tags = _typed(V, ZigzagModule, "V").p, [], [], []
    for k, D in enumerate(V.dims):  # D = dim V_{k+1}, positions and tags 1-based
        m = len(basis)
        if not (m and D):
            ended += [(t, k) for t in tags]
            basis, tags = [_unit(i, D) for i in range(D)], [k + 1] * D
        elif V.tau.dirs[k - 1] == FORWARD:
            cols = _transpose(V.maps[k - 1].data, m)
            images = [_combine(v, cols, D) for v in basis]
            pivots, dead = _echelon([(f, ()) for f in images], p)
            basis = [[x % p for x in f] for i, f in enumerate(images) if i not in dead]
            if dead:
                ended += [(tags[i], k) for i in dead]
                tags = [t for i, t in enumerate(tags) if i not in dead]
            born = sorted(set(range(D)).difference(pivots)) if len(pivots) < D else ()
            basis += [_unit(c, D) for c in born]
            tags += [k + 1] * len(born)
        else:
            g, zero = _transpose(V.maps[k - 1].data, D), [0] * D
            _, y = _echelon([*zip(g, (_unit(j, D, -1) for j in range(D))),
                             *((v, zero) for v in basis)], p)
            ker = bisect_left(list(y), D)  # the keys ascend, so ker g comes first
            if len(y) - ker < m:
                kept = [i - D for i in y if i >= D]
                ended += [(tags[i], k) for i in set(range(m)).difference(kept)]
                tags = [tags[i] for i in kept]
            basis, tags = list(y.values()), [k + 1] * ker + tags
    ended += [(t, V.n) for t in tags]
    diagram = PersistenceDiagram.from_counts(V.n, [(*bd, m) for bd, m in Counter(ended).items()])
    for i, (covering, dim) in enumerate(zip(diagram.dims(), V.dims), 1):
        if covering != dim:
            raise AssertionError(f"decomposition covers dimension {covering} at position {i}, "
                                 f"module has {dim} (type {V.tau.to_string()!r}, "
                                 f"dims {list(V.dims)}, p={V.p})")
    return diagram


def synthesize(tau: Orientation, points: Iterable[tuple[int, int]],
               p: int = DEFAULT_PRIME) -> ZigzagModule:
    """Direct sum of interval modules, one per (birth, death) point, read
    as ``PersistenceDiagram`` reads them: the inverse of ``decompose``.

    Equal to folding ``direct_sum`` over the points in sorted order; built
    directly so each summand occupies one fixed coordinate per position.
    """
    n, p = _typed(tau, Orientation, "tau").n, _check_prime(p)
    pts = PersistenceDiagram(n, points).points
    covers = [[j for j, (b, d) in enumerate(pts) if b <= i <= d] for i in range(1, n + 1)]
    dims = tuple(len(c) for c in covers)
    maps = []
    for i in range(n - 1):
        s, t = _ends(tau.dirs, i)
        # summand j sits at column k of the source and row r of the target
        column = {j: k for k, j in enumerate(covers[s])}
        rows = [[0] * dims[s] for _ in covers[t]]
        for r, j in enumerate(covers[t]):
            if j in column:
                rows[r][column[j]] = 1
        maps.append(Matrix._trusted(p, rows, dims[s]))
    return ZigzagModule(tau, dims, tuple(maps))


def interval_module(tau: Orientation, b: int, d: int, p: int = DEFAULT_PRIME) -> ZigzagModule:
    """The interval module on positions b..d: one-dimensional there, with
    identity maps strictly inside the support, and zero elsewhere."""
    return synthesize(tau, ((b, d),), p)


def zero_module(tau: Orientation, p: int = DEFAULT_PRIME) -> ZigzagModule:
    return synthesize(tau, (), p)


def _reflect(op: ReflectionOp, dirs: tuple[str, ...], counts: tuple[tuple[int, int, int], ...]
             ) -> tuple[tuple[str, ...], tuple[tuple[int, int, int], ...]]:
    """The reflection rule on tuples, unvalidated: the directions as the
    reflection sets them, and sorted (b, d, m) counts of every image,
    one-position images included.

    This is the action of reflection functors on interval modules
    (Bernstein-Gelfand-Ponomarev).  A limit makes k a source and a
    colimit makes it a sink, so each arrow at k (the phantom
    ``boundary_dir`` arrow at an end) that points the other way is
    rebuilt.  A rebuilt left arrow lets an interval ending at k-1 grow
    to k and pushes one starting at k to k+1; a rebuilt right arrow
    mirrors this; [k, k] dies if either arrow is rebuilt.  Each distinct
    interval moves once with its multiplicity, and equal images merge.
    """
    k, n, limit = op.k, len(dirs) + 1, op.kind == LIMIT
    left_rebuilt = ((dirs[k - 2] if k >= 2 else op.boundary_dir) == FORWARD) == limit
    right_rebuilt = ((dirs[k - 1] if k < n else op.boundary_dir) == BACKWARD) == limit
    images: dict[tuple[int, int], int] = {}
    for (b, d, m) in counts:
        if b == d == k and (left_rebuilt or right_rebuilt):
            continue
        if left_rebuilt and d == k - 1:
            d = k
        elif left_rebuilt and b == k:
            b = k + 1
        elif right_rebuilt and b == k + 1:
            b = k
        elif right_rebuilt and d == k:
            d = k - 1
        images[b, d] = images.get((b, d), 0) + m
    return tuple(_turn(dirs, k, limit)), tuple(sorted([(b, d, m) for (b, d), m in images.items()]))


def _state(dirs: tuple[str, ...], counts: tuple[tuple[int, int, int], ...]
           ) -> tuple[tuple[str, ...], tuple[tuple[int, int, int], ...]]:
    """The search state of (dirs, counts): one-position intervals dropped,
    and every arrow the rest leave flippable set forward.  Searches move
    by ``_state(*_reflect(op, *state))``."""
    counts = tuple([c for c in counts if c[0] != c[1]])
    return _canonical_dirs(dirs, counts), counts


def act(op: ReflectionOp, S: SymbolicModule) -> SymbolicModule:
    """Push a symbolic module through a reflection.

    The module moves by ``_reflect``: annihilated intervals disappear,
    one-position images are sanitized away, matching how reflection runs
    are costed, and equal images merge.  The type is left as the
    reflection makes it, not normalized.
    """
    check_applicable(_typed(op, ReflectionOp, "op"), _typed(S, SymbolicModule, "S").n)
    dirs, counts = _reflect(op, S.tau.dirs, S.diagram.counts())
    return SymbolicModule(Orientation(dirs),
                          PersistenceDiagram.from_counts(S.n, [c for c in counts if c[0] != c[1]]))


def _annihilating_run(dirs: tuple[str, ...],
                      counts: tuple[tuple[int, int, int], ...]) -> tuple[ReflectionOp, ...]:
    """``annihilating_sequence`` on (dirs, counts) tuples, by ``_reflect`` and ``_state``."""
    n, run = len(dirs) + 1, []
    state = _state(dirs, counts)
    while state[1]:
        before = len(state[1])
        b, d, _ = state[1][-1]
        for j in range(d, b, -1):
            arrow = state[0][j - 1] if j < n else BACKWARD  # the phantom arrow at n is set "<"
            run.append(ReflectionOp(LIMIT if arrow == BACKWARD else COLIMIT, j,
                                    None if j < n else arrow))
            state = _state(*_reflect(run[-1], *state))
        if len(state[1]) >= before:
            raise AssertionError(f"annihilation pass on [{b}, {d}] failed to reduce the "
                                 f"interval count; type {''.join(dirs)}, counts {list(counts)}")
    return tuple(run)


def _symbolic(V: ZigzagModule | SymbolicModule) -> SymbolicModule:
    """V as a symbolic module: a concrete one is decomposed first."""
    if isinstance(_typed(V, (ZigzagModule, SymbolicModule), "V"), SymbolicModule):
        return V
    return SymbolicModule(V.tau, decompose(V))


def annihilating_sequence(V: ZigzagModule | SymbolicModule) -> ReflectionSequence:
    """A reflection run that empties the module; a concrete module is
    decomposed first, a symbolic one used as it stands.

    Repeatedly take the lexicographically largest surviving interval
    [b, d] and walk its right end down: at each j from d to b+1 apply
    the op of a fixed table, a limit if arrow j is "<", a colimit if it
    is ">", and at j = n a limit with boundary "<".  The table is exact:
    [b, j] with b < j becomes [b, j-1] exactly when the arrow right of j
    is rebuilt, which these ops do (at n, the first in ``ops_at`` order
    that does).  It reads only arrow j, which [b, j] blocks, so the run
    is the same on a search state with flippable arrows normalized.  The
    one-position remnant is sanitized away.  Each pass kills every copy
    of the chosen interval while moving others at most sideways, so the
    distinct-interval count drops and the loop ends.
    """
    S = _symbolic(V)
    return ReflectionSequence(_annihilating_run(S.tau.dirs, S.diagram.counts()))
