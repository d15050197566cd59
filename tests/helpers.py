"""Shared generators and independent oracles for the test suite.

Everything here is deliberately naive or retired: oracles recompute
answers by enumeration, first-principles formulas or an algorithm the
library no longer runs, so that library results are checked against a
second, unrelated route.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
import os
import random
from pathlib import Path
from typing import Sequence

import zzdist

from zzdist import (BACKWARD, EXTROVERSION, FORWARD, INTROVERSION, LIMIT,
                    FiniteDiagram, Matrix, Orientation, PersistenceDiagram, ReflectionOp,
                    ReflectionSequence, SymbolicModule, ZigzagModule, act, all_ops,
                    canonical_type, check_applicable, decompose, diagram_colimit,
                    diagram_limit, is_invertible, is_summand_upto_equiv, ops_at, rank,
                    synthesize, transform_type)
from zzdist import bottleneck
from zzdist.bottleneck import _grouped, _penalties, _point_dist
from zzdist.diagrams import _reflect, _state
from zzdist.linalg import _combine, _kernel, _transpose
from zzdist.zigzag_core import _embeds


def subprocess_env() -> dict:
    """The environment for a Python subprocess that imports this checkout."""
    src = str(Path(zzdist.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def random_dirs(rng: random.Random, n: int) -> tuple[str, ...]:
    return tuple(rng.choice((FORWARD, BACKWARD)) for _ in range(n - 1))


def random_orientation(rng: random.Random, n: int) -> Orientation:
    return Orientation(random_dirs(rng, n))


def random_points(rng: random.Random, n: int, max_points: int) -> tuple[tuple[int, int], ...]:
    pts = []
    for _ in range(rng.randint(0, max_points)):
        b = rng.randint(1, n)
        pts.append((b, rng.randint(b, n)))
    return tuple(pts)


def random_diagram(rng: random.Random, n: int, max_points: int) -> PersistenceDiagram:
    return PersistenceDiagram(n, random_points(rng, n, max_points))


def random_counted(rng: random.Random, n: int, max_distinct: int,
                   max_mult: int) -> PersistenceDiagram:
    """Up to ``max_distinct`` distinct intervals, each with a multiplicity
    drawn from 1..``max_mult``."""
    pool = all_intervals(n)
    chosen = rng.sample(pool, rng.randint(0, min(max_distinct, len(pool))))
    return PersistenceDiagram.from_counts(n, [(b, d, rng.randint(1, max_mult))
                                              for (b, d) in chosen])


def random_symbolic(rng: random.Random, n: int, max_points: int) -> SymbolicModule:
    return SymbolicModule(random_orientation(rng, n), random_diagram(rng, n, max_points))


def interval_image(op: ReflectionOp, tau: Orientation, b: int, d: int) -> tuple[int, int] | None:
    """Where a reflection sends the interval [b, d] by ``_reflect``, or
    None if it dies; a one-position image is returned, not dropped."""
    check_applicable(op, tau.n)
    if not 1 <= b <= d <= tau.n:
        raise ValueError(f"interval [{b}, {d}] out of range 1..{tau.n}")
    image = _reflect(op, tau.dirs, ((b, d, 1),))[1]
    return image[0][:2] if image else None


def expanded_act(op, S: SymbolicModule) -> SymbolicModule:
    """``act`` one copy at a time: every entry of the expanded ``points``
    moves by ``interval_image``, and the diagram is rebuilt from the
    surviving images, so colliding images meet as separate copies."""
    check_applicable(op, S.n)
    new_tau = transform_type(S.tau, EXTROVERSION if op.kind == LIMIT else INTROVERSION, op.k)
    images = (interval_image(op, S.tau, b, d) for (b, d) in S.diagram.points)
    pts = tuple(img for img in images if img is not None and img[0] != img[1])
    return SymbolicModule(new_tau, PersistenceDiagram(S.n, pts))


def trial_annihilating_sequence(V) -> ReflectionSequence:
    """``annihilating_sequence`` by trial: at each position j the ops of
    ``ops_at(n, j)`` are tried in order through ``interval_image`` until
    one shortens [b, j] to [b, j-1], and the whole module moves by the
    public ``act``, with no normalization."""
    diagram = V.diagram if isinstance(V, SymbolicModule) else decompose(V)
    state = SymbolicModule(V.tau, diagram.remove_simple())
    chosen = []
    while state.diagram.counts():
        before = len(state.diagram.counts())
        b, d, _ = state.diagram.counts()[-1]
        for j in range(d, b, -1):
            op = next(op for op in ops_at(V.n, j)
                      if interval_image(op, state.tau, b, j) == (b, j - 1))
            chosen.append(op)
            state = act(op, state)
        assert len(state.diagram.counts()) < before, "a pass must kill an interval"
    return ReflectionSequence(tuple(chosen))


def _rref(a: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of the rows ``a`` mod ``p``.

    Columns are eliminated left to right, so the first c columns are
    reduced as they would be on their own; ``solve`` relies on this.
    Returns the reduced rows and the pivot column indices in order.
    """
    R = [[x % p for x in row] for row in a]
    pivots: list[int] = []
    for c in range(len(R[0]) if R else 0):
        r = len(pivots)
        if r == len(R):
            break
        i = next((i for i in range(r, len(R)) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        v = R[r][c]
        if v != 1:
            inv = pow(v, -1, p)
            R[r] = [x * inv % p for x in R[r]]
        pivot_row = R[r]
        for j, row in enumerate(R):
            f = row[c]
            if f and j != r:
                R[j] = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        pivots.append(c)
    return R, pivots


def rref_kernel(a: Sequence[Sequence[int]], cols: int, p: int) -> list[list[int]]:
    """``linalg._kernel`` as it was computed from a full ``_rref``."""
    R, pivots = _rref(a, p)
    free = sorted(set(range(cols)).difference(pivots))
    basis = []
    for f in free:
        v = [0] * cols
        v[f] = 1
        for row, pc in zip(R, pivots):
            v[pc] = -row[f] % p
        basis.append(v)
    return basis


def rref_rank(M: Matrix) -> int:
    """``linalg.rank`` as it was computed from a full ``_rref``."""
    return len(_rref(M.data, M.p)[1])


def rref_solve(A: Matrix, B: Matrix) -> Matrix | None:
    """``linalg.solve`` as it was computed from one ``_rref`` of [A | B]:
    a pivot past A's columns is in a row zero on A, and no X exists."""
    n = A.cols
    R, pivots = _rref([a + b for a, b in zip(A.data, B.data)], A.p)
    if pivots and pivots[-1] >= n:
        return None
    X = [(0,) * B.cols] * n
    for row, pc in zip(R, pivots):
        X[pc] = row[n:]
    return Matrix(A.p, X, B.cols)


def kernel_basis(M: Matrix) -> Matrix:
    """Matrix whose columns are a deterministic basis of ker(M)."""
    basis = _kernel(M.data, M.cols, M.p)
    return Matrix(M.p, _transpose(basis, M.cols), len(basis))


def cokernel(M: Matrix) -> tuple[int, Matrix]:
    """Dimension of coker(M) together with the projection onto it.

    The projection's rows are a basis of the left null space of M: it has
    full row rank and satisfies proj @ M == 0.
    """
    basis = _kernel(_transpose(M.data, M.cols), M.rows, M.p)
    return len(basis), Matrix(M.p, basis, M.rows)


def iso_positions(V: ZigzagModule) -> frozenset[int]:
    """Arrow indices whose structure maps are isomorphisms."""
    return frozenset(k for k in range(1, V.n) if is_invertible(V.maps[k - 1]))


def random_matrix(rng: random.Random, rows: int, cols: int, p: int) -> Matrix:
    return Matrix.from_rows(
        [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], p, cols=cols)


def random_module(rng: random.Random, n: int, max_dim: int, p: int) -> ZigzagModule:
    """Uniformly random structure maps; need not be in any normal form."""
    dirs = random_dirs(rng, n)
    dims = tuple(rng.randint(0, max_dim) for _ in range(n))
    maps = []
    for i, d in enumerate(dirs):
        rows, cols = (dims[i + 1], dims[i]) if d == FORWARD else (dims[i], dims[i + 1])
        maps.append(random_matrix(rng, rows, cols, p))
    return ZigzagModule(Orientation(dirs), dims, tuple(maps))


def synthesized_pair(rng: random.Random, n: int, max_points: int, p: int):
    """A random symbolic module together with its concrete realization."""
    S = random_symbolic(rng, n, max_points)
    return S, synthesize(S.tau, S.diagram.points, p)


def segment_rank(V: ZigzagModule, b: int, d: int) -> int:
    """Rank of the canonical limit-to-colimit map of the slice b..d.

    The slice is built as a whole ``FiniteDiagram``; its limit and colimit
    are taken from scratch and composed through the leftmost slot (any
    slot gives the same rank).  It counts the interval summands whose
    support contains all of [b, d].
    """
    arrows = []
    for i in range(b, d):
        src, tgt = (i - b, i - b + 1) if V.tau.dirs[i - 1] == FORWARD else (i - b + 1, i - b)
        arrows.append((src, tgt, V.maps[i - 1]))
    D = FiniteDiagram(V.p, V.dims[b - 1:d], tuple(arrows))
    return rank(diagram_colimit(D)[1][0] @ diagram_limit(D)[1][0])


def _inclusion_exclusion(n: int, rk: dict[tuple[int, int], int]) -> PersistenceDiagram:
    """The diagram whose slice ranks are ``rk``, keyed 1-based (b, d):
    m(b, d) = rk(b, d) - rk(b-1, d) - rk(b, d+1) + rk(b-1, d+1), with rk
    zero where it has no entry."""
    def get(b: int, d: int) -> int:
        return rk.get((b, d), 0)

    counts = []
    for b in range(1, n + 1):
        for d in range(b, n + 1):
            m = get(b, d) - get(b - 1, d) - get(b, d + 1) + get(b - 1, d + 1)
            assert m >= 0, f"negative multiplicity {m} at [{b}, {d}]"
            if m:
                counts.append((b, d, m))
    return PersistenceDiagram.from_counts(n, counts)


def segment_rank_decompose(V: ZigzagModule) -> PersistenceDiagram:
    """Interval decomposition from every slice's segment rank, one by one:
    Theta(n^2) whole-slice limits and colimits."""
    n = V.n
    return _inclusion_exclusion(n, {(b, d): segment_rank(V, b, d)
                                    for b in range(1, n + 1) for d in range(b, n + 1)})


def _advance(sweep: tuple, forward: bool, A: Sequence[Sequence[int]], width: int,
             p: int) -> tuple:
    """One step of a section sweep: ``(Lb, Ld, W)`` over b..d to b..d+1.

    ``Lb[i]``, ``Ld[i]`` are the x_b and x_d of a section, with the x_b
    independent; ``W`` spans the x_d of the sections with x_b = 0.  ``A``
    is the arrow between d and d+1 as rows of ``width`` = dim V_{d+1}
    integers, one per coordinate of x_d: the map transposed if
    ``forward``, else the map itself.
    """
    Lb, Ld, W = sweep
    if forward:
        # every section extends, so Lb stays; only W's images can collapse
        Ld = [[x % p for x in _combine(x, A, width)] for x in Ld]
        if W:
            R, pivots = _rref([_combine(w, A, width) for w in W], p)
            W = R[:len(pivots)]
        return Lb, Ld, W
    # pairs (y, c) with A y = sum_i c_i x_d^i, columns [y | c_W | c_L]; each
    # kernel vector is nonzero only at its free column and pivots left of it,
    # so those with a free column in c_L come last, and only they have c_L != 0
    cut = width + len(W)
    K = _kernel([[-x for x in row] + list(c) for row, c in zip(A, _transpose(W + Ld, len(A)))],
                cut + len(Ld), p)
    W = [v[:width] for v in K if not any(v[cut:])]
    keep = K[len(W):]
    return ([[x % p for x in _combine(v[cut:], Lb, len(Lb[0]))] for v in keep],
            [v[:width] for v in keep], W)


def segment_ranks(p: int, dims: Sequence[int], forward: Sequence[bool],
                  maps: Sequence[Matrix]) -> dict[tuple[int, int], int]:
    """Nonzero ranks of the limit-to-colimit map of every slice b..d of a zigzag.

    Positions are 0-based; ``maps[i]`` goes from position i to i+1 when
    ``forward[i]``, else back.  For each birth b one sweep to the right
    carries a basis of the pairs (x_b, x_d) that extend to a section over
    b..d, in two lists: L, sections whose x_b are independent, and W, a
    basis of the x_d of the sections with x_b = 0.  The x_b of L span L(b, d), the
    image of the limit leg at b.  The same sweep over the dual zigzag
    (maps transposed, arrows reversed) spans the annihilator of the kernel
    of the colimit leg at b, because colim(D)* = lim(D*); the rank of the
    pairing of the two L(b, d) is rk(b, d).

    At each step exactly one sweep meets a forward arrow f.  There every
    section extends, to (x_b, f x_d), so L(b, d+1) = L(b, d) and only W's
    images are row-reduced.  The other sweep meets a backward arrow g and
    takes the (x_b, y) with g y = x_d by one kernel, whose vectors split
    into the new L and W by where their free column falls (``_advance``).
    L(b, d) only shrinks as d grows, since a section over b..d+1 restricts
    to one over b..d; so a sweep whose L keeps its dimension keeps its
    span, and the pairing is re-ranked only after an L shrank: otherwise
    rk(b, d) = rk(b, d-1).  The rank never grows with d, so a sweep stops
    at the first zero.

    Two ranks need no elimination.  The slice b..b is the one space V_b,
    its own limit and colimit, so rk(b, b) = dims[b].  The limit-to-colimit
    map of b..d factors through every space of the slice, so rk(b, d) <=
    dims[d], and a sweep also stops at the first space of dimension 0.

    Both sweeps read the arrow between d and d+1 through one matrix with a
    row per coordinate of V_d, a forward map of V transposed and a
    backward one as it is: the dual reverses the arrow and transposes the
    map, so where V steps forward the dual steps backward through the same
    matrix, and the other way round.
    """
    rows_at = [_transpose(M.data, M.cols) if f else M.data for f, M in zip(forward, maps)]
    out: dict[tuple[int, int], int] = {}
    for b, db in enumerate(dims):
        if db == 0:
            continue
        out[(b, b)] = r = db
        unit = [[int(i == j) for j in range(db)] for i in range(db)]
        X = Y = (unit, unit, [])
        for d in range(b + 1, len(dims)):
            if dims[d] == 0:
                break
            A, fwd = rows_at[d - 1], forward[d - 1]
            before = len(X[0]), len(Y[0])
            X = _advance(X, fwd, A, dims[d], p)
            Y = _advance(Y, not fwd, A, dims[d], p)
            if (len(X[0]), len(Y[0])) != before:
                cols = _transpose(X[0], db)
                r = len(_rref([_combine(y, cols, len(X[0])) for y in Y[0]], p)[1])
            if r == 0:
                break
            out[(b, d)] = r
    return out


def section_sweep_decompose(V: ZigzagModule) -> PersistenceDiagram:
    """Interval decomposition from the slice ranks of ``segment_ranks``."""
    rk = segment_ranks(V.p, V.dims, [d == FORWARD for d in V.tau.dirs], V.maps)
    return _inclusion_exclusion(V.n, {(b + 1, d + 1): r for (b, d), r in rk.items()})


def all_dirs(n: int) -> list[tuple[str, ...]]:
    return [tuple(c) for c in itertools.product((FORWARD, BACKWARD), repeat=n - 1)]


def all_intervals(n: int) -> list[tuple[int, int]]:
    return [(b, d) for b in range(1, n + 1) for d in range(b, n + 1)]


def minor_rank(M: Matrix) -> int:
    """Rank by enumerating square minors with exact integer determinants.

    Exponential; callers keep shapes at 4x4 or below.
    """
    rows = M.tolists()
    p = M.p

    def det(sub: list[list[int]]) -> int:
        k = len(sub)
        if k == 1:
            return sub[0][0] % p
        total = 0
        for j in range(k):
            minor = [r[:j] + r[j + 1:] for r in sub[1:]]
            term = sub[0][j] * det(minor)
            total += -term if j % 2 else term
        return total % p

    for k in range(min(M.rows, M.cols), 0, -1):
        for ri in itertools.combinations(range(M.rows), k):
            for ci in itertools.combinations(range(M.cols), k):
                if det([[rows[r][c] for c in ci] for r in ri]) != 0:
                    return k
    return 0


def enumerate_limit_dim(spaces: list[int], arrows, p: int) -> int:
    """Limit dimension by checking every tuple in the product space.

    Only usable when p**sum(spaces) is tiny.
    """
    offs = [0]
    for d in spaces:
        offs.append(offs[-1] + d)
    total = offs[-1]
    count = 0
    for vec in itertools.product(range(p), repeat=total):
        ok = True
        for (src, tgt, M) in arrows:
            x = vec[offs[src]:offs[src + 1]]
            y = vec[offs[tgt]:offs[tgt + 1]]
            rows = M.tolists()
            for r in range(M.rows):
                if sum(rows[r][c] * x[c] for c in range(M.cols)) % p != y[r]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    dim = 0
    while p ** dim < count:
        dim += 1
    assert p ** dim == count
    return dim


def relations_colimit(D: FiniteDiagram) -> tuple[int, tuple[Matrix, ...]]:
    """Colimit of a finite diagram as a quotient by explicit relations.

    The direct sum of all spaces is divided by the span of one relation
    per arrow f: A -> B and generator e of A, namely inj_A(e) - inj_B(f(e));
    the cokernel projection of the relation matrix, cut into one block of
    columns per space, gives the legs.
    """
    offs = [0]
    for d in D.spaces:
        offs.append(offs[-1] + d)
    relations = []
    for (src, tgt, M) in D.arrows:
        rows = M.tolists()
        for e in range(D.spaces[src]):
            r = [0] * offs[-1]
            r[offs[src] + e] += 1
            for i in range(D.spaces[tgt]):
                r[offs[tgt] + i] -= rows[i][e]
            relations.append(r)
    dim, proj = cokernel(Matrix.from_rows(relations, D.p, cols=offs[-1]).transpose())
    rows = proj.tolists()
    return dim, tuple(Matrix.from_rows([row[offs[j]:offs[j + 1]] for row in rows], D.p,
                                       cols=D.spaces[j])
                      for j in range(len(D.spaces)))


def point_dist(x, y, p) -> float:
    db, dd = abs(x[0] - y[0]), abs(x[1] - y[1])
    if math.isinf(p):
        return float(max(db, dd))
    try:
        return float((db ** p + dd ** p) ** (1 / p))
    except OverflowError:  # large p: divide both terms by the larger one
        m = max(db, dd)
        return m * ((db / m) ** p + (dd / m) ** p) ** (1 / p)


def diagonal_penalty(x, p) -> float:
    if math.isinf(p):
        return (x[1] - x[0]) / 2
    return (x[1] - x[0]) / 2 ** (1 - 1 / p)


def brute_force_bottleneck(ps, qs, p) -> float:
    """Minimax over every complete assignment, diagonal slots included."""
    ps, qs = list(ps), list(qs)
    ns, nt = len(ps), len(qs)
    size = ns + nt
    cost = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i < ns and j < nt:
                cost[i][j] = point_dist(ps[i], qs[j], p)
            elif i < ns:
                cost[i][j] = diagonal_penalty(ps[i], p)
            elif j < nt:
                cost[i][j] = diagonal_penalty(qs[j], p)
    best = math.inf
    for perm in itertools.permutations(range(size)):
        worst = 0.0
        for i, j in enumerate(perm):
            if cost[i][j] > worst:
                worst = cost[i][j]
                if worst >= best:
                    break
        else:
            best = worst
    return best


def saturate_unit(required, neighbours):
    """Match every required left vertex into the right side, or None.

    One unit per vertex: augmenting paths searched depth-first with an
    explicit stack, a free neighbour taken before a matched one is
    displaced.
    """
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}
    for root in required:
        via: dict[int, int] = {}  # right vertex -> the left vertex that reached it
        stack, free = [root], None
        while stack and free is None:
            i = stack.pop()
            for j in neighbours[i]:
                if j in via:
                    continue
                via[j] = i
                if j not in match_right:
                    free = j
                    break
                stack.append(match_right[j])
        if free is None:
            return None
        j = free
        while j is not None:
            i = via[j]
            j_next = match_left.get(i)
            match_left[i], match_right[j] = j, i
            j = j_next
    return match_left


def expanded_bottleneck(ps, qs, p) -> float:
    """Bottleneck distance by scanning every candidate in increasing order,
    with one matching vertex per copy of a point.

    The smallest candidate at which every point too expensive to drop, on
    either side, can be matched within the candidate.
    """
    ps, qs = list(ps), list(qs)
    dist = [[point_dist(x, y, p) for y in qs] for x in ps]
    pen_s = [diagonal_penalty(x, p) for x in ps]
    pen_t = [diagonal_penalty(y, p) for y in qs]
    candidates = {0.0, *pen_s, *pen_t}
    for row in dist:
        candidates.update(row)
    for eta in sorted(candidates):
        req_s = [i for i, pen in enumerate(pen_s) if pen > eta]
        req_t = [j for j, pen in enumerate(pen_t) if pen > eta]
        allowed_s = [[j for j in range(len(qs)) if dist[i][j] <= eta] for i in range(len(ps))]
        allowed_t = [[i for i in range(len(ps)) if dist[i][j] <= eta] for j in range(len(qs))]
        if (saturate_unit(req_s, allowed_s) is not None
                and saturate_unit(req_t, allowed_t) is not None):
            return eta
    raise AssertionError("no feasible candidate; the largest penalty is always feasible")


def table_threshold(S, T, p: float) -> tuple[float, dict, dict, float, list[float]]:
    """``bottleneck._threshold`` as it was computed from the full table,
    on checked inputs and a checked p.

    Every distance between the distinct points of S and T is taken by
    ``_point_dist``, and every distance and penalty is a candidate.  The
    lower bound is the largest least cost of any point, and the candidates
    from it up to the largest penalty are bisected, the one at the bound
    first.  Flows are tested by ``bottleneck._saturate``, looked up at each
    call.  Returns eta, the flows (f, g) found at it, the lower bound and
    the sorted candidates.
    """
    (a, mult_a, _), (b, mult_b, _) = _grouped(S), _grouped(T)
    dist = [[_point_dist(x, y, p) for y in b] for x in a]
    cols = [[row[j] for row in dist] for j in range(len(b))]
    pen_a, pen_b = _penalties(a, p), _penalties(b, p)
    lower = 0.0
    for pens, mults, rows, other in ((pen_a, mult_a, dist, mult_b), (pen_b, mult_b, cols, mult_a)):
        for pen, copies, row in zip(pens, mults, rows):
            least = pen  # a copy dropped, or every copy matched within the cost
            for d, m in sorted((d, m) for d, m in zip(row, other) if d < pen):
                copies -= m
                if copies <= 0:
                    least = d
                    break
            lower = max(lower, least)
    candidates = sorted({*pen_a, *pen_b, *itertools.chain.from_iterable(dist)}) or [0.0]
    lo = bisect_left(candidates, lower)
    hi = bisect_left(candidates, max(pen_a + pen_b, default=0.0))
    flows, mid = ({}, {}), lo
    while lo < hi:
        eta = candidates[mid]
        req_a = {i: mult_a[i] for i, pen in enumerate(pen_a) if pen > eta}
        f = bottleneck._saturate(req_a, mult_b, {i: [j for j, d in enumerate(dist[i]) if d <= eta]
                                                 for i in req_a})
        req_b = {j: mult_b[j] for j, pen in enumerate(pen_b) if pen > eta}
        g = None if f is None else bottleneck._saturate(
            req_b, mult_a, {j: [i for i, d in enumerate(cols[j]) if d <= eta] for j in req_b})
        if g is None:
            lo = mid + 1
        else:
            hi, flows = mid, (f, g)
        mid = (lo + hi) // 2
    return candidates[hi], *flows, lower, candidates


def bfs_min_steps(source: SymbolicModule, target: SymbolicModule) -> int:
    """Fewest reflections carrying source into a summand of target.

    Plain breadth-first search over ``SymbolicModule`` values built by the
    public ``act`` and ``canonical_type``, with the public
    ``is_summand_upto_equiv`` tested on whole layers; nothing is memoized
    and nothing outlives the call.
    """
    def canonical(S: SymbolicModule) -> SymbolicModule:
        D = S.diagram.remove_simple()
        return SymbolicModule(canonical_type(S.tau, D.points), D)

    layer = [canonical(source)]
    seen = set(layer)
    depth = 0
    while layer:
        if any(is_summand_upto_equiv(S.tau, S.diagram, target.tau, target.diagram)
               for S in layer):
            return depth
        nxt = []
        for S in layer:
            for op in all_ops(S.n):
                T = canonical(act(op, S))
                if T not in seen:
                    seen.add(T)
                    nxt.append(T)
        layer, depth = nxt, depth + 1
    raise AssertionError("no goal reachable; the empty module always is one")


def bfs_search(source: SymbolicModule, target: SymbolicModule) -> tuple[int, ReflectionSequence]:
    """Fewest reflections carrying source into a summand of target, with
    a witness run realizing the minimum.

    Breadth-first search over the library's tuple states and reflection
    rule, with no memo: goals are tested as states are generated, so the
    first goal found lies on the shallowest layer.  The reference for the
    library's A* search.
    """
    start = _state(source.tau.dirs, source.diagram.counts())
    dirs_w, counts_w = target.tau.dirs, target.diagram.counts()
    if _embeds(*start, dirs_w, counts_w):
        return 0, ReflectionSequence(())
    parents: dict = {start: None}  # state -> (parent state, op); the start maps to None
    frontier, depth = [start], 0
    while frontier:
        depth += 1
        layer = []
        for S in frontier:
            for op in all_ops(source.n):
                T = _state(*_reflect(op, *S))
                if T in parents:
                    continue
                parents[T] = (S, op)
                if not _embeds(*T, dirs_w, counts_w):
                    layer.append(T)
                    continue
                ops = []  # the witness, read back from the goal
                while parents[T] is not None:
                    T, op = parents[T]
                    ops.append(op)
                return depth, ReflectionSequence(tuple(reversed(ops)))
        frontier = layer
    raise AssertionError("no goal reachable; the empty module always is one")


def reference_successors(state) -> tuple:
    """Each other state one reflection away, with the first op reaching it,
    by the whole rule: every op ``ops_at`` gives, at every position in
    order, moved by ``_state(*_reflect(op, *state))``; the first op to
    each state is kept and the state itself dropped.  The reference for
    ``reflection_distance._successors``, which tries only positions next
    to an interval end and edits only what the op changes."""
    n = len(state[0]) + 1
    first: dict = {}
    for k in range(1, n + 1):
        for op in ops_at(n, k):
            first.setdefault(_state(*_reflect(op, *state)), op)
    first.pop(state, None)
    return tuple((op, T) for T, op in first.items())


def stability_states() -> set:
    """Every search state the stability benchmark can reach: each length
    2..8, each type, and each diagram of at most two intervals, none of
    one position; the set is closed under reflection."""
    states = set()
    for n in range(2, 9):
        pool = [(b, d) for (b, d) in all_intervals(n) if b < d]
        for pts in [(), *((I,) for I in pool), *itertools.combinations_with_replacement(pool, 2)]:
            counts = PersistenceDiagram(n, pts).counts()
            states.update(_state(dirs, counts) for dirs in all_dirs(n))
    return states


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that every call adds one to the returned list's entry."""
    real, calls = getattr(module, name), [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
