"""Bottleneck distance between persistence diagrams.

A matching pairs up some intervals of one diagram with intervals of the
other, at most once each; its cost is the largest of the matched
distances and the penalties charged for leaving an interval unmatched.
Every achievable cost is one of finitely many candidate values, and
whether a matching within a value exists is monotone in the value, so
the distance is found exactly by binary search over the sorted
candidates (Efrat, Itai and Katz, 2001; Kerber, Morozov and Nigmetov,
2017).  Points are counted: each test is a capacitated flow on the
distinct points, whose supplies and capacities are multiplicities, and a
diagram's copies are indexed by one ``range``, so no cost grows with
them.  Augmenting paths are searched with an explicit queue, so long
paths cannot hit the recursion limit.  The table of distances between
distinct points is built once per call, with one expression chosen per
p, so at p = 1 and p = inf it makes no ``_point_dist`` call per pair;
``_point_dist`` remains for general p and for the independent check of
the realized cost.  Both entry points share one checked solve; only
``optimal_matching`` expands its counted flows into an index-level
witness, merging the two one-sided matchings (Mendelsohn and Dulmage, 1958).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter
from typing import Iterable, Sequence

from .diagrams import PersistenceDiagram
from .linalg import _dims, _exact_ints, _Record, _transpose


class Matching(_Record):
    """A partial pairing between two indexed multisets.

    ``pairs`` holds (source index, target index) entries; no index may
    repeat on either side.
    """

    n_source: int
    n_target: int
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, n_source: int, n_target: int, pairs: Iterable[tuple[int, int]]) -> None:
        n_source, n_target = _dims((n_source, n_target), "matching sizes")
        pairs = tuple(sorted(_exact_ints(pairs, "indices", True, 2)))
        seen_s: set[int] = set()
        seen_t: set[int] = set()
        for (i, j) in pairs:
            if not (0 <= i < n_source and 0 <= j < n_target):
                raise ValueError(f"pair ({i}, {j}) out of range {n_source}x{n_target}")
            if i in seen_s or j in seen_t:
                raise ValueError(f"pair ({i}, {j}) reuses a matched index")
            seen_s.add(i)
            seen_t.add(j)
        self._set(n_source=n_source, n_target=n_target, pairs=pairs)

    @property
    def coimage(self) -> frozenset[int]:
        """The matched source indices."""
        return frozenset(i for (i, _) in self.pairs)

    @property
    def image(self) -> frozenset[int]:
        """The matched target indices."""
        return frozenset(j for (_, j) in self.pairs)


def _check_p(p: float) -> float:
    if isinstance(p, (int, float)) and not isinstance(p, bool) and p >= 1:
        try:
            return float(p)
        except OverflowError:  # an integer past the largest float
            pass
    raise ValueError(f"p must be a real number >= 1 or infinity, got {p!r}")


def _checked(S, T) -> tuple:
    """S and T, each a diagram as it is or a raw sequence as a list of
    checked (b, d) tuples; every other function here takes inputs in this
    form.  Two diagrams must have one length; a raw sequence has none."""
    if isinstance(S, PersistenceDiagram) and isinstance(T, PersistenceDiagram) and S.n != T.n:
        raise ValueError(f"length mismatch: {S.n} vs {T.n}")
    checked = []
    for D in (S, T):
        if not isinstance(D, PersistenceDiagram):
            D = _exact_ints(D, "endpoints", True)
            for i, pt in enumerate(D):
                if len(pt) != 2 or pt[0] > pt[1]:
                    raise ValueError(f"entry {i} {pt!r}: an interval must be a pair (b, d) "
                                     "with b <= d")
        checked.append(D)
    return tuple(checked)


def _points(D) -> Sequence[tuple[int, int]]:
    """One entry per copy of a checked input."""
    return D.points if isinstance(D, PersistenceDiagram) else D


def _point_dist(a: tuple[int, int], b: tuple[int, int], p: float) -> float:
    db, dd = abs(a[0] - b[0]), abs(a[1] - b[1])
    if math.isinf(p):
        return float(max(db, dd))
    try:
        total = float(db ** p + dd ** p)
    except OverflowError:
        total = math.inf
    if total < math.inf:
        return total ** (1.0 / p)
    # for large p the powers overflow; scaling by the larger difference
    # keeps both terms at most 1
    m = max(db, dd)
    return m * ((db / m) ** p + (dd / m) ** p) ** (1.0 / p)


def _penalty(pt: tuple[int, int], p: float) -> float:
    # 1/p reads as 0 at infinity, so the exponent runs from 0 up to 1
    inv = 0.0 if math.isinf(p) else 1.0 / p
    return (pt[1] - pt[0]) / 2.0 ** (1.0 - inv)


def _too_far(pts: Sequence[tuple[int, int]]) -> ValueError:
    """The refusal, naming the largest interval, of an OverflowError in float work."""
    big = max(pts, key=lambda pt: max(map(abs, pt)))
    return ValueError(f"interval {big}: endpoints too far apart for floating-point distances")


def _table(a: Sequence[tuple[int, int]], b: Sequence[tuple[int, int]],
           p: float) -> tuple[list[list[float]], list[float], list[float]]:
    """The distances ``dist[i][j]`` from ``a[i]`` to ``b[j]`` and the
    penalties of ``a`` and ``b``, each equal to what ``_point_dist`` and
    ``_penalty`` give, bit for bit.

    The row expression is chosen once per call, so at p = 1 and p = inf
    there is no ``_point_dist`` call per pair.  Those rows round the
    integer differences to floats where ``_point_dist`` does: at p = 1
    each difference is rounded before the two are added, as ``db ** 1.0 +
    dd ** 1.0`` is (``float(db + dd)`` differs above 2**53), and at
    p = inf the larger one is rounded.  Every other p takes ``_point_dist``.
    """
    scale = 2.0 ** (1.0 - (0.0 if math.isinf(p) else 1.0 / p))  # as in `_penalty`
    if p == 1.0:  # float + int rounds the int as float() does
        dist = [[float(abs(xb - yb)) + abs(xd - yd) for (yb, yd) in b] for (xb, xd) in a]
    elif math.isinf(p):
        dist = [[float(db if (db := abs(xb - yb)) > (dd := abs(xd - yd)) else dd)
                 for (yb, yd) in b] for (xb, xd) in a]
    else:
        dist = [[_point_dist(x, y, p) for y in b] for x in a]
    return (dist, [(xd - xb) / scale for (xb, xd) in a],
            [(yd - yb) / scale for (yb, yd) in b])


def matching_cost(S, T, M: Matching, p: float = math.inf) -> float:
    """Largest matched distance or unmatched penalty under M; 0 if empty."""
    p = _check_p(p)
    S, T = _checked(S, T)
    return _cost(_points(S), _points(T), M, p)


def _cost(s: Sequence[tuple[int, int]], t: Sequence[tuple[int, int]], M: Matching,
          p: float) -> float:
    """``matching_cost`` on checked points and a checked p."""
    if M.n_source != len(s) or M.n_target != len(t):
        raise ValueError(f"matching is {M.n_source}x{M.n_target}, "
                         f"diagrams have {len(s)} and {len(t)} points")
    coimage, image = M.coimage, M.image
    try:
        return _largest([(s[i], t[j]) for (i, j) in M.pairs],
                        chain((x for i, x in enumerate(s) if i not in coimage),
                              (y for j, y in enumerate(t) if j not in image)), p)
    except OverflowError:
        raise _too_far([*s, *t]) from None


def _largest(pairs: Iterable[tuple[tuple[int, int], tuple[int, int]]],
             dropped: Iterable[tuple[int, int]], p: float) -> float:
    """Largest distance of a pair or penalty of a dropped point; 0 if none."""
    return max([_point_dist(x, y, p) for (x, y) in pairs]
               + [_penalty(z, p) for z in dropped], default=0.0)


def _saturate(supply: dict[int, int], capacity: Sequence[int],
              neighbours: Sequence[Sequence[int]]) -> dict[int, dict[int, int]] | None:
    """Place every unit of supply on the right side within capacity, or None.

    ``supply`` maps each required left vertex to its units, ``capacity[j]``
    is how many units right vertex j takes, and ``neighbours[i]`` lists
    the right vertices left vertex i may use.  On success returns
    ``flow[i] = {j: units}`` for every required i.  Augmenting paths are
    searched breadth-first with an explicit queue, so path length is not
    bounded by the recursion limit, and each one carries as many units as
    it can, so the number of augmentations does not grow with the
    supplies (Edmonds and Karp, 1972).  A left vertex that keeps unplaced
    units when no path is left shows a violated Hall condition.
    """
    room = list(capacity)
    flow: dict[int, dict[int, int]] = {i: {} for i in supply}
    into: list[dict[int, int]] = [{} for _ in room]  # j -> {i: units i sends to j}
    for root, need in supply.items():
        for j in neighbours[root]:  # free room first, then augmenting paths
            if not need:
                break
            units = min(need, room[j])
            if units:
                flow[root][j] = into[j][root] = units
                room[j] -= units
                need -= units
        while need:
            via_right: dict[int, int] = {}  # right vertex -> left vertex that reached it
            via_left: dict[int, int | None] = {root: None}  # left -> right vertex it frees
            queue, end = [root], None
            for i in queue:  # the queue grows while it is read
                for j in neighbours[i]:
                    if j in via_right:
                        continue
                    via_right[j] = i
                    if room[j]:
                        end = j
                        break
                    for k in into[j]:
                        if k not in via_left:
                            via_left[k] = j
                            queue.append(k)
                if end is not None:
                    break
            if end is None:
                return None
            path = []  # (left vertex, right vertex it takes, right vertex it frees)
            j = end
            while j is not None:
                i = via_right[j]
                path.append((i, j, via_left[i]))
                j = via_left[i]
            units = min(need, room[end], *(flow[i][back] for (i, _, back) in path[:-1]))
            for (i, gain, back) in path:
                flow[i][gain] = into[gain][i] = flow[i].get(gain, 0) + units
                if back is not None:
                    rest = flow[i][back] - units
                    if rest:
                        flow[i][back] = into[back][i] = rest
                    else:
                        del flow[i][back], into[back][i]
            room[end] -= units
            need -= units
    return flow


_Grouped = tuple[list[tuple[int, int]], list[int], Sequence[int]]


def _grouped(D) -> _Grouped:
    """Distinct points, their multiplicities, and the indices into
    ``_points(D)`` of every copy, point by point, for a checked input.  A
    diagram's come from ``counts()``, its copies already in that order, so
    the indices are one ``range``; a raw sequence is grouped in input order."""
    if isinstance(D, PersistenceDiagram):
        counts = D.counts()
        mult = [m for (_, _, m) in counts]
        return [(b, d) for (b, d, _) in counts], mult, range(sum(mult))
    groups: dict[tuple[int, int], list[int]] = {}
    for i, pt in enumerate(D):
        groups.setdefault(pt, []).append(i)
    return list(groups), [len(c) for c in groups.values()], list(chain(*groups.values()))


def _expand(flow: dict[int, dict[int, int]], source: _Grouped,
            target: _Grouped) -> list[tuple[int, int]]:
    """Index pairs for a counted flow between grouped points; the copies of
    each point are handed out in order."""
    (_, mult_s, order_s), (_, mult_t, order_t) = source, target
    # where each source point's copies start, and each target point's next free one
    start, free = [0, *accumulate(mult_s)], [0, *accumulate(mult_t)]
    pairs: list[tuple[int, int]] = []
    for i, row in flow.items():
        copies = iter(order_s[start[i]:start[i + 1]])
        for j, units in row.items():
            pairs.extend(zip(islice(copies, units), order_t[free[j]:free[j] + units]))
            free[j] += units
    return pairs


def combine_matchings(f: Matching, g: Matching) -> Matching:
    """Merge a matching f: S -> T with a matching g: T -> S into one
    matching S -> T that keeps the coimage of f matched and the coimage
    of g covered, using only pairs drawn from f and g.

    Start from f.  A target t of g left uncovered is taken by s = g(t),
    which frees the f-target t' of s; the walk goes on from t' while t'
    lies in the coimage of g.  Since f and g are injective the walk
    follows one path of f and g, and each source is moved at most once.
    """
    if f.n_target != g.n_source or f.n_source != g.n_target:
        raise ValueError(f"shape mismatch: f is {f.n_source}x{f.n_target}, "
                         f"g is {g.n_source}x{g.n_target}")
    match = dict(f.pairs)
    owner = {j: i for (i, j) in f.pairs}
    gmap = dict(g.pairs)
    for t in gmap:
        while t in gmap and t not in owner:
            s = gmap[t]
            freed = match.get(s)
            match[s], owner[t] = t, s
            owner.pop(freed, None)
            t = freed
    return Matching(f.n_source, f.n_target, tuple(match.items()))


def _confirm(realized: float, eta: float, p: float, A: _Grouped, B: _Grouped) -> None:
    """Raise, naming p and both inputs' counts, if a witness costs more than eta."""
    if realized > eta:
        a, b = ([(*pt, m) for pt, m in zip(pts, mult)] for (pts, mult, _) in (A, B))
        raise AssertionError(f"combined matching costs {realized}, above threshold {eta} "
                             f"(p={p}; counts {a} and {b})")


def _least_cost(copies: int, pen: float, row: Sequence[float], mult: Sequence[int]) -> float:
    """A lower bound on the cost of any matching, from one point of
    ``copies`` copies and penalty ``pen`` at distances ``row`` from points
    of multiplicities ``mult``: either a copy is dropped, at ``pen``, or
    every copy is matched, which needs points within the cost whose
    multiplicities add up to ``copies`` (Hall's condition on this one
    point).  The bound is ``pen`` or an entry of ``row``, so a candidate."""
    for d, m in sorted([(d, m) for d, m in zip(row, mult) if d < pen]):
        copies -= m
        if copies <= 0:
            return d
    return pen


def _threshold(S, T, p: float) -> tuple[float, dict[int, dict[int, int]],
                                        dict[int, dict[int, int]], _Grouped, _Grouped]:
    """The bottleneck distance eta between checked S and T for a checked p,
    the counted flows (f, g) found at eta, and both inputs as ``_grouped``
    gives them: f places every copy of a point of S whose penalty exceeds
    eta on T within eta, and g does the same for T.

    Candidate costs are the pairwise distances and the penalties; the
    smallest candidate at which both flows exist is the distance, found
    by binary search over ``_table``'s values.  The flows' realized cost
    is checked with ``_point_dist``, not with the table.
    """
    A, B = _grouped(S), _grouped(T)
    (a, mult_a, _), (b, mult_b, _) = A, B
    try:  # later float work repeats the table's, so it cannot overflow
        dist, pen_a, pen_b = _table(a, b, p)
    except OverflowError:
        raise _too_far(a + b) from None
    cols = _transpose(dist, len(b))
    # no matching costs less than `lower`, the largest least cost of a
    # point; no point's least cost passes its penalty, so the points are
    # taken by falling penalty until one cannot raise `lower`.  Dropping
    # every point costs `upper`
    lower = 0.0
    for pen, m, row, other in sorted(chain(zip(pen_a, mult_a, dist, repeat(mult_b)),
                                           zip(pen_b, mult_b, cols, repeat(mult_a))),
                                     key=itemgetter(0), reverse=True):
        if pen <= lower:
            break
        lower = max(lower, _least_cost(m, pen, row, other))
    upper = max(pen_a + pen_b, default=0.0)
    candidates = sorted(set(chain(pen_a, pen_b, *dist))) or [0.0]
    # nothing has to be matched at `upper`; `lower` is tried first, and in
    # most calls it is the distance
    lo, hi = bisect_left(candidates, lower), bisect_left(candidates, upper)
    flows, mid = ({}, {}), lo
    while lo < hi:
        eta = candidates[mid]
        req_a = {i: mult_a[i] for i, pen in enumerate(pen_a) if pen > eta}
        f = _saturate(req_a, mult_b,
                      {i: [j for j, d in enumerate(dist[i]) if d <= eta] for i in req_a})
        req_b = {j: mult_b[j] for j, pen in enumerate(pen_b) if pen > eta}
        g = None if f is None else _saturate(
            req_b, mult_a,
            {j: [i for i, d in enumerate(cols[j]) if d <= eta] for j in req_b})
        if g is None:
            lo = mid + 1
        else:
            hi, flows = mid, (f, g)
        mid = (lo + hi) // 2
    eta, (f, g) = candidates[hi], flows
    sides = ((f, a, mult_a, b), (g, b, mult_b, a))
    realized = _largest(
        [(x[i], y[j]) for flow, x, _, y in sides for i, row in flow.items() for j in row],
        [pt for flow, x, mult, _ in sides for i, (pt, m) in enumerate(zip(x, mult))
         if sum(flow.get(i, {}).values()) < m], p)
    _confirm(realized, eta, p, A, B)
    return eta, f, g, A, B


def optimal_matching(S, T, p: float = math.inf) -> tuple[float, Matching]:
    """The bottleneck distance together with a matching realizing it.

    The counted flows of the threshold search are expanded to one index
    pair per matched copy, merged by ``combine_matchings`` and checked as
    ``matching_cost`` checks them, on the inputs as checked once here.
    ``Matching`` indices refer to positions in the inputs as given, which
    need not be sorted.
    """
    p = _check_p(p)
    # each input is checked once, and a total past sys.maxsize is refused here
    S, T = _checked(S, T)
    s, t = _points(S), _points(T)
    eta, f, g, A, B = _threshold(S, T, p)
    M = combine_matchings(Matching(len(s), len(t), tuple(_expand(f, A, B))),
                          Matching(len(t), len(s), tuple(_expand(g, B, A))))
    _confirm(_cost(s, t, M, p), eta, p, A, B)
    return eta, M


def bottleneck_distance(S, T, p: float = math.inf) -> float:
    """Exact bottleneck distance between two diagrams for this p.

    Works on distinct points only: the threshold search's counted flows
    are checked directly, and no index-level matching is built.
    """
    p = _check_p(p)
    return _threshold(*_checked(S, T), p)[0]
