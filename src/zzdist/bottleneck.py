"""Bottleneck distance between persistence diagrams of one length.

The inputs are ``PersistenceDiagram``s, whose intervals were read once,
when each was built; a diagram of another length, or anything that is
no diagram, is refused naming its argument.  A matching pairs up some
intervals of one diagram with intervals of the other, at most once
each; its cost is the largest of the matched distances and the
penalties charged for leaving an interval unmatched.  Every achievable
cost is one of finitely many candidate values, and whether a matching
within a value exists is monotone in the value, so the distance is the
smallest feasible candidate (Efrat, Itai and Katz, 2001; Kerber, Morozov
and Nigmetov, 2017).  Only points whose penalty passes a lower bound can
be required, so only they get distances, and only to points nearer than
their penalty.  The bound, where the distance most often is, is tried
first, and only if it fails are the candidates sorted; the search then
gallops up from it and bisects the last gap.  Points are counted, as a
diagram stores them: each test is a capacitated flow on the distinct
points, whose supplies and capacities are multiplicities, and each
point's copies are one ``range`` of positions in ``points``, so no cost
grows with them.  Augmenting paths are searched with an explicit queue,
so long paths cannot hit the recursion limit.  Each side's penalties are
taken once.  ``_point_dist`` gives the distances at p other than 1 and
infinity, and checks the realized cost of the flows found.  Both entry
points share one solve; only ``optimal_matching`` expands its counted
flows into an index-level witness, merging the two one-sided matchings
(Mendelsohn and Dulmage, 1958).  Against a side with no points nothing
can be matched, so the distance is the largest penalty (0 if both are
empty), which ``bottleneck_distance`` reads off the counts before the
solve builds anything; ``optimal_matching`` gets it from the solve.
The solve's walk returns as soon as its bound reaches the largest
penalty, where nothing is required: no flow is tested there, and no
cost is checked, as each side is dropped whole.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, chain, compress, islice
from operator import itemgetter, lt
from typing import Iterable, Sequence

from .diagrams import PersistenceDiagram
from .linalg import _check_p, _count, _exact_ints, _Record, _typed


class Matching(_Record):
    """A partial pairing between two indexed multisets.

    ``pairs`` holds (source index, target index) entries; no index may
    repeat on either side.
    """

    n_source: int
    n_target: int
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, n_source: int, n_target: int, pairs: Iterable[tuple[int, int]]) -> None:
        n_source, n_target = (_count(n, 0, "matching sizes") for n in (n_source, n_target))
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


def _checked(S, T) -> tuple[PersistenceDiagram, PersistenceDiagram]:
    """S and T if both are diagrams of one length; anything else is
    refused naming its argument.  A diagram's intervals were read once,
    when it was built, so nothing here reads them again."""
    S, T = _typed(S, PersistenceDiagram, "S"), _typed(T, PersistenceDiagram, "T")
    if S.n != T.n:
        raise ValueError(f"length mismatch: {S.n} vs {T.n}")
    return S, T


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


def _penalties(pts: Iterable[tuple[int, int]], p: float) -> list[float]:
    """The cost of leaving each point unmatched, (d - b) / 2 ** (1 - 1/p),
    with the divisor taken once."""
    # 1/p reads as 0 at infinity, so the exponent runs from 0 up to 1
    div = 2.0 ** (1.0 - (0.0 if math.isinf(p) else 1.0 / p))
    return [(d - b) / div for (b, d) in pts]


def _too_far(pts: Sequence[tuple[int, int]]) -> ValueError:
    """The refusal, naming the largest interval, of an OverflowError in float work."""
    big = max(pts, key=lambda pt: max(map(abs, pt)))
    return ValueError(f"interval {big}: endpoints too far apart for floating-point distances")


def _near(x: tuple[int, int], pen: float, ys: Sequence[tuple[int, int]],
          p: float) -> list[tuple[float, int]]:
    """(distance, index) for each point of ``ys`` nearer to ``x`` than
    ``pen``, nearest first, each distance what ``_point_dist`` gives, bit
    for bit.  At p = 1 and p = inf the distance is written out inline,
    with integer differences rounded to floats where ``_point_dist``
    rounds them: at p = 1 each one before the two are added, as ``db **
    1.0 + dd ** 1.0`` is (``float(db + dd)`` differs above 2**53), and at
    p = inf the larger one.  Every other p calls ``_point_dist``.
    """
    xb, xd = x
    if p == 1.0:  # float + int rounds the int as float() does
        near = [(d, j) for j, (yb, yd) in enumerate(ys)
                if (d := float(abs(xb - yb)) + abs(xd - yd)) < pen]
    elif math.isinf(p):
        near = [(d, j) for j, (yb, yd) in enumerate(ys)
                if (d := float(db if (db := abs(xb - yb)) > (dd := abs(xd - yd)) else dd)) < pen]
    else:
        near = [(d, j) for j, y in enumerate(ys) if (d := _point_dist(x, y, p)) < pen]
    return sorted(near)


def matching_cost(S: PersistenceDiagram, T: PersistenceDiagram, M: Matching,
                  p: float = math.inf) -> float:
    """Largest matched distance or unmatched penalty under M, whose
    indices are positions in ``S.points`` and ``T.points``; 0 if empty."""
    p = _check_p(p)
    S, T = _checked(S, T)
    return _cost(S.points, T.points, _typed(M, Matching, "M"), p)


def _cost(s: Sequence[tuple[int, int]], t: Sequence[tuple[int, int]], M: Matching,
          p: float) -> float:
    """``matching_cost`` on checked points and a checked p."""
    if M.n_source != len(s) or M.n_target != len(t):
        raise ValueError(f"matching is {M.n_source}x{M.n_target}, "
                         f"diagrams have {len(s)} and {len(t)} points")
    coimage, image = M.coimage, M.image
    try:
        return _largest([(s[i], t[j]) for (i, j) in M.pairs],
                        _penalties(chain((x for i, x in enumerate(s) if i not in coimage),
                                         (y for j, y in enumerate(t) if j not in image)), p), p)
    except OverflowError:
        raise _too_far([*s, *t]) from None


def _largest(pairs: Iterable[tuple[tuple[int, int], tuple[int, int]]],
             penalties: list[float], p: float) -> float:
    """Largest distance of a pair or of the dropped points' penalties; 0 if none."""
    return max([_point_dist(x, y, p) for (x, y) in pairs] + penalties, default=0.0)


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


_Grouped = tuple[list[tuple[int, int]], list[int]]


def _grouped(D: PersistenceDiagram) -> _Grouped:
    """The distinct points of a diagram and their multiplicities, read off
    ``counts()``, in the order ``points`` lists their copies."""
    counts = D.counts()
    return list(map(itemgetter(0, 1), counts)), list(map(itemgetter(2), counts))


def _expand(flow: dict[int, dict[int, int]], source: _Grouped,
            target: _Grouped) -> list[tuple[int, int]]:
    """Index pairs, positions in ``points``, for a counted flow between
    grouped points; each point's copies are one ``range`` of positions,
    handed out in order."""
    (_, mult_s), (_, mult_t) = source, target
    # the position of each point's next free copy, on either side
    free_s, free_t = [0, *accumulate(mult_s)], [0, *accumulate(mult_t)]
    pairs: list[tuple[int, int]] = []
    for i, row in flow.items():
        for j, units in row.items():
            pairs.extend(zip(range(free_s[i], free_s[i] + units),
                             range(free_t[j], free_t[j] + units)))
            free_s[i] += units
            free_t[j] += units
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


def _confirm(realized: float, eta: float, p: float, S: PersistenceDiagram,
             T: PersistenceDiagram) -> None:
    """Raise, naming p and both inputs' counts, if a witness costs more than eta."""
    if realized > eta:
        raise AssertionError(f"combined matching costs {realized}, above threshold {eta} "
                             f"(p={p}; counts {list(S.counts())} and {list(T.counts())})")


def _least_cost(copies: int, pen: float, near: Sequence[tuple[float, int]],
                mult: Sequence[int]) -> float:
    """A lower bound on the cost of any matching, from one point of
    ``copies`` copies and penalty ``pen`` whose neighbours nearer than
    ``pen`` are ``near``, (distance, index) pairs nearest first, with
    multiplicities ``mult`` by index: either a copy is dropped, at ``pen``,
    or every copy is matched, which needs points within the cost whose
    multiplicities add up to ``copies`` (Hall's condition on this one
    point).  The bound is ``pen`` or a distance in ``near``, so a candidate."""
    for d, j in near:
        copies -= mult[j]
        if copies <= 0:
            return d
    return pen


def _placed(eta: float, walked: Sequence[tuple[float, int, int, list[tuple[float, int]]]],
            mults: tuple[Sequence[int], Sequence[int]]) -> tuple[dict, dict] | None:
    """Counted flows (f, g) that place every copy of each walked point of
    penalty above eta on the other side within eta, or None if none do.
    ``walked`` holds (penalty, side, index, near) by falling penalty, and
    ``mults`` both sides' multiplicities."""
    supply, neighbours = ({}, {}), ({}, {})
    for pen, side, i, near in walked:  # the points required at eta come first
        if pen <= eta:
            break
        supply[side][i] = mults[side][i]
        neighbours[side][i] = list(map(itemgetter(1),
                                       islice(near, bisect_right(near, (eta, math.inf)))))
    f = _saturate(supply[0], mults[1], neighbours[0])
    g = None if f is None else _saturate(supply[1], mults[0], neighbours[1])
    return None if g is None else (f, g)


def _threshold(S: PersistenceDiagram, T: PersistenceDiagram, p: float
               ) -> tuple[float, dict[int, dict[int, int]], dict[int, dict[int, int]],
                          _Grouped, _Grouped]:
    """The bottleneck distance eta between checked S and T for a checked p,
    the counted flows (f, g) found at eta, and both inputs as ``_grouped``
    gives them: f places every copy of a point of S whose penalty exceeds
    eta on T within eta, and g does the same for T.

    Each side's penalties are taken once.  One walk visits the points of
    both sides by falling penalty, raising ``lower``, the largest least
    cost, and stops at the first point whose penalty is at most
    ``lower``, since no least cost passes its penalty.  Every probe is at
    some eta >= ``lower``, where only points of penalty above eta are
    required, and the walk visited all of these.  Each walked point keeps
    its neighbours nearer than its own penalty, nearest first: an edge no
    shorter than both ends' penalties is never used, since at any eta
    that admits it neither end is required.  That list gives the point's
    least cost, its distances among the candidates (with every penalty),
    and at each probe its neighbours, the prefix within eta.  If
    ``lower`` reaches ``upper``, the largest penalty, eta is ``upper``,
    where nothing is required, and both flows are empty: the walk
    returns there, with no flow tested and no cost to check, since every
    point is dropped and no penalty passes ``upper``.  This happens
    whenever no point of the other side lies nearer than the penalty of
    the point with the largest penalty, a side with no points among
    them.  Else ``lower`` is tried first, and only if it fails are the
    candidates sorted: then the one 1, 3, 7, ... above ``lower`` is
    tried, and the last gap is bisected (Bentley and Yao, 1976).  The
    flows' realized cost is checked with ``_point_dist`` on each matched
    pair and the penalty of each point not fully placed.
    """
    A, B = _grouped(S), _grouped(T)
    (a, mult_a), (b, mult_b) = A, B
    pts, mults = (a, b), (mult_a, mult_b)
    walked = []  # (penalty, side, index, near) by falling penalty
    lower = 0.0
    try:  # later float work repeats this, so it cannot overflow
        pens = _penalties(a, p), _penalties(b, p)
        for pen, side, i in sorted([(pen, side, i) for side in (0, 1)
                                    for i, pen in enumerate(pens[side])],
                                   key=itemgetter(0), reverse=True):
            if pen <= lower:
                break
            near = _near(pts[side][i], pen, pts[1 - side], p)
            walked.append((pen, side, i, near))
            least = _least_cost(mults[side][i], pen, near, mults[1 - side])
            if least > lower:
                lower = least
    except OverflowError:
        raise _too_far(a + b) from None
    upper = max(chain(*pens), default=0.0)
    if lower >= upper:  # nothing is required at upper, so nothing is placed
        return upper, {}, {}, A, B
    eta, flows = lower, _placed(lower, walked, mults)
    if flows is None:
        candidates = sorted({*pens[0], *pens[1], *map(itemgetter(0), chain.from_iterable(
            map(itemgetter(3), walked)))})
        # `lower` is a candidate, and `upper`, the last, needs no probe
        lo = start = bisect_right(candidates, lower)
        hi = len(candidates) - 1
        flows = ({}, {})
        while lo < hi:
            mid = min(2 * lo - start, (lo + hi) // 2)  # lower + 1, 3, 7, ... or the middle
            found = _placed(candidates[mid], walked, mults)
            if found is None:
                lo = mid + 1
            else:
                hi, flows = mid, found
        eta = candidates[hi]
    f, g = flows
    pairs, dropped = [], []
    for flow, x, y, pens_x, mult_x in ((f, a, b, pens[0], mult_a), (g, b, a, pens[1], mult_b)):
        placed = [0] * len(x)
        for i, row in flow.items():
            placed[i] = sum(row.values())
            pairs += [(x[i], y[j]) for j in row]
        dropped += compress(pens_x, map(lt, placed, mult_x))
    _confirm(_largest(pairs, dropped, p), eta, p, S, T)
    return eta, f, g, A, B


def optimal_matching(S: PersistenceDiagram, T: PersistenceDiagram,
                     p: float = math.inf) -> tuple[float, Matching]:
    """The bottleneck distance together with a matching realizing it.

    The counted flows of the threshold search are expanded to one index
    pair per matched copy, merged by ``combine_matchings`` and checked as
    ``matching_cost`` checks them.  ``Matching`` indices are positions in
    ``S.points`` and ``T.points``.
    """
    p = _check_p(p)
    S, T = _checked(S, T)
    s, t = S.points, T.points  # a total past sys.maxsize is refused here
    eta, f, g, A, B = _threshold(S, T, p)
    M = combine_matchings(Matching(len(s), len(t), tuple(_expand(f, A, B))),
                          Matching(len(t), len(s), tuple(_expand(g, B, A))))
    _confirm(_cost(s, t, M, p), eta, p, S, T)
    return eta, M


def bottleneck_distance(S: PersistenceDiagram, T: PersistenceDiagram,
                        p: float = math.inf) -> float:
    """Exact bottleneck distance between two diagrams of one length for this p.

    Works on distinct points only: the threshold search's counted flows
    are checked directly, and no index-level matching is built.  Against
    a side with no points nothing can be matched, so the distance is the
    largest penalty (0.0 if both are empty), read off the counts before
    anything is grouped or searched.
    """
    p = _check_p(p)
    S, T = _checked(S, T)
    if S.counts() and T.counts():
        return _threshold(S, T, p)[0]
    counts = S.counts() + T.counts()
    try:
        return max(_penalties(map(itemgetter(0, 1), counts), p), default=0.0)
    except OverflowError:
        raise _too_far([pt[:2] for pt in counts]) from None
