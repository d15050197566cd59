"""Bottleneck distance between persistence diagrams.

A matching pairs up some intervals of one diagram with intervals of the
other, at most once each; its cost is the largest of the matched
distances and the penalties charged for leaving an interval unmatched.
Every achievable cost is one of finitely many candidate values, so the
distance is computed exactly by scanning candidates in increasing order
and testing feasibility with augmenting paths, searched with an explicit
stack so that long paths cannot hit the recursion limit.  The witness
merges two one-sided matchings (Mendelsohn and Dulmage, 1958).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Matching:
    """A partial pairing between two indexed multisets.

    ``pairs`` holds (source index, target index) entries; no index may
    repeat on either side.
    """

    n_source: int
    n_target: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted((int(i), int(j)) for (i, j) in self.pairs))
        seen_s: set[int] = set()
        seen_t: set[int] = set()
        for (i, j) in pairs:
            if not (0 <= i < self.n_source and 0 <= j < self.n_target):
                raise ValueError(f"pair ({i}, {j}) out of range "
                                 f"{self.n_source}x{self.n_target}")
            if i in seen_s or j in seen_t:
                raise ValueError(f"pair ({i}, {j}) reuses a matched index")
            seen_s.add(i)
            seen_t.add(j)
        object.__setattr__(self, "pairs", pairs)

    @property
    def coimage(self) -> frozenset[int]:
        """The matched source indices."""
        return frozenset(i for (i, _) in self.pairs)

    @property
    def image(self) -> frozenset[int]:
        """The matched target indices."""
        return frozenset(j for (_, j) in self.pairs)


def _check_p(p: float) -> float:
    if not (isinstance(p, (int, float)) and not isinstance(p, bool) and p >= 1):
        raise ValueError(f"p must be a real number >= 1 or infinity, got {p!r}")
    return float(p)


def _points(D) -> tuple[tuple[int, int], ...]:
    pts = D.points if hasattr(D, "points") else D
    return tuple((int(b), int(d)) for (b, d) in pts)


def _point_dist(a: tuple[int, int], b: tuple[int, int], p: float) -> float:
    db, dd = abs(a[0] - b[0]), abs(a[1] - b[1])
    if math.isinf(p):
        return float(max(db, dd))
    return float(db ** p + dd ** p) ** (1.0 / p)


def _penalty(pt: tuple[int, int], p: float) -> float:
    # 1/p reads as 0 at infinity, so the exponent runs from 0 up to 1
    inv = 0.0 if math.isinf(p) else 1.0 / p
    return (pt[1] - pt[0]) / 2.0 ** (1.0 - inv)


def matching_cost(S, T, M: Matching, p: float = math.inf) -> float:
    """Largest matched distance or unmatched penalty under M; 0 if empty."""
    p = _check_p(p)
    s, t = _points(S), _points(T)
    if M.n_source != len(s) or M.n_target != len(t):
        raise ValueError(f"matching is {M.n_source}x{M.n_target}, "
                         f"diagrams have {len(s)} and {len(t)} points")
    coimage, image = M.coimage, M.image
    vals = [_point_dist(s[i], t[j], p) for (i, j) in M.pairs]
    vals.extend(_penalty(s[i], p) for i in range(len(s)) if i not in coimage)
    vals.extend(_penalty(t[j], p) for j in range(len(t)) if j not in image)
    return max(vals, default=0.0)


def _saturate(required: Sequence[int], neighbours: Sequence[Sequence[int]],
              ) -> dict[int, int] | None:
    """Match every required left vertex into the right side, or None.

    Augmenting-path matching with an explicit stack, so path length is
    not bounded by the recursion limit.  Each popped left vertex takes a
    free neighbour before any matched one is displaced.  Only required
    vertices are roots, so the coimage of the result is exactly
    ``required`` when it succeeds.
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


def optimal_matching(S, T, p: float = math.inf) -> tuple[float, Matching]:
    """The bottleneck distance together with a matching realizing it.

    Candidate costs are the pairwise distances and the penalties; the
    smallest candidate at which every too-expensive-to-drop interval of
    either diagram can be matched within the candidate is the distance.
    """
    p = _check_p(p)
    s, t = _points(S), _points(T)
    dist = [[_point_dist(a, b, p) for b in t] for a in s]
    pen_s = [_penalty(a, p) for a in s]
    pen_t = [_penalty(b, p) for b in t]
    candidates = {0.0}
    candidates.update(v for row in dist for v in row)
    candidates.update(pen_s)
    candidates.update(pen_t)
    for eta in sorted(candidates):
        req_s = [i for i in range(len(s)) if pen_s[i] > eta]
        req_t = [j for j in range(len(t)) if pen_t[j] > eta]
        allowed_s = [[j for j in range(len(t)) if dist[i][j] <= eta] for i in range(len(s))]
        allowed_t = [[i for i in range(len(s)) if dist[i][j] <= eta] for j in range(len(t))]
        fdict = _saturate(req_s, allowed_s)
        if fdict is None:
            continue
        gdict = _saturate(req_t, allowed_t)
        if gdict is None:
            continue
        f = Matching(len(s), len(t), tuple(fdict.items()))
        g = Matching(len(t), len(s), tuple(gdict.items()))
        M = combine_matchings(f, g)
        realized = matching_cost(s, t, M, p)
        if realized > eta:
            raise AssertionError(f"combined matching costs {realized}, above threshold {eta}")
        return eta, M
    raise AssertionError("no feasible candidate; the largest penalty is always feasible")


def bottleneck_distance(S, T, p: float = math.inf) -> float:
    """Exact bottleneck distance between two diagrams for this p."""
    return optimal_matching(S, T, p)[0]
