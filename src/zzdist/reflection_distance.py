"""Distance between zigzag modules by counting reflection steps.

Two modules are close when short runs of reflections carry each into a
summand of the other, up to reversing invertible arrows and ignoring
one-position summands.  A search state is a plain tuple: the directions
of an orientation normalized at every flippable arrow, plus the sorted
(b, d, multiplicity) counts of its diagram less one-position intervals.
A* search (Hart, Nilsson and Raphael, 1968) finds the fewest steps with a
witness run.  It needs no depth bound: its heuristic is consistent, and
the empty module, where the source's annihilating run ends, is a goal,
so a goal is popped before any state past the optimum.  Successor lists
come from a memo shared across calls, a plain dict emptied whenever the
next list would take it past a bound on the successor states it holds;
it interns each state and op it holds through one table.  ``memo_info``
reads its counters and ``clear_memo`` empties it.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import NamedTuple

from .bottleneck import _check_p
from .diagrams import SymbolicModule, _reflect
from .reflections import ReflectionOp, ReflectionSequence, ops_at
from .zigzag_core import _canonical_dirs, _embeds

_State = tuple[tuple[str, ...], tuple[tuple[int, int, int], ...]]
_Successors = tuple[tuple[ReflectionOp, _State], ...]

# Successor states the memo may hold, summed over its lists.  The
# stability benchmark's whole state space, every length 2..8 with total
# multiplicity <= 2 and no one-position interval, is 5,675 states with
# 36,156 successors, which all fit; an n = 16 list holds 15-20
# successors, so a deep n = 16 search empties the memo every ~2.5k lists.
_MEMO_BOUND = 40_000
# each expanded state -> its successor list
_memo: dict[_State, _Successors] = {}
# each state and op the memo holds, as a key or in a list -> the one
# object held for it
_canon: dict[_State | ReflectionOp, _State | ReflectionOp] = {}
# every thread shares the memo; the lock guards its stores and empties
_memo_lock = threading.Lock()
_hits = _misses = _evictions = _held = 0


class MemoInfo(NamedTuple):
    """Counters of the successor memo since it was last cleared: lookups
    answered from it, states expanded, lists dropped when a full memo was
    emptied, and the successor states its lists hold now."""

    hits: int
    misses: int
    evictions: int
    held: int


def cost(seq: ReflectionSequence, p: float = 1) -> float:
    """Cost of a reflection run: its length to the power 1/p.

    The empty run costs 0 for every p, including infinity.
    """
    p = _check_p(p)
    length = len(seq)
    if length == 0:
        return 0.0
    return float(length) ** (1.0 / p)


def _state(S: SymbolicModule) -> _State:
    """The search state of S: canonical directions and sanitized counts."""
    counts = tuple(c for c in S.diagram.counts() if c[0] != c[1])
    return _canonical_dirs(S.tau.dirs, counts), counts


def _successors(state: _State) -> _Successors:
    """Each other state one reflection away, with the first op reaching it.

    Lists are memoized across searches: the stability benchmark meets its
    5,675 states over and over, while one search expands no state twice,
    so no eviction order would earn a hit.  The memo holds at most
    ``_MEMO_BOUND`` successor states, summed over its lists, so what it
    holds is bounded whatever the module length: a list that would pass
    the bound empties the memo first, and a list longer than the bound is
    returned unstored.  A hit costs one dict lookup.  Each state the memo
    holds, as a key or a successor, and each op is held as one object,
    through ``_canon``, which is emptied with the memo.
    """
    global _hits, _misses, _evictions, _held
    out = _memo.get(state)
    if out is not None:
        _hits += 1
        return out
    # a reflection at k moves nothing, and the arrows it sets stay
    # flippable, unless an interval ends at k-1 or k or starts at k or k+1
    n = len(state[0]) + 1
    near = {k for (b, d, _) in state[1] for k in (d, d + 1, b - 1, b) if 1 <= k <= n}
    first: dict[_State, ReflectionOp] = {}
    for k in sorted(near):
        for op in ops_at(n, k):
            first.setdefault(_reflect(op, *state), op)
    first.pop(state, None)
    with _memo_lock:
        _misses += 1
        if state in _memo:  # stored by another thread meanwhile
            return _memo[state]
        if len(first) > _MEMO_BOUND:
            return tuple((op, T) for T, op in first.items())
        if _held + len(first) > _MEMO_BOUND:
            _evictions += len(_memo)
            _memo.clear()
            _canon.clear()
            _held = 0
        hold = _canon.setdefault
        out = tuple((hold(op, op), hold(T, T)) for T, op in first.items())
        _memo[hold(state, state)] = out
        _held += len(out)
    return out


def memo_info() -> MemoInfo:
    """The successor memo's counters; see ``MemoInfo``."""
    return MemoInfo(_hits, _misses, _evictions, _held)


def clear_memo() -> None:
    """Empty the successor memo and zero its counters."""
    global _hits, _misses, _evictions, _held
    with _memo_lock:
        _memo.clear()
        _canon.clear()
        _hits = _misses = _evictions = _held = 0


def _lower_bound(counts: tuple[tuple[int, int, int], ...], target: tuple) -> int:
    """h: the largest, over intervals [b, d], of the fewer of d - b steps
    to die and |b - b'| + |d - d'| to become a target interval [b', d'].
    A reflection moves one endpoint of an interval by at most one
    position, so h never overestimates and drops by at most one a step."""
    worst = 0
    for (b, d, _) in counts:
        charge = d - b
        for (b2, d2, _) in target:
            charge = min(charge, abs(b - b2) + abs(d - d2))
        worst = max(worst, charge)
    return worst


def _search(source: SymbolicModule, target: SymbolicModule) -> tuple[int, ReflectionSequence]:
    """Fewest reflections carrying source into a summand of target, with
    a witness run realizing the minimum.

    The heap is ordered by (f, -g), f = g + h.  As h is consistent, popped
    f never decreases, and every state with f below the optimum C* is
    popped before any with f above it; so a goal generated at depth
    g + 1 <= f is returned at once, others (h = 0, the start included)
    when popped.  No state past C* is expanded, so the search needs no
    depth bound: C* is finite, as the source's annihilating run ends at
    the empty module, a goal.  An empty heap is an internal error.
    """
    if source.n != target.n:
        raise ValueError(f"length mismatch: {source.n} vs {target.n}")
    start = _state(source)
    dirs_w, counts_w = target.tau.dirs, target.diagram.counts()
    # best known depth of each state, with the state and op it came by
    seen: dict[_State, tuple[int, _State | None, ReflectionOp | None]] = {start: (0, None, None)}

    def witness(T: _State) -> tuple[int, ReflectionSequence]:
        ops = []
        _, S, op = seen[T]
        while S is not None:
            ops.append(op)
            _, S, op = seen[S]
        return len(ops), ReflectionSequence(tuple(reversed(ops)))

    heap = [(_lower_bound(start[1], counts_w), 0, start)]
    while heap:
        f, g, S = heapq.heappop(heap)
        g = -g
        if g != seen[S][0]:
            continue  # queued again later with a smaller depth
        if f == g and _embeds(*S, dirs_w, counts_w):
            return witness(S)
        g += 1
        for op, T in _successors(S):
            if g >= seen.get(T, (g + 1,))[0]:
                continue
            seen[T] = (g, S, op)
            f_t = g + _lower_bound(T[1], counts_w)
            if f_t == g <= f and _embeds(*T, dirs_w, counts_w):
                return witness(T)
            heapq.heappush(heap, (f_t, -g, T))
    raise AssertionError(f"heap exhausted with no goal, though the empty module is one; "
                         f"source {source.tau} {list(source.diagram.counts())}, "
                         f"target {target.tau} {list(target.diagram.counts())}")


def min_steps(source: SymbolicModule, target: SymbolicModule) -> int:
    """Fewest reflections after which the source sits inside the target
    as a summand up to reversing invertible arrows."""
    return _search(source, target)[0]


@dataclass(frozen=True)
class ReflectionDistance:
    """A distance value together with the two runs that realize it.

    ``forward`` carries the first module into a summand of the second,
    ``backward`` the other way around; the value is the larger length to
    the power 1/p.
    """

    value: float
    steps: int
    forward: ReflectionSequence
    backward: ReflectionSequence


def reflection_distance(V: SymbolicModule, W: SymbolicModule, p: float = 1) -> ReflectionDistance:
    """The reflection distance between two symbolic modules.

    The two directions are independent minimizations, so the distance is
    the maximum of the two minimal lengths, raised to 1/p; zero stays
    exactly zero for every p.
    """
    _check_p(p)  # reject a bad p before searching
    run_vw = _search(V, W)[1]
    run_wv = _search(W, V)[1]
    longer = max(run_vw, run_wv, key=len)
    return ReflectionDistance(cost(longer, p), len(longer), run_vw, run_wv)
