"""Distance between zigzag modules by counting reflection steps.

Two modules are close when short runs of reflections carry each into a
summand of the other, up to reversing invertible arrows and ignoring
one-position summands.  ``diagrams._state`` makes the search state,
that normal form as a plain tuple, and a step moves it as
``_state(*diagrams._reflect(op, *state))`` would, editing only what the
op changes.  A* search (Hart, Nilsson and Raphael, 1968) finds the
fewest steps with a witness run, testing a state for a goal when it is
popped; a start that is a goal is answered before the search allocates
anything, by one empty run made once at import and shared, as records
are immutable.  It needs no depth bound: its heuristic is consistent,
and the empty module, where the source's annihilating run ends, is a
goal, so a goal is popped before any state past the optimum.  Successor
lists come from a memo shared across calls, a plain dict emptied
whenever the next list would take it past a bound on the successor
states it holds; it interns each state and op it holds through one
table.  A miss builds its list from ops a search makes once per
position.  ``memo_info`` reads its counters and ``clear_memo`` empties
it.
"""

from __future__ import annotations

import heapq
import threading

from .diagrams import SymbolicModule, _state
from .linalg import _check_p, _Record, _typed
from .reflections import LIMIT, ReflectionOp, ReflectionSequence, ops_at
from .zigzag_core import BACKWARD, FORWARD, _embeds

_State = tuple[tuple[str, ...], tuple[tuple[int, int, int], ...]]
_Successors = tuple[tuple[ReflectionOp, _State], ...]

# Successor states the memo may hold, summed over its lists.  The
# stability benchmark's whole state space, every length 2..8 with total
# multiplicity <= 2 and no one-position interval, is 5,675 states with
# 36,156 successors, which all fit; an n = 16 list holds 15-20
# successors, so a deep n = 16 search empties the memo every ~2.5k lists.
# A dropped list costs one miss to rebuild, by local edits (``_successors``).
# The memo stays because the stability benchmark meets its states over and
# over: with a bound of 0, where no list is stored, it ran 4,044 ops/s at
# p50 0.173 ms against 8,190 ops/s at 0.078 ms (medians of 4 alternating
# 10 s ``perfbench/run.py --workload stability --seed 1`` pairs, shared
# 2-vCPU machine, 4 of 4 pairs), for 36.6 MB peak RSS against 41.2 MB.
_MEMO_BOUND = 40_000
# each expanded state -> its successor list
_memo: dict[_State, _Successors] = {}
# each state and op the memo holds, as a key or in a list -> the one
# object held for it.  Without it every list holds its own copies: in 4
# more such pairs, peak RSS was 52.2 MB against 41.2 MB (4 of 4) at 7,844
# against 8,186 ops/s; with states held once but not ops, 44.2 and 44.8 MB
# in two runs.
_canon: dict[_State | ReflectionOp, _State | ReflectionOp] = {}
# every thread shares the memo; the lock guards its stores and empties
_memo_lock = threading.Lock()
_hits = _misses = _evictions = _held = 0
# the run every search whose start is a goal returns; records are immutable
_EMPTY_RUN = ReflectionSequence(())


class MemoInfo(_Record):
    """Counters of the successor memo since it was last cleared: lookups
    answered from it, states expanded, lists dropped when a full memo was
    emptied, and the successor states its lists hold now."""

    hits: int
    misses: int
    evictions: int
    held: int

    def __init__(self, hits, misses, evictions, held) -> None:
        self._set(hits=hits, misses=misses, evictions=evictions, held=held)


def cost(seq: ReflectionSequence, p: float = 1) -> float:
    """Cost of a reflection run: its length to the power 1/p.

    The empty run costs 0 for every p, including infinity.
    """
    p = _check_p(p)
    length = len(_typed(seq, ReflectionSequence, "seq"))
    if length == 0:
        return 0.0
    return float(length) ** (1.0 / p)


def _successors(state: _State, table: dict[int, tuple[ReflectionOp, ...]] | None = None
                ) -> _Successors:
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

    A miss tries ``ops_at(n, k)`` at each k next to an interval end, in
    order of k, from ``table``, the search's map from k to them, filled
    once per k, so no op is validated per expansion.  A reflection at k
    turns arrows k-1 and k and moves only intervals with an end at k-1, k
    or k+1: an op that rebuilds no blocked arrow gives the state itself
    and is skipped, and the others apply ``_reflect``'s rule to those
    intervals alone and restore the normal form on arrows k-2 .. k+1, the
    only ones whose blocking can change.  Each successor is the state
    ``_state(*_reflect(op, *state))`` gives.
    """
    global _hits, _misses, _evictions, _held
    out = _memo.get(state)
    if out is not None:
        _hits += 1
        return out
    table = {} if table is None else table
    dirs, counts = state
    n = len(dirs) + 1
    first: dict[_State, ReflectionOp] = {}
    # the arrows the intervals block, d and b - 1 of each [b, d], counting 0 and n
    ends = {a for (b, d, _) in counts for a in (d, b - 1)}
    ds, bs = {d for (_, d, _) in counts}, {b for (b, _, _) in counts}
    for k in sorted({k for a in ends for k in (a, a + 1) if 1 <= k <= n}):
        moved, kept = [], []
        for c in counts:
            (moved if k - 2 < c[0] < k + 2 or k - 2 < c[1] < k + 2 else kept).append(c)
        lo, hi = max(k - 2, 1), min(k + 1, n - 1)  # the arrows whose blocking can change
        # of these, kept intervals block only k-2, by an end there, and k+1,
        # by a start at k+2; an interval with either is kept
        held_lo, held_hi = k - 2 in ds, k + 2 in bs
        pre, post = dirs[:lo - 1], dirs[hi:]
        for op in table.get(k) or table.setdefault(k, ops_at(n, k)):
            limit = op.kind == LIMIT
            left = ((dirs[k - 2] if k >= 2 else op.boundary_dir) == FORWARD) == limit
            right = ((dirs[k - 1] if k < n else op.boundary_dir) == BACKWARD) == limit
            # a rebuilt arrow moves the intervals that block it; if none does,
            # each blocked arrow at k already points as the op turns it
            if not (left and k - 1 in ends or right and k in ends):
                continue
            # _reflect's rule on these intervals alone; a state holds no [k, k]
            images, blocked = [], set()
            for (b, d, m) in moved:
                if left and d == k - 1:
                    d = k
                elif left and b == k:
                    b = k + 1
                elif right and b == k + 1:
                    b = k
                elif right and d == k:
                    d = k - 1
                if b != d:
                    images.append((b, d, m))
                    blocked.add(d)
                    blocked.add(b - 1)
            counts_t = sorted(kept + images)  # no image is a kept interval
            if len(images) > 1 and len({c[:2] for c in images}) < len(images):
                merged: dict[tuple[int, int], int] = {}  # equal images merge
                for (b, d, m) in counts_t:
                    merged[b, d] = merged.get((b, d), 0) + m
                counts_t = [(b, d, m) for (b, d), m in merged.items()]
            # arrows k-2 .. k+1, cut to 1 .. n-1, each forward unless blocked;
            # a limit turns k-1 back and k forward, a colimit k-1 forward, k back
            mid = (dirs[k - 3] if k > 2 and (held_lo or k - 2 in blocked) else FORWARD,
                   BACKWARD if limit and k - 1 in blocked else FORWARD,
                   BACKWARD if not limit and k in blocked else FORWARD,
                   dirs[k] if k + 1 < n and (held_hi or k + 1 in blocked) else FORWARD
                   )[lo - k + 2:hi - k + 3]
            first.setdefault((pre + mid + post, tuple(counts_t)), op)
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
            c = abs(b - b2) + abs(d - d2)
            if c < charge:
                charge = c
        if charge > worst:
            worst = charge
    return worst


def _search(source: SymbolicModule, target: SymbolicModule) -> ReflectionSequence:
    """A shortest run of reflections carrying source into a summand of
    target; its length is the fewest steps.

    The heap is ordered by (f, -g), f = g + h.  As h is consistent, popped
    f never decreases, and every state with f below the optimum C* is
    popped before any with f above it.  A state is a goal when it is
    popped with h = 0 and embeds in the target; its run is read back from
    the state and op each state came by.  The start is tested by that rule
    before ``seen``, the heap or the ops table are made, so a start that
    is a goal returns the shared empty run at once.  No state past C* is
    expanded, so the search needs no depth bound: C* is finite, as the
    source's annihilating run ends at the empty module, a goal.  An empty
    heap is an internal error.
    """
    if source.n != target.n:
        raise ValueError(f"length mismatch: {source.n} vs {target.n}")
    start = _state(source.tau.dirs, source.diagram.counts())
    dirs_w, counts_w = target.tau.dirs, target.diagram.counts()
    h = _lower_bound(start[1], counts_w)
    if h == 0 and _embeds(*start, dirs_w, counts_w):  # the start is a goal
        return _EMPTY_RUN
    # best known depth of each state, with the state and op it came by
    seen: dict[_State, tuple[int, _State | None, ReflectionOp | None]] = {start: (0, None, None)}
    heap, table = [(h, 0, start)], {}
    while heap:
        f, g, S = heapq.heappop(heap)
        g = -g
        if g != seen[S][0]:
            continue  # queued again later with a smaller depth
        if f == g and _embeds(*S, dirs_w, counts_w):
            ops = []
            _, S, op = seen[S]
            while S is not None:
                ops.append(op)
                _, S, op = seen[S]
            return ReflectionSequence(tuple(reversed(ops)))
        g += 1
        for op, T in _successors(S, table):
            if g < seen.get(T, (g + 1,))[0]:
                seen[T] = (g, S, op)
                heapq.heappush(heap, (g + _lower_bound(T[1], counts_w), -g, T))
    raise AssertionError(f"heap exhausted with no goal, though the empty module is one; "
                         f"source {source.tau} {list(source.diagram.counts())}, "
                         f"target {target.tau} {list(target.diagram.counts())}")


def min_steps(source: SymbolicModule, target: SymbolicModule) -> int:
    """Fewest reflections after which the source sits inside the target
    as a summand up to reversing invertible arrows."""
    return len(_search(_typed(source, SymbolicModule, "source"),
                       _typed(target, SymbolicModule, "target")))


class ReflectionDistance(_Record):
    """A distance value together with the two runs that realize it.

    ``forward`` carries the first module into a summand of the second,
    ``backward`` the other way around; the value is the larger length to
    the power 1/p.
    """

    value: float
    steps: int
    forward: ReflectionSequence
    backward: ReflectionSequence

    def __init__(self, value, steps, forward, backward) -> None:
        self._set(value=value, steps=steps, forward=forward, backward=backward)


def reflection_distance(V: SymbolicModule, W: SymbolicModule, p: float = 1) -> ReflectionDistance:
    """The reflection distance between two symbolic modules.

    The two directions are independent minimizations, so the distance is
    the maximum of the two minimal lengths, raised to 1/p; zero stays
    exactly zero for every p.
    """
    _check_p(p)  # reject a bad p or module before searching
    _typed(V, SymbolicModule, "V")
    _typed(W, SymbolicModule, "W")
    run_vw, run_wv = _search(V, W), _search(W, V)
    longer = max(run_vw, run_wv, key=len)
    return ReflectionDistance(cost(longer, p), len(longer), run_vw, run_wv)
