"""Distance between zigzag modules by counting reflection steps.

Two modules are close when short runs of reflections carry each into a
summand of the other, up to reversing invertible arrows and ignoring
one-position summands.  A search state is a plain tuple: the directions
of an orientation normalized at every flippable arrow, plus the sorted
(b, d, multiplicity) counts of its diagram less one-position intervals.
Breadth-first search finds the fewest steps with a witness run; successor
lists are shared across calls, and each search keeps nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bottleneck import _check_p
from .diagrams import PersistenceDiagram, SymbolicModule, act
from .reflections import ReflectionOp, ReflectionSequence, all_ops
from .zigzag_core import Orientation, _embeds, canonical_type

_State = tuple[tuple[str, ...], tuple[tuple[int, int, int], ...]]

# successor lists depend only on the state, so one table serves every
# search; fills are idempotent
_SUCCESSORS: dict[_State, tuple[tuple[ReflectionOp, _State], ...]] = {}


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
    return canonical_type(S.tau, [(b, d) for (b, d, _) in counts]).dirs, counts


def _successors(state: _State) -> tuple[tuple[ReflectionOp, _State], ...]:
    cached = _SUCCESSORS.get(state)
    if cached is None:
        dirs, counts = state
        D = PersistenceDiagram.from_counts(len(dirs) + 1, counts)
        S = SymbolicModule(Orientation(dirs), D)
        cached = _SUCCESSORS[state] = tuple((op, _state(act(op, S))) for op in all_ops(S.n))
    return cached


def _depth_cap(start: _State) -> int:
    # ``annihilating_sequence`` reaches the empty goal: each of its passes
    # kills every copy of one distinct interval in at most n - 1 steps
    dirs, counts = start
    return (len(dirs) + 1) * max(1, len(counts))


def _search(source: SymbolicModule, target: SymbolicModule) -> tuple[int, ReflectionSequence]:
    """Fewest reflections carrying source into a summand of target, with
    a witness run realizing the minimum; goals are tested as states are
    generated, so the first goal found lies on the shallowest layer.
    """
    if source.n != target.n:
        raise ValueError(f"length mismatch: {source.n} vs {target.n}")
    start = _state(source)
    dirs_w, counts_w = target.tau.dirs, target.diagram.counts()
    if _embeds(*start, dirs_w, counts_w):
        return 0, ReflectionSequence(())

    def inputs() -> str:
        return (f"source {source.tau} {list(source.diagram.counts())}, "
                f"target {target.tau} {list(target.diagram.counts())}")

    cap = _depth_cap(start)
    # state -> (parent state, op); the start maps to None
    parents: dict[_State, tuple[_State, ReflectionOp] | None] = {start: None}
    frontier = [start]
    for depth in range(1, cap + 1):
        layer: list[_State] = []
        for S in frontier:
            for op, T in _successors(S):
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
                if len(ops) != depth:
                    raise AssertionError(f"witness length disagrees with search depth; {inputs()}")
                return depth, ReflectionSequence(tuple(reversed(ops)))
        if not layer:
            raise AssertionError("search space exhausted; the empty module should be "
                                 f"a goal; {inputs()}")
        frontier = layer
    raise AssertionError(f"search exceeded its depth bound {cap}; {inputs()}")


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
