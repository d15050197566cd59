"""Distance between zigzag modules by counting reflection steps.

Two modules are close when short runs of reflections carry each into a
summand of the other, up to reversing invertible arrows and ignoring
one-position summands.  The search runs over symbolic states: an
orientation normalized at every flippable arrow plus a sanitized
diagram.  Breadth-first search finds the fewest steps together with a
witness run; successor lists and finished searches are shared across
calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bottleneck import _check_p
from .diagrams import SymbolicModule, act
from .reflections import ReflectionSequence, all_ops
from .zigzag_core import canonical_type, is_summand_upto_equiv

_StateKey = tuple[tuple[str, ...], tuple[tuple[int, int], ...]]

# successor lists depend only on the state, so they are shared globally;
# fills are idempotent
_SUCCESSORS: dict[_StateKey, tuple] = {}
_SEARCHES: dict[tuple, tuple[int, ReflectionSequence]] = {}


def cost(seq: ReflectionSequence, p: float = 1) -> float:
    """Cost of a reflection run: its length to the power 1/p.

    The empty run costs 0 for every p, including infinity.
    """
    p = _check_p(p)
    length = len(seq)
    if length == 0:
        return 0.0
    return float(length) ** (1.0 / p)


def _canonical(S: SymbolicModule) -> SymbolicModule:
    diagram = S.diagram.remove_simple()
    return SymbolicModule(canonical_type(S.tau, diagram.points), diagram)


def _key(S: SymbolicModule) -> _StateKey:
    return (S.tau.dirs, S.diagram.points)


def _successors(S: SymbolicModule):
    key = _key(S)
    cached = _SUCCESSORS.get(key)
    if cached is None:
        cached = tuple((op, _canonical(act(op, S))) for op in all_ops(S.n))
        _SUCCESSORS[key] = cached
    return cached


def _depth_cap(start: SymbolicModule) -> int:
    return start.n * max(1, len(start.diagram.points))


def _search(source: SymbolicModule, target: SymbolicModule) -> tuple[int, ReflectionSequence]:
    """Fewest reflections carrying source into a summand of target, with
    a witness run realizing the minimum."""
    if source.n != target.n:
        raise ValueError(f"length mismatch: {source.n} vs {target.n}")
    start = _canonical(source)
    cache_key = (_key(start), target.tau.dirs, target.diagram.points)
    hit = _SEARCHES.get(cache_key)
    if hit is not None:
        return hit

    def is_goal(S: SymbolicModule) -> bool:
        return is_summand_upto_equiv(S.tau, S.diagram, target.tau, target.diagram)

    def inputs() -> str:
        return (f"source {source.tau} {list(source.diagram.counts())}, "
                f"target {target.tau} {list(target.diagram.counts())}")

    cap = _depth_cap(start)
    # key -> (parent key, op); the start maps to None
    parents: dict[_StateKey, tuple[_StateKey, object] | None] = {_key(start): None}
    frontier = [start]
    depth = 0
    goal_key = _key(start) if is_goal(start) else None
    while goal_key is None:
        depth += 1
        if depth > cap:
            raise AssertionError(f"search exceeded its depth bound {cap}; {inputs()}")
        layer: list[SymbolicModule] = []
        for S in frontier:
            sk = _key(S)
            for op, T in _successors(S):
                tk = _key(T)
                if tk in parents:
                    continue
                parents[tk] = (sk, op)
                if is_goal(T):
                    goal_key = tk
                    break
                layer.append(T)
            if goal_key is not None:
                break
        if goal_key is None:
            frontier = layer
            if not frontier:
                raise AssertionError("search space exhausted; the empty module should be "
                                     f"a goal; {inputs()}")

    ops = []
    walk = goal_key
    while parents[walk] is not None:
        walk, op = parents[walk]
        ops.append(op)
    ops.reverse()
    if len(ops) != depth:
        raise AssertionError(f"witness length disagrees with search depth; {inputs()}")
    result = (depth, ReflectionSequence(tuple(ops)))
    _SEARCHES[cache_key] = result
    return result


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
