from __future__ import annotations

import importlib
import math
import random
import time

import pytest
from helpers import (all_dirs, all_intervals, bfs_min_steps, random_counted,
                     random_orientation, random_symbolic)

from zzdist import (COLIMIT, LIMIT, Orientation, PersistenceDiagram,
                    ReflectionOp, ReflectionSequence, SymbolicModule, act,
                    bottleneck_distance, canonical_type, cost, is_summand_upto_equiv,
                    min_steps, reflection_distance)


def tau(s: str) -> Orientation:
    return Orientation.from_string(s)


def sym(s: str, pts) -> SymbolicModule:
    t = tau(s)
    return SymbolicModule(t, PersistenceDiagram(t.n, tuple(pts)))


def test_cost_values():
    empty = ReflectionSequence(())
    three = ReflectionSequence((ReflectionOp(LIMIT, 2),) * 3)
    for p in (1, 2, math.inf):
        assert cost(empty, p) == 0.0
    assert cost(three, 1) == 3.0
    assert cost(three, 2) == pytest.approx(3 ** 0.5, abs=1e-12)
    assert cost(three, math.inf) == 1.0


def test_cost_subadditive_under_concatenation():
    rng = random.Random(105)
    op = ReflectionOp(LIMIT, 1, ">")
    for _ in range(50):
        a = ReflectionSequence((op,) * rng.randint(0, 6))
        b = ReflectionSequence((op,) * rng.randint(0, 6))
        both = ReflectionSequence(a.ops + b.ops)
        for p in (1, 1.5, 2, math.inf):
            assert cost(both, p) <= cost(a, p) + cost(b, p) + 1e-12


def test_p_validation():
    V = sym("<>", [(1, 3)])
    with pytest.raises(ValueError):
        reflection_distance(V, V, 0.5)
    with pytest.raises(ValueError):
        reflection_distance(V, V, True)
    with pytest.raises(ValueError):
        cost(ReflectionSequence(()), 0)


def test_single_interval_to_zero():
    V = sym("<>", [(1, 3)])
    O = sym("<>", [])
    assert min_steps(V, O) == 2
    assert min_steps(O, V) == 0
    got = reflection_distance(V, O, 1)
    assert got.value == 2.0 and got.steps == 2
    assert len(got.forward) == 2 and len(got.backward) == 0
    assert reflection_distance(V, O, 2).value == pytest.approx(2 ** 0.5, abs=1e-12)


def test_interval_to_zero_law_small():
    # annihilating one interval costs exactly its length, for every type
    for n in (2, 3):
        for t in all_dirs(n):
            O = SymbolicModule(Orientation(t), PersistenceDiagram(n, ()))
            for (b, d) in all_intervals(n):
                V = SymbolicModule(Orientation(t), PersistenceDiagram(n, ((b, d),)))
                got = reflection_distance(V, O, 1)
                assert got.value == float(d - b), (t, b, d)


def test_distance_ignores_simple_points():
    V = sym("><>", [(1, 1), (2, 2), (4, 4)])
    O = sym("><>", [])
    assert reflection_distance(V, O, 1).value == 0.0
    assert reflection_distance(V, O, math.inf).value == 0.0


def test_degenerate_pair_positive_distance():
    # equal diagrams, types differing at one non-flippable position
    V = sym(">>", [(1, 2), (2, 3)])
    W = sym("><", [(1, 2), (2, 3)])
    assert min_steps(V, W) == 1
    assert min_steps(W, V) == 1
    assert reflection_distance(V, W, 1).value == 1.0


def test_zero_iff_mutual_summand():
    rng = random.Random(107)
    for _ in range(60):
        n = rng.randint(2, 4)
        V = random_symbolic(rng, n, 2)
        W = SymbolicModule(V.tau if rng.random() < 0.5 else random_symbolic(rng, n, 0).tau,
                           random_symbolic(rng, n, 2).diagram)
        got = reflection_distance(V, W, 1)
        sv = SymbolicModule(V.tau, V.diagram.remove_simple())
        sw = SymbolicModule(W.tau, W.diagram.remove_simple())
        mutual = (is_summand_upto_equiv(sv.tau, sv.diagram, sw.tau, sw.diagram)
                  and is_summand_upto_equiv(sw.tau, sw.diagram, sv.tau, sv.diagram))
        assert (got.value == 0.0) == mutual


def test_symmetry():
    rng = random.Random(109)
    for _ in range(25):
        n = rng.randint(2, 4)
        V, W = random_symbolic(rng, n, 2), random_symbolic(rng, n, 2)
        for p in (1, 2):
            assert reflection_distance(V, W, p).value == reflection_distance(W, V, p).value


def test_triangle_inequality():
    rng = random.Random(113)
    for _ in range(20):
        n = rng.randint(2, 4)
        A, B, C = (random_symbolic(rng, n, 2) for _ in range(3))
        ab = reflection_distance(A, B, 1).value
        bc = reflection_distance(B, C, 1).value
        ac = reflection_distance(A, C, 1).value
        assert ac <= ab + bc + 1e-12


def test_witness_sequences_realize_the_search():
    rng = random.Random(131)
    for _ in range(25):
        n = rng.randint(2, 4)
        V, W = random_symbolic(rng, n, 2), random_symbolic(rng, n, 2)
        got = reflection_distance(V, W, 1)
        for seq, src, dst in ((got.forward, V, W), (got.backward, W, V)):
            state = SymbolicModule(canonical_type(src.tau, src.diagram.remove_simple().points),
                                   src.diagram.remove_simple())
            for op in seq:
                nxt = act(op, state)
                state = SymbolicModule(
                    canonical_type(nxt.tau, nxt.diagram.points), nxt.diagram)
            assert is_summand_upto_equiv(state.tau, state.diagram, dst.tau, dst.diagram)
        assert got.steps == max(len(got.forward), len(got.backward))
        assert got.value == (0.0 if got.steps == 0 else float(got.steps))


def test_search_failures_name_both_inputs(monkeypatch):
    # the package attribute of the same name is the function, not the module
    rd = importlib.import_module("zzdist.reflection_distance")
    monkeypatch.setattr(rd, "_depth_cap", lambda start: 0)
    with pytest.raises(AssertionError, match=r"depth bound 0; "
                       r"source >< \[\(1, 3, 1\)\], target >< \[\]"):
        rd.min_steps(sym("><", [(1, 3)]), sym("><", []))
    monkeypatch.undo()
    monkeypatch.setattr(rd, "_embeds", lambda *args: False)
    with pytest.raises(AssertionError, match=r"exhausted.*; "
                       r"source > \[\], target < \[\(1, 2, 2\)\]"):
        rd.min_steps(sym(">", []), sym("<", [(1, 2), (1, 2)]))


def _seeded_pairs(seed: int, count: int, max_n: int, max_points: int):
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        V, W = random_symbolic(rng, n, max_points), random_symbolic(rng, n, max_points)
        if rng.random() < 0.5:
            W = SymbolicModule(V.tau, W.diagram)
        pairs.append((V, W))
    return pairs


def test_min_steps_matches_memo_free_bfs():
    for V, W in _seeded_pairs(137, 150, 5, 2):
        assert min_steps(V, W) == bfs_min_steps(V, W), (V, W)
        assert min_steps(W, V) == bfs_min_steps(W, V), (W, V)


def test_search_is_independent_of_the_successor_memo(monkeypatch):
    rd = importlib.import_module("zzdist.reflection_distance")
    monkeypatch.setattr(rd, "_SUCCESSORS", {})
    pairs = _seeded_pairs(139, 150, 6, 2)

    def runs(V, W):
        got = rd.reflection_distance(V, W, 1)
        return got.steps, got.forward.ops, got.backward.ops

    cold = []
    for V, W in pairs:
        rd._SUCCESSORS.clear()
        cold.append(runs(V, W))
    for V, W in pairs:
        runs(V, W)
    warm = [runs(V, W) for V, W in reversed(pairs)]
    assert rd._SUCCESSORS
    assert warm[::-1] == cold


def test_scaling_every_multiplicity_changes_no_answer():
    # containment compares multiplicities, flippability and the images of
    # act ignore them, and every Hall condition of the bottleneck flows is
    # homogeneous in them: multiplying all of them by 10^12 must give the
    # same steps, witness runs and bottleneck values, at no extra cost
    rng = random.Random(151)
    scale = 10 ** 12
    start = time.perf_counter()
    for _ in range(200):
        n = rng.randint(2, 6)
        V, W = (SymbolicModule(random_orientation(rng, n), random_counted(rng, n, 3, 3))
                for _ in range(2))
        if rng.random() < 0.5:
            W = SymbolicModule(V.tau, W.diagram)
        big_v, big_w = (SymbolicModule(S.tau, PersistenceDiagram.from_counts(
            n, [(b, d, m * scale) for (b, d, m) in S.diagram.counts()])) for S in (V, W))
        assert reflection_distance(big_v, big_w, 1) == reflection_distance(V, W, 1), (V, W)
        for p in (1, 2, math.inf):
            assert (bottleneck_distance(big_v.diagram, big_w.diagram, p)
                    == bottleneck_distance(V.diagram, W.diagram, p)), (V, W, p)
    assert time.perf_counter() - start < 5.0
