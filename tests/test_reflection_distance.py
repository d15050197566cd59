from __future__ import annotations

import importlib
import math
import random
import sys
import threading
import time

import pytest
from helpers import (all_dirs, all_intervals, bfs_min_steps, bfs_search, count_calls,
                     random_counted, random_orientation, random_symbolic, reference_successors,
                     stability_states)

from zzdist import (COLIMIT, LIMIT, Orientation, PersistenceDiagram,
                    ReflectionOp, ReflectionSequence, SymbolicModule, act, apply,
                    bottleneck_distance, canonical_type, cost, decompose,
                    is_summand_upto_equiv, min_steps, random_symbolic_module,
                    reflection_distance, synthesize)
from zzdist.diagrams import _state
from zzdist.reflection_distance import _lower_bound, _search, _successors
from zzdist.zigzag_core import _embeds


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


def test_entry_points_refuse_what_is_no_symbolic_module():
    # these once raised AttributeError: ... has no attribute 'n'
    V = sym("<>", [(1, 3)])
    rows = [(lambda: reflection_distance([], V), "^V is list, expected SymbolicModule$"),
            (lambda: reflection_distance(V, V.diagram),
             "^W is PersistenceDiagram, expected SymbolicModule$"),
            (lambda: min_steps(V, None), "^target is NoneType, expected SymbolicModule$"),
            (lambda: min_steps((), V), "^source is tuple, expected SymbolicModule$")]
    for call, message in rows:
        with pytest.raises(ValueError, match=message):
            call()


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
    # no state is a goal, so the search empties its heap
    monkeypatch.setattr(rd, "_embeds", lambda *args: False)
    with pytest.raises(AssertionError, match=r"heap exhausted with no goal, .*; "
                       r"source >< \[\(1, 3, 1\), \(2, 3, 1\)\], target << \[\]"):
        rd.min_steps(sym("><", [(1, 3), (2, 3)]), sym("<<", []))


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


def test_a_start_that_is_a_goal_is_answered_before_the_search_builds_anything(monkeypatch):
    # pairs rich in distance 0: the target holds the source's diagram, and
    # most arrows of the two types agree; the depths still equal the
    # breadth-first oracle's both ways, and a start that is a goal returns
    # the empty run with no successor list asked for and no run built
    rd = importlib.import_module("zzdist.reflection_distance")
    calls = count_calls(monkeypatch, rd, "_successors")
    inits = count_calls(monkeypatch, ReflectionSequence, "__init__")
    rng = random.Random(191)
    zero = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        W = random_symbolic(rng, n, 3)
        part = [c for c in W.diagram.counts() if rng.random() < 0.6]
        dirs = [d if rng.random() < 0.8 else rng.choice("<>") for d in W.tau.dirs]
        V = SymbolicModule(Orientation(dirs), PersistenceDiagram.from_counts(n, part))
        for A, B in ((V, W), (W, V)):
            before = calls[0], inits[0]
            run = _search(A, B)
            after = calls[0], inits[0]
            assert len(run) == bfs_min_steps(A, B), (A, B)
            if not run:
                zero += 1
                assert run == ReflectionSequence(()) and after == before, (A, B)
    assert zero > 300, zero


def test_search_is_independent_of_the_successor_memo(monkeypatch):
    rd = importlib.import_module("zzdist.reflection_distance")
    pairs = _seeded_pairs(139, 150, 6, 2)

    def runs(V, W):
        got = rd.reflection_distance(V, W, 1)
        return got.steps, got.forward.ops, got.backward.ops

    cold = []
    for V, W in pairs:
        rd.clear_memo()
        cold.append(runs(V, W))
    for V, W in pairs:
        runs(V, W)
    warm = [runs(V, W) for V, W in reversed(pairs)]
    info = rd.memo_info()
    assert info.hits and not info.evictions
    # eight successors: nearly every search empties the memo of lists it needs again
    monkeypatch.setattr(rd, "_MEMO_BOUND", 8)
    rd.clear_memo()
    evicted = [runs(V, W) for V, W in pairs]
    info = rd.memo_info()
    assert info.evictions and info.held <= 8
    assert warm[::-1] == cold == evicted


def _held_once(rd) -> None:
    """Every key, successor state and op in the memo is the object
    ``_canon`` holds for it, ``_canon`` holds nothing else, and ``held``
    counts the memo's successors within the bound."""
    held = set()
    for S, out in rd._memo.items():
        for T in (S, *(x for pair in out for x in pair)):
            assert rd._canon[T] is T, T
            held.add(T)
    assert len(rd._canon) == len(held)
    assert rd.memo_info().held == sum(map(len, rd._memo.values())) <= rd._MEMO_BOUND


@pytest.mark.parametrize("bound", [40, 10 ** 9])
def test_each_held_state_is_one_object(monkeypatch, bound):
    rd = importlib.import_module("zzdist.reflection_distance")
    monkeypatch.setattr(rd, "_MEMO_BOUND", bound)
    rd.clear_memo()
    for V, W in _seeded_pairs(173, 120, 7, 3):
        rd.reflection_distance(V, W, 1)
        _held_once(rd)
    # a successor equal to a memo key is that key object
    keys = {S: S for S in rd._memo}
    shared = [T for out in rd._memo.values() for _, T in out if T in keys]
    assert shared and all(T is keys[T] for T in shared)
    assert (rd.memo_info().evictions > 0) == (bound == 40)


def test_memo_never_holds_more_successors_than_its_bound(monkeypatch):
    rd = importlib.import_module("zzdist.reflection_distance")
    successors, seen, calls = rd._successors, [], []

    def checked(state, *table):
        misses = rd.memo_info().misses
        out = successors(state, *table)
        calls.append(state)
        if rd.memo_info().misses > misses:
            seen.append(len(out))
        assert rd.memo_info().held <= 30
        return out

    monkeypatch.setattr(rd, "_MEMO_BOUND", 30)
    monkeypatch.setattr(rd, "_successors", checked)
    rd.clear_memo()
    pairs = _seeded_pairs(179, 60, 8, 3)
    for V, W in pairs:
        rd.reflection_distance(V, W, 1)
    info = rd.memo_info()
    # the searches overflow the bound many times over
    assert sum(seen) > 50 * 30 and info.evictions > 100 and info.misses == len(seen)
    assert info.hits + info.misses == len(calls)
    _held_once(rd)
    # a list longer than the bound is returned and not held
    long = _state((">",) * 39, tuple((b, b + 1, 1) for b in range(1, 40, 3)))
    out = rd._successors(long)
    assert len(out) > 30 and long not in rd._memo and rd.memo_info().held <= 30
    monkeypatch.setattr(rd, "_MEMO_BOUND", 10 ** 9)
    assert successors(long) == out and long in rd._memo


def test_threads_share_the_memo_without_losing_count(monkeypatch):
    rd = importlib.import_module("zzdist.reflection_distance")
    monkeypatch.setattr(rd, "_MEMO_BOUND", 30)
    rd.clear_memo()
    pairs = _seeded_pairs(181, 40, 8, 3)
    want = [rd.reflection_distance(V, W, 1).steps for V, W in pairs]
    got, errors = {}, []

    def work(t):
        try:
            for i in range(t, len(pairs) * 6, 4):
                V, W = pairs[i % len(pairs)]
                got[i] = rd.reflection_distance(V, W, 1).steps
        except Exception as e:  # reported below, not lost in the thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and not errors, errors
    assert got == {i: want[i % len(pairs)] for i in range(len(pairs) * 6)}
    assert rd.memo_info().evictions
    _held_once(rd)


def test_the_stability_state_space_fits_the_memo(monkeypatch):
    # the stability benchmark draws lengths 2..8 with at most two intervals;
    # every state it can reach, closed under reflection, fits the memo, so
    # the memo is never emptied there
    rd = importlib.import_module("zzdist.reflection_distance")
    states = stability_states()
    bound = rd._MEMO_BOUND
    monkeypatch.setattr(rd, "_MEMO_BOUND", 10 ** 9)
    rd.clear_memo()
    held = 0
    for S in states:
        out = rd._successors(S)
        assert {T for _, T in out} <= states, S
        assert all(_state(*T) == T for T in (S, *(T for _, T in out))), S
        held += len(out)
    rd.clear_memo()
    assert (len(states), held) == (5_675, 36_156) and held <= bound


def test_astar_matches_the_bfs_oracle_and_its_witnesses_reach_goals():
    for V, W in _seeded_pairs(157, 300, 10, 3):
        run = _search(V, W)
        assert len(run) == bfs_search(V, W)[0], (V, W)
        state = _state(V.tau.dirs, V.diagram.counts())
        for op in run:
            S = act(op, SymbolicModule(Orientation(state[0]),
                                       PersistenceDiagram.from_counts(V.n, state[1])))
            state = _state(S.tau.dirs, S.diagram.counts())
        assert _embeds(*state, W.tau.dirs, W.diagram.counts()), (V, W)
        if V.n <= 5:
            # concretely: the search drops one-position summands, and a later
            # reflection can grow one again, so they are split off every step
            M = synthesize(V.tau, V.diagram.remove_simple().points)
            for op in run:
                M = apply(op, M)
                M = synthesize(M.tau, decompose(M).remove_simple().points)
            assert is_summand_upto_equiv(M.tau, decompose(M), W.tau, W.diagram), (V, W)


def test_successors_keep_the_first_op_to_each_other_state():
    # a miss tries only positions next to an interval end and edits only
    # what each op changes; the reference moves the whole state by every
    # op.  Long modules have many positions that no interval end is near
    rd = importlib.import_module("zzdist.reflection_distance")
    rd.clear_memo()
    states = sorted(stability_states())
    rng = random.Random(20261019)
    for _ in range(2000):
        n = rng.randint(2, 14)
        states.append(_state(random_orientation(rng, n).dirs,
                             random_counted(rng, n, 6, 3).counts()))
    rng = random.Random(167)
    for i in range(320):
        n = rng.randint(2, 9) if i < 300 else rng.randint(100, 400)
        states.append(_state(random_orientation(rng, n).dirs,
                             random_counted(rng, n, 4, 2).counts()))
    tables: dict = {}  # ops by position, shared as one search shares them, one per length
    for S in states:
        assert _successors(S, tables.setdefault(len(S[0]), {})) == reference_successors(S), S
    rd.clear_memo()


def test_lower_bound_is_zero_on_goals_and_drops_at_most_one_a_step():
    rng = random.Random(163)
    for _ in range(300):
        n = rng.randint(2, 8)
        S = SymbolicModule(random_orientation(rng, n), random_counted(rng, n, 4, 2))
        W = SymbolicModule(random_orientation(rng, n), random_counted(rng, n, 4, 2))
        state = _state(S.tau.dirs, S.diagram.counts())
        h = _lower_bound(state[1], W.diagram.counts())
        for op, T in _successors(state):
            assert h <= _lower_bound(T[1], W.diagram.counts()) + 1, (S, W, op)
        part = [c for c in W.diagram.counts() if rng.random() < 0.5]
        goal = _state(W.tau.dirs, PersistenceDiagram.from_counts(n, part).counts())
        assert _embeds(*goal, W.tau.dirs, W.diagram.counts())
        assert _lower_bound(goal[1], W.diagram.counts()) == 0, (part, W)
    assert _lower_bound(((1, 4, 2), (2, 3, 1)), ()) == 3
    assert _lower_bound(((1, 4, 2), (2, 3, 1)), ((1, 3, 1), (2, 2, 5))) == 1


def test_deep_pair_is_solved_fast():
    # breadth-first search expands about 32,000 states on this pair, A* 227
    rng = random.Random(1018)
    V = random_symbolic_module(rng, 16, 3)
    W = random_symbolic_module(rng, 16, 3)
    start = time.perf_counter()
    assert min_steps(V, W) == 11
    assert time.perf_counter() - start < 5.0


def test_search_work_on_the_n12_set_does_not_grow():
    # 40 seeded n = 12 pairs, both directions, each from an empty memo:
    # memo misses count the states expanded
    rd = importlib.import_module("zzdist.reflection_distance")
    depths, expanded = [], 0
    for s in range(40):
        rng = random.Random(s)
        V, W = random_symbolic_module(rng, 12, 4), random_symbolic_module(rng, 12, 4)
        for A, B in ((V, W), (W, V)):
            rd.clear_memo()
            depths.append(min_steps(A, B))
            expanded += rd.memo_info().misses
    rd.clear_memo()
    assert depths == [2, 9, 0, 11, 3, 0, 8, 5, 0, 4, 11, 0, 8, 0, 4, 0, 0, 4, 7, 0,
                      3, 10, 0, 4, 9, 3, 0, 8, 0, 0, 6, 6, 4, 6, 3, 0, 6, 0, 3, 0,
                      4, 7, 3, 0, 3, 6, 0, 9, 9, 2, 9, 0, 0, 4, 3, 1, 6, 6, 0, 5,
                      7, 6, 0, 5, 0, 0, 11, 0, 7, 3, 1, 10, 7, 7, 0, 0, 2, 7, 0, 3]
    assert expanded <= 5_354


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
