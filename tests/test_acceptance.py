"""End-to-end acceptance checks, one verdict line per numbered item.

Each test prints (and registers for the terminal summary) a single
"CRITERION i: PASS/FAIL" line.  Item 1 is asserted exactly as published
and is an expected failure: the published interval values for the worked
reflection example disagree with the output of the concrete functor, as
independently confirmed by the rank bookkeeping, the derived movement
rules, and the dimension conservation check.  The companion test pins
the machine-verified values and passes.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from zzdist import (COLIMIT, LIMIT, Matching, Orientation, PersistenceDiagram,
                    ReflectionOp, SymbolicModule, ZigzagModule, act,
                    apply, bottleneck_distance, classify_index,
                    combine_matchings, conjugate, decompose, is_invertible,
                    is_summand_upto_equiv, reflection_distance,
                    stability_experiment, synthesize)
from helpers import (all_dirs, all_intervals, all_ops, brute_force_bottleneck,
                     interval_image, random_diagram, random_matrix,
                     random_orientation, random_symbolic, synthesized_pair)

F, B = ">", "<"

RESULTS: dict[int, tuple[bool, str]] = {}


def record(num: int, ok: bool, note: str = "") -> None:
    RESULTS[num] = (bool(ok), note)
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f"  [{note}]"
    print(line)


def worked_example(p: int = 2) -> ZigzagModule:
    tau = Orientation((F, B, F))
    pts = ((1, 4), (1, 2), (2, 3), (2, 3), (3, 3))
    return synthesize(tau, pts, p)


@pytest.mark.xfail(strict=True,
                   reason="published fixture values contradict the concrete functor")
def test_criterion_01_worked_example_as_published():
    V = worked_example()
    first = decompose(apply(ReflectionOp(LIMIT, 2), V)).counts()
    second = decompose(apply(ReflectionOp(COLIMIT, 3), V)).counts()
    ok = (first == ((1, 1, 1), (1, 4, 1), (3, 3, 3))
          and second == ((1, 2, 1), (1, 4, 1), (2, 2, 2)))
    record(1, ok, "published values; the verified output is pinned by the companion test")
    assert ok


def test_criterion_01_worked_example_verified():
    t0 = time.perf_counter()
    for p in (2, 5):
        V = worked_example(p)
        assert decompose(apply(ReflectionOp(LIMIT, 2), V)).counts() == \
            ((1, 1, 1), (1, 4, 1), (2, 3, 1), (3, 3, 2))
        assert decompose(apply(ReflectionOp(COLIMIT, 3), V)).counts() == \
            ((1, 3, 1), (1, 4, 1), (2, 2, 2))
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_single_interval_distances():
    t0 = time.perf_counter()
    V = SymbolicModule(Orientation((B, F)), PersistenceDiagram(3, ((1, 3),)))
    O = SymbolicModule(V.tau, PersistenceDiagram(3, ()))
    assert reflection_distance(V, O, 1).value == 2.0
    for n in range(2, 7):
        for dirs in all_dirs(n):
            tau = Orientation(dirs)
            empty = SymbolicModule(tau, PersistenceDiagram(n, ()))
            for (b, d) in all_intervals(n):
                S = SymbolicModule(tau, PersistenceDiagram(n, ((b, d),)))
                for p in (1, 2):
                    got = reflection_distance(S, empty, p).value
                    assert abs(got - float(d - b) ** (1.0 / p)) <= 1e-12, (dirs, b, d, p)
    elapsed = time.perf_counter() - t0
    record(2, elapsed < 5.0, f"{elapsed:.2f}s")
    assert elapsed < 5.0


def chain_module(c: int) -> SymbolicModule:
    n = 4 * c
    dirs = tuple((B, F, B, F)[i % 4] for i in range(n - 1))
    pts = tuple((4 * j + 1, 4 * j + 2) for j in range(c))
    return SymbolicModule(Orientation(dirs), PersistenceDiagram(n, pts))


def test_criterion_03_chain_distances():
    t0 = time.perf_counter()
    for c in (1, 2, 3):
        V = chain_module(c)
        O = SymbolicModule(V.tau, PersistenceDiagram(V.n, ()))
        assert reflection_distance(V, O, 1).value == float(c), c
    elapsed = time.perf_counter() - t0
    record(3, elapsed < 60.0, f"{elapsed:.2f}s")
    assert elapsed < 60.0


def test_criterion_04_stability_experiment():
    t0 = time.perf_counter()
    rep = stability_experiment(200, 6, 3, 1)
    assert len(rep.trials) == 200
    for t in rep.trials:
        assert t["d_b1"] <= t["d_r1"], t
        assert t["d_binf"] <= t["d_b1"] <= 2 * t["d_binf"], t
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 300.0
    record(4, ok, f"200 trials, {elapsed:.2f}s")
    assert ok


def _invertible(rng, dim, p):
    while True:
        M = random_matrix(rng, dim, dim, p)
        if is_invertible(M):
            return M


def test_criterion_05_decomposition_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(501)
    for trial in range(500):
        p = 2 if trial % 2 == 0 else 5
        n = rng.randint(2, 8)
        S, V = synthesized_pair(rng, n, 5, p)
        W, _ = conjugate(V, tuple(_invertible(rng, dim, p) for dim in V.dims))
        assert decompose(W) == S.diagram, (trial, S)
        for i in range(1, n + 1):
            cover = sum(1 for (b, d) in S.diagram.points if b <= i <= d)
            assert W.dims[i - 1] == cover, (trial, i)
    elapsed = time.perf_counter() - t0
    record(5, elapsed < 120.0, f"500 modules, {elapsed:.2f}s")
    assert elapsed < 120.0


def _sink_row(k, b, d):
    if (b, d) == (k, k):
        return None
    if d == k - 1:
        return (b, k)
    if d == k and b <= k - 1:
        return (b, k - 1)
    if b == k + 1:
        return (k, d)
    if b == k and d >= k + 1:
        return (k + 1, d)
    return (b, d)


def _first_swap_row(b, d):
    if (b, d) == (1, 1):
        return None
    if b == 1:
        return (2, d)
    if b == 2:
        return (1, d)
    return (b, d)


def _last_swap_row(n, b, d):
    if (b, d) == (n, n):
        return None
    if d == n:
        return (b, n - 1)
    if d == n - 1:
        return (b, n)
    return (b, d)


def test_criterion_06_symbolic_matches_concrete():
    rng = random.Random(601)
    for trial in range(200):
        p = 2 if trial % 2 == 0 else 5
        n = rng.randint(2, 6)
        S, V = synthesized_pair(rng, n, 4, p)
        for op in all_ops(n):
            W = apply(op, V)
            sym = act(op, S)
            assert decompose(W).remove_simple() == sym.diagram, (trial, op)
            assert W.tau == sym.tau

    for n in (3, 4, 5):
        for dirs in all_dirs(n):
            tau = Orientation(dirs)
            for op in all_ops(n):
                for (b, d) in all_intervals(n):
                    img = interval_image(op, tau, b, d)
                    if img is None:
                        assert b == d, (dirs, op, b, d)
                    else:
                        assert abs(img[0] - b) + abs(img[1] - d) <= 1, (dirs, op, b, d)

    # the stated movement tables: sink and source positions in the
    # interior, pass-through forward positions, and the four padded ends
    for n in (3, 4, 5):
        for dirs in all_dirs(n):
            tau = Orientation(dirs)
            for k in range(2, n):
                kind = classify_index(tau, k)
                for (b, d) in all_intervals(n):
                    if kind == "sink":
                        assert interval_image(ReflectionOp(LIMIT, k), tau, b, d) \
                            == _sink_row(k, b, d)
                    elif kind == "source":
                        assert interval_image(ReflectionOp(COLIMIT, k), tau, b, d) \
                            == _sink_row(k, b, d)
                    elif kind == "forward_flow":
                        lim = interval_image(ReflectionOp(LIMIT, k), tau, b, d)
                        col = interval_image(ReflectionOp(COLIMIT, k), tau, b, d)
                        if (b, d) == (k, k):
                            assert lim is None and col is None
                        else:
                            assert lim == ((b, k) if d == k - 1 else
                                           (k + 1, d) if b == k else (b, d))
                            assert col == ((b, k - 1) if d == k and b < k else
                                           (k, d) if b == k + 1 else (b, d))
    for n in (2, 3, 4):
        for dirs in all_dirs(n):
            tau = Orientation(dirs)
            for (b, d) in all_intervals(n):
                if tau.entry(1) == B:
                    assert interval_image(ReflectionOp(LIMIT, 1, F), tau, b, d) \
                        == _first_swap_row(b, d)
                if tau.entry(1) == F:
                    assert interval_image(ReflectionOp(COLIMIT, 1, B), tau, b, d) \
                        == _first_swap_row(b, d)
                if tau.entry(n - 1) == F:
                    assert interval_image(ReflectionOp(LIMIT, n, B), tau, b, d) \
                        == _last_swap_row(n, b, d)
                if tau.entry(n - 1) == B:
                    assert interval_image(ReflectionOp(COLIMIT, n, F), tau, b, d) \
                        == _last_swap_row(n, b, d)
    record(6, True, "200 modules, all ops; movement tables verbatim")


def test_criterion_07_bottleneck_matches_brute_force():
    t0 = time.perf_counter()
    pool = [(1, 1), (1, 2), (1, 4), (1, 5), (2, 2), (2, 3), (2, 5),
            (3, 3), (3, 5), (4, 5)]
    rng = random.Random(701)
    for _ in range(100):
        S = PersistenceDiagram(5, tuple(rng.sample(pool, rng.randint(0, 4))))
        T = PersistenceDiagram(5, tuple(rng.sample(pool, rng.randint(0, 4))))
        for p in (1, 2, math.inf):
            got = bottleneck_distance(S, T, p)
            want = brute_force_bottleneck(S.points, T.points, p)
            assert got == want, (S.points, T.points, p)
    elapsed = time.perf_counter() - t0
    record(7, elapsed < 60.0, f"{elapsed:.2f}s, exact")
    assert elapsed < 60.0


def _random_matching(rng, ns, nt):
    k = rng.randint(0, min(ns, nt))
    return Matching(ns, nt, tuple(zip(rng.sample(range(ns), k),
                                      rng.sample(range(nt), k))))


def test_criterion_08_combined_matching_properties():
    rng = random.Random(801)
    for _ in range(500):
        ns, nt = rng.randint(0, 8), rng.randint(0, 8)
        f = _random_matching(rng, ns, nt)
        g = _random_matching(rng, nt, ns)
        M = combine_matchings(f, g)
        assert f.coimage <= M.coimage
        assert g.coimage <= M.image
        allowed = set(f.pairs) | {(i, j) for (j, i) in g.pairs}
        assert set(M.pairs) <= allowed
    record(8, True, "500 pairs")


def test_criterion_09_pseudometric_suite():
    rng = random.Random(901)
    for _ in range(100):
        n = rng.randint(2, 5)
        A = random_symbolic(rng, n, 2)
        Bm = random_symbolic(rng, n, 2)
        C = random_symbolic(rng, n, 2)
        dab = reflection_distance(A, Bm, 1).value
        assert dab == reflection_distance(Bm, A, 1).value
        dbc = reflection_distance(Bm, C, 1).value
        dac = reflection_distance(A, C, 1).value
        assert dac <= dab + dbc

        zero = dab == 0.0
        sa = A.diagram.remove_simple()
        sb = Bm.diagram.remove_simple()
        mutual = (is_summand_upto_equiv(A.tau, sa, Bm.tau, Bm.diagram)
                  and is_summand_upto_equiv(Bm.tau, sb, A.tau, A.diagram))
        assert zero == mutual

        pts = tuple((i, i) for i in sorted({rng.randint(1, n) for _ in range(3)}))
        S = SymbolicModule(random_orientation(rng, n), PersistenceDiagram(n, pts))
        O = SymbolicModule(S.tau, PersistenceDiagram(n, ()))
        assert reflection_distance(S, O, 1).value == 0.0
    record(9, True, "100 triples")


def test_criterion_10_degenerate_pair():
    t0 = time.perf_counter()
    pts = ((1, 2), (2, 3))
    V = SymbolicModule(Orientation((F, F)), PersistenceDiagram(3, pts))
    W = SymbolicModule(Orientation((F, B)), PersistenceDiagram(3, pts))
    assert bottleneck_distance(V.diagram, W.diagram, 1) == 0.0
    r = reflection_distance(V, W, 1)
    assert r.value > 0.0
    # frozen from the oracle search: one reflection in each direction
    assert r.steps == 1 and r.value == 1.0
    elapsed = time.perf_counter() - t0
    record(10, elapsed < 5.0, f"d_b=0, d_R=1, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_11_same_type_bilipschitz():
    rng = random.Random(1101)
    for _ in range(100):
        n = rng.randint(2, 5)
        tau = random_orientation(rng, n)
        A = SymbolicModule(tau, random_diagram(rng, n, 2))
        Bm = SymbolicModule(tau, random_diagram(rng, n, 2))
        dr = reflection_distance(A, Bm, 1).value
        db = bottleneck_distance(A.diagram, Bm.diagram, 1)
        assert dr <= n * n * (n + 1) * db, (A, Bm, dr, db)
    record(11, True, "100 same-type pairs")
