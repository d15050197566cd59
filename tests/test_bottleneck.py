from __future__ import annotations

import math
import random
import time
from collections import Counter

import pytest
from helpers import (brute_force_bottleneck, diagonal_penalty,
                     expanded_bottleneck, point_dist, random_counted, random_diagram)

from zzdist import (Matching, PersistenceDiagram, bottleneck_distance,
                    combine_matchings, matching_cost, optimal_matching)
from zzdist import bottleneck
from zzdist.bottleneck import _check_p, _penalty, _point_dist, _saturate, _table


def pd(n, pts):
    return PersistenceDiagram(n, tuple(pts))


def test_matching_validation():
    M = Matching(2, 3, ((0, 2), (1, 0)))
    assert M.coimage == {0, 1} and M.image == {0, 2}
    with pytest.raises(ValueError):
        Matching(2, 3, ((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        Matching(2, 3, ((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        Matching(2, 3, ((2, 0),))
    with pytest.raises(ValueError):
        Matching(2, 3, ((0, 3),))
    # sizes are nonnegative exact integers, as every other constructor's
    for args in ((-3, -2, ()), (True, 1, ((0, 0),)), (1.5, 2, ())):
        with pytest.raises(ValueError, match="matching sizes"):
            Matching(*args)


def test_matching_cost_fixtures():
    S = pd(4, [(1, 3), (2, 4)])
    ident = Matching(2, 2, ((0, 0), (1, 1)))
    for p in (1, 2, math.inf):
        assert matching_cost(S, S, ident, p) == 0.0
    lone = pd(4, [(1, 3)])
    none = Matching(1, 0, ())
    assert matching_cost(lone, pd(4, []), none, 1) == 2.0
    assert matching_cost(lone, pd(4, []), none, math.inf) == 1.0
    assert matching_cost(pd(4, []), pd(4, []), Matching(0, 0, ()), 2) == 0.0


def test_matching_cost_mixes_pairs_and_penalties():
    S = pd(5, [(1, 2), (1, 5)])
    T = pd(5, [(1, 3)])
    M = Matching(2, 1, ((1, 0),))
    # matched (1,5)-(1,3) at l1 distance 2; unmatched (1,2) pays 1
    assert matching_cost(S, T, M, 1) == 2.0
    M = Matching(2, 1, ((0, 0),))
    assert matching_cost(S, T, M, 1) == 4.0
    with pytest.raises(ValueError):
        matching_cost(S, T, Matching(1, 1, ()), 1)


def test_bottleneck_identical_diagrams():
    rng = random.Random(137)
    for _ in range(20):
        D = random_diagram(rng, rng.randint(2, 6), 4)
        for p in (1, 2, math.inf):
            assert bottleneck_distance(D, D, p) == 0.0


def test_bottleneck_zero_iff_equal_multisets():
    rng = random.Random(139)
    for _ in range(40):
        n = rng.randint(2, 5)
        S, T = random_diagram(rng, n, 3), random_diagram(rng, n, 3)
        d = bottleneck_distance(S, T, 1)
        # diagonal points can be dropped at zero cost, so they never separate
        assert (d == 0.0) == (S.remove_simple().counts() == T.remove_simple().counts())


def test_bottleneck_matches_brute_force():
    rng = random.Random(149)
    pool = [(1, 2), (1, 4), (2, 3), (2, 5), (3, 3), (1, 5), (4, 5), (2, 2), (3, 5), (1, 1)]
    for _ in range(60):
        S = pd(5, rng.sample(pool, rng.randint(0, 4)))
        T = pd(5, rng.sample(pool, rng.randint(0, 4)))
        for p in (1, 2, math.inf):
            got = bottleneck_distance(S, T, p)
            want = brute_force_bottleneck(S.points, T.points, p)
            assert got == pytest.approx(want, abs=1e-9), (S.points, T.points, p)


def test_bottleneck_sandwich():
    rng = random.Random(151)
    for _ in range(60):
        n = rng.randint(2, 6)
        S, T = random_diagram(rng, n, 4), random_diagram(rng, n, 4)
        d1 = bottleneck_distance(S, T, 1)
        dinf = bottleneck_distance(S, T, math.inf)
        assert dinf <= d1 <= 2 * dinf


def test_bottleneck_symmetry_and_triangle():
    rng = random.Random(157)
    for _ in range(30):
        n = rng.randint(2, 5)
        A, B, C = (random_diagram(rng, n, 3) for _ in range(3))
        for p in (1, math.inf):
            assert bottleneck_distance(A, B, p) == bottleneck_distance(B, A, p)
            assert (bottleneck_distance(A, C, p)
                    <= bottleneck_distance(A, B, p) + bottleneck_distance(B, C, p) + 1e-12)


def test_optimal_matching_witness_realizes_threshold():
    rng = random.Random(163)
    for _ in range(40):
        n = rng.randint(2, 6)
        S, T = random_diagram(rng, n, 4), random_diagram(rng, n, 4)
        for p in (1, 2, math.inf):
            eta, M = optimal_matching(S, T, p)
            assert matching_cost(S, T, M, p) <= eta + 1e-12
            assert bottleneck_distance(S, T, p) == eta
            # every point too expensive to leave unmatched is covered
            for i, x in enumerate(S.points):
                if diagonal_penalty(x, p) > eta:
                    assert i in M.coimage
            for j, y in enumerate(T.points):
                if diagonal_penalty(y, p) > eta:
                    assert j in M.image


def test_optimal_matching_matches_expanded_scan():
    # counted flow plus binary search against one vertex per copy and a
    # linear scan; raw sequences in shuffled order check that the witness
    # indexes the caller's input order, and the value path, which checks
    # counted flows and never expands copies, must give the same value.
    # Lengths up to 24 and p = 1000 take every row expression of the table.
    rng = random.Random(173)
    for trials, n_range, max_distinct, max_mult in ((500, (2, 7), 4, 5), (120, (8, 24), 6, 4)):
        for trial in range(trials):
            n = rng.randint(*n_range)
            S, T = (_repeated_points(rng, n, max_distinct, max_mult) for _ in range(2))
            if trial % 2:
                S, T = pd(n, S), pd(n, T)
            s = S.points if trial % 2 else S
            t = T.points if trial % 2 else T
            for p in (1, 2, math.inf, 1000):
                eta, M = optimal_matching(S, T, p)
                assert bottleneck_distance(S, T, p) == eta == expanded_bottleneck(s, t, p), \
                    (s, t, p)
                assert matching_cost(S, T, M, p) <= eta
                assert all(i in M.coimage for i, x in enumerate(s)
                           if diagonal_penalty(x, p) > eta)
                assert all(j in M.image for j, y in enumerate(t)
                           if diagonal_penalty(y, p) > eta)


def test_bottleneck_distance_checks_the_counted_flows(monkeypatch):
    # a flow on an edge longer than the threshold, or one that leaves a
    # point too expensive to drop unplaced, must not pass the check
    def far_saturate(supply, capacity, neighbours):
        return {i: {len(capacity) - 1: units} for i, units in supply.items()}

    S = pd(9, [(1, 5), (2, 9)])
    counts = r"\(p=inf; counts \[\(1, 5, 1\), \(2, 9, 1\)\] and \[\(1, 5, 1\), \(2, 9, 1\)\]\)"
    for fake, realized in ((far_saturate, r"4\.0"), (lambda *args: {}, r"3\.5")):
        monkeypatch.setattr(bottleneck, "_saturate", fake)
        with pytest.raises(AssertionError,
                           match=f"combined matching costs {realized}, above threshold 0\\.0 "
                                 + counts):
            bottleneck_distance(S, S, math.inf)


def test_least_cost_bound_never_exceeds_the_distance(monkeypatch):
    # the copies of a point are all matched within a cost only if the
    # points that near hold as many copies, so the largest bound over the
    # points of both sides is at most the distance, and often equal to it
    real, bounds = bottleneck._least_cost, []

    def recorded(*args):
        bounds.append(real(*args))
        return bounds[-1]

    monkeypatch.setattr(bottleneck, "_least_cost", recorded)
    rng = random.Random(211)
    tight = 0
    for _ in range(300):
        n = rng.randint(2, 10)
        S, T = (random_counted(rng, n, 5, 4) for _ in range(2))
        for p in (1, 2, math.inf):
            bounds.clear()
            eta = expanded_bottleneck(S.points, T.points, p)
            assert bottleneck_distance(S, T, p) == eta
            assert max(bounds, default=0.0) <= eta, (S.counts(), T.counts(), p)
            tight += max(bounds, default=0.0) == eta
    assert tight > 800  # 876 of the 900 calls


def test_optimal_matching_checks_the_combined_matching(monkeypatch):
    # a merged matching that drops a point too expensive to drop must not
    # pass the check, and the message names p and both inputs' counts, a
    # raw input's in input order
    monkeypatch.setattr(bottleneck, "combine_matchings",
                        lambda f, g: Matching(f.n_source, f.n_target, ()))
    S = pd(9, [(1, 5), (2, 9)])
    with pytest.raises(AssertionError, match=r"combined matching costs 3\.5, above threshold "
                       r"0\.0 \(p=inf; counts \[\(1, 5, 1\), \(2, 9, 1\)\] and "
                       r"\[\(1, 5, 1\), \(2, 9, 1\)\]\)"):
        optimal_matching(S, S, math.inf)
    raw = [(2, 9), (1, 5), (2, 9)]
    with pytest.raises(AssertionError, match=r"combined matching costs 7\.0, above threshold "
                       r"0\.0 \(p=1\.0; counts \[\(2, 9, 2\), \(1, 5, 1\)\] and "
                       r"\[\(1, 5, 1\), \(2, 9, 2\)\]\)"):
        optimal_matching(raw, pd(9, raw), 1)


def test_optimal_matching_checks_raw_inputs_once(monkeypatch):
    # one check per input and one per Matching built: f, g and their merge
    calls = []
    real = bottleneck._exact_ints
    monkeypatch.setattr(bottleneck, "_exact_ints",
                        lambda *args: calls.append(args[1]) or real(*args))
    S, T = [(2, 9), (1, 5), (2, 9)], [(1, 4), (2, 2), (3, 5)]
    eta, M = optimal_matching(S, T, 1)
    assert calls == ["endpoints", "endpoints", "indices", "indices", "indices"]
    assert eta == bottleneck_distance(pd(9, S), pd(9, T), 1) == matching_cost(S, T, M, 1)


def test_table_is_point_dist_and_penalty_bit_for_bit():
    # the rows at p = 1 and inf and the general row must give what the
    # pairwise functions give, for endpoints on both sides of 2**53
    rng = random.Random(193)
    tables = [([(1, 2 ** 53)], [(-2 ** 53, 2 ** 53 - 1)]),
              ([(0, 2 ** 53 + 2)], [(2 ** 53 + 1, 2 ** 53 + 1)]),
              ([(-2 ** 53, 2 ** 53 - 1), (2 ** 53, 2 ** 53)], [(-2 ** 53 + 1, 2 ** 53)])]
    for scale in (24, 2 ** 40, 2 ** 53, 2 ** 53 + 1, 2 ** 80, 2 ** 1020):
        for _ in range(6):
            tables.append(tuple([(b, rng.randint(b, scale)) for b in
                                 (rng.randint(-scale, scale) for _ in range(rng.randint(0, 8)))]
                                for _ in range(2)))
    for a, b in tables:
        for p in (1.0, 2.0, math.inf, 1000.0):
            dist, pen_a, pen_b = _table(a, b, p)
            want = [[_point_dist(x, y, p) for y in b] for x in a]
            assert [[d.hex() for d in row] for row in dist] == [[d.hex() for d in row]
                                                                 for row in want], (a, b, p)
            assert [x.hex() for x in pen_a] == [_penalty(x, p).hex() for x in a]
            assert [y.hex() for y in pen_b] == [_penalty(y, p).hex() for y in b]
    # db = 2**53 + 1 and dd = 1: each difference is rounded before the sum
    for a, b in tables[:2]:
        assert _table(a, b, 1.0)[0][0][0] == 2.0 ** 53 != float(2 ** 53 + 2)


def test_raw_points_must_be_intervals():
    # these once failed an internal assertion, gave a negative cost, read
    # (1, 2, 3) as (1, 2), or raised IndexError
    pair = ": an interval must be a pair"
    rows = [(lambda: bottleneck_distance([(3, 1)], [], 1), r"entry 0 \(3, 1\)" + pair),
            (lambda: bottleneck_distance([(1, 3)], [(3, 1)], 1), r"entry 0 \(3, 1\)" + pair),
            (lambda: matching_cost([(3, 1)], [], Matching(1, 0, ()), 1),
             r"entry 0 \(3, 1\)" + pair),
            (lambda: optimal_matching([(1, 2), (1, 2, 3)], [], 1), r"entry 1 \(1, 2, 3\)" + pair),
            (lambda: bottleneck_distance([(1,)], [], 1), r"entry 0 \(1,\)" + pair)]
    # endpoints past the float range once raised a bare OverflowError
    far = rf"interval \((0|1), {2 ** 1100}\): endpoints too far apart for floating-point"
    huge = PersistenceDiagram.from_counts(2 ** 1100, [(1, 2 ** 1100, 1)])
    for p in (1, 2, math.inf):
        rows += [(lambda p=p: bottleneck_distance([(0, 2 ** 1100)], [], p), far),
                 (lambda p=p: optimal_matching([(0, 2 ** 1100)], [(1, 1)], p), far),
                 (lambda p=p: matching_cost([(0, 2 ** 1100)], [], Matching(1, 0, ()), p), far),
                 (lambda p=p: bottleneck_distance(huge, [], p), far),
                 (lambda p=p: optimal_matching([], huge, p), far)]
    # a total past sys.maxsize once raised a bare OverflowError while expanding
    many = PersistenceDiagram.from_counts(3, [(1, 2, 10 ** 19)])
    rows += [(lambda: optimal_matching(many, [], 1), "copies exceed the largest length"),
             (lambda: matching_cost(many, [], Matching(0, 0, ()), 1),
              "copies exceed the largest length")]
    for call, message in rows:
        with pytest.raises(ValueError, match=message):
            call()
    assert bottleneck_distance([(2, 2)], [], 1) == 0.0


def test_huge_integer_p_is_refused():
    S, T = [(1, 3)], [(1, 2)]
    for call in (lambda p: _check_p(p), lambda p: bottleneck_distance(S, T, p),
                 lambda p: optimal_matching(S, T, p)):
        with pytest.raises(ValueError, match="p must be a real number >= 1 or infinity"):
            call(10 ** 400)
    assert _check_p(10 ** 300) == 1e300


def _repeated_points(rng, n, max_distinct, max_mult):
    pool = [(b, d) for b in range(1, n + 1) for d in range(b, n + 1)]
    pts = []
    for (b, d) in rng.sample(pool, rng.randint(0, min(max_distinct, len(pool)))):
        pts.extend([(b, d)] * rng.randint(1, max_mult))
    rng.shuffle(pts)
    return pts


def test_bottleneck_large_finite_p():
    # the powers in the l^p distance overflow a float here; the value must
    # still lie between the l^inf and l^1 values
    rng = random.Random(179)
    for _ in range(60):
        n = rng.randint(2, 12)
        S, T = random_diagram(rng, n, 4), random_diagram(rng, n, 4)
        d1, dinf = bottleneck_distance(S, T, 1), bottleneck_distance(S, T, math.inf)
        for p in (1000, 10 ** 6):
            dp = bottleneck_distance(S, T, p)
            assert math.isfinite(dp) and dinf <= dp <= d1, (S.points, T.points, p)


def test_bottleneck_many_copies_is_fast():
    # 10^5 copies against 10^5 + 1: one vertex per copy would need a
    # 10^10-entry distance table
    S = PersistenceDiagram.from_counts(24, [(3, 20, 10 ** 5)])
    T = PersistenceDiagram.from_counts(24, [(3, 20, 10 ** 5 + 1)])
    start = time.perf_counter()
    eta, M = optimal_matching(S, T, math.inf)
    assert time.perf_counter() - start < 5.0
    assert eta == 8.5 and matching_cost(S, T, M, math.inf) == 8.5


def test_saturate_long_augmenting_path():
    # every root but the last fills its own vertex; the last one then has to
    # shift the whole chain by one, along an augmenting path of length n
    n = 5000
    neighbours = [[0, n]] + [[i, i - 1] for i in range(1, n - 1)] + [[n - 2]]
    for units in (1, 3):
        supply, capacity = dict.fromkeys(range(n), units), [units] * (n + 1)
        _check_flow(_saturate(supply, capacity, neighbours), supply, capacity, neighbours)
        # with one unit less room at the far end, the last root cannot be placed
        capacity[n] -= 1
        assert _saturate(supply, capacity, neighbours) is None


def test_saturate_path_carries_its_smallest_flow():
    # the last root fills vertex 0 and still needs 2 units; each path to free
    # room moves one unit sent by another root, so it carries 1, not 2
    supply, capacity, neighbours = {0: 1, 1: 1, 2: 4}, [4, 5, 5], [[0, 1], [0, 2], [0]]
    flow = _saturate(supply, capacity, neighbours)
    _check_flow(flow, supply, capacity, neighbours)
    assert flow[2] == {0: 4}
    assert _saturate({0: 1, 1: 1, 2: 5}, capacity, neighbours) is None


def _check_flow(flow, supply, capacity, neighbours):
    assert flow is not None and sorted(flow) == sorted(supply)
    load = Counter()
    for i, row in flow.items():
        assert all(units > 0 for units in row.values()) and set(row) <= set(neighbours[i])
        assert sum(row.values()) == supply[i]
        load.update(row)
    assert all(load[j] <= capacity[j] for j in load)


def test_combine_empty():
    M = combine_matchings(Matching(3, 2, ()), Matching(2, 3, ()))
    assert M.pairs == ()
    for g in (Matching(3, 3, ()), Matching(2, 2, ())):
        with pytest.raises(ValueError, match="shape mismatch: f is 3x2, "):
            combine_matchings(Matching(3, 2, ()), g)


def test_combine_bijection_with_inverse():
    f = Matching(3, 3, ((0, 1), (1, 2), (2, 0)))
    g = Matching(3, 3, ((1, 0), (2, 1), (0, 2)))
    M = combine_matchings(f, g)
    assert set(M.pairs) == set(f.pairs)


def test_combine_properties_random():
    rng = random.Random(167)
    for _ in range(300):
        ns, nt = rng.randint(0, 8), rng.randint(0, 8)
        f = _random_matching(rng, ns, nt)
        g = _random_matching(rng, nt, ns)
        M = combine_matchings(f, g)
        assert f.coimage <= M.coimage
        assert g.coimage <= M.image
        gpairs = {(s, t) for (t, s) in g.pairs}
        assert set(M.pairs) <= set(f.pairs) | gpairs


def _random_matching(rng, ns, nt):
    srcs = rng.sample(range(ns), rng.randint(0, ns))
    tgts = rng.sample(range(nt), min(len(srcs), nt))
    return Matching(ns, nt, tuple(zip(srcs, tgts)))
