from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from collections import Counter

import pytest
from helpers import (brute_force_bottleneck, count_calls, diagonal_penalty,
                     expanded_bottleneck, point_dist, random_counted, random_diagram,
                     table_threshold)

from zzdist import (Matching, PersistenceDiagram, bottleneck_distance,
                    combine_matchings, matching_cost, optimal_matching, random_symbolic_module)
from zzdist import bottleneck
from zzdist.bottleneck import _near, _penalties, _point_dist, _saturate
from zzdist.linalg import _check_p


def pd(n, pts):
    return PersistenceDiagram(n, tuple(pts))


# an interval 2**1100 wide, one position from the end of its diagram, and
# the refusal of its distances, which no float holds
_FAR = 2 ** 1100 + 1
_WIDE = pd(_FAR, [(1, _FAR)])
_TOO_FAR = (rf"interval \(1, ({2 ** 1100}|{_FAR})\): "
            "endpoints too far apart for floating-point")


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


def test_entry_points_refuse_what_is_no_diagram():
    # the first rows once raised TypeError: ... is not iterable out of
    # `_exact_ints`; a list or tuple of points is refused as anything else
    # that is no diagram, naming its side
    V = random_symbolic_module(random.Random(1), 4, 2)
    expected = " is {}, expected PersistenceDiagram$"
    rows = [(lambda: bottleneck_distance(V, V), "^S" + expected.format("SymbolicModule")),
            (lambda: bottleneck_distance(None, []), "^S" + expected.format("NoneType")),
            (lambda: optimal_matching([(1, 2)], 5), "^S" + expected.format("list")),
            (lambda: matching_cost(V.diagram, 2.5, Matching(0, 0, ())),
             "^T" + expected.format("float"))]
    for bad in ([(1, 2)], ((1, 2),), [], None, V):
        for call in (bottleneck_distance, optimal_matching,
                     lambda S, T: matching_cost(S, T, Matching(0, 0, ()))):
            rows += [(lambda call=call, bad=bad: call(bad, V.diagram),
                      "^S" + expected.format(type(bad).__name__)),
                     (lambda call=call, bad=bad: call(V.diagram, bad),
                      "^T" + expected.format(type(bad).__name__))]
    for call, message in rows:
        with pytest.raises(ValueError, match=message):
            call()


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
    # linear scan; the witness indexes ``points``, and the value path,
    # which checks counted flows and never expands copies, must give the
    # same value.  A list of the points, in shuffled order, is refused.
    # Lengths up to 24 and p = 1000 take every row expression of the table.
    rng = random.Random(173)
    for trials, n_range, max_distinct, max_mult in ((500, (2, 7), 4, 5), (120, (8, 24), 6, 4)):
        for trial in range(trials):
            n = rng.randint(*n_range)
            raw_s, raw_t = (_repeated_points(rng, n, max_distinct, max_mult) for _ in range(2))
            S, T = pd(n, raw_s), pd(n, raw_t)
            if not trial % 2:
                for args, name in (((raw_s, T), "S"), ((S, raw_t), "T")):
                    with pytest.raises(ValueError, match=f"^{name} is list"):
                        optimal_matching(*args)
            s, t = S.points, T.points
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


def test_an_empty_side_is_answered_before_anything_is_built(monkeypatch):
    # against a side with no points, or both empty, the distance is the
    # largest penalty, read off the counts with no grouping, walk or flow;
    # brute force agrees exactly.  A list on either side, empty or not,
    # is refused before anything is read
    names = ("_grouped", "_penalties", "_threshold", "_saturate")
    built = dict(zip(names, (count_calls(monkeypatch, bottleneck, name) for name in names)))
    rng = random.Random(241)
    cases, lists = [(pd(5, []), pd(5, []))], [([], []), ([], pd(5, [])), (pd(5, []), [])]
    for _ in range(12):
        D = random_counted(rng, 7, 3, 2)
        for side in (D, list(D.points)):
            for empty in ([], pd(7, [])):
                both = all(isinstance(X, PersistenceDiagram) for X in (side, empty))
                (cases if both else lists).extend([(side, empty), (empty, side)])
    for S, T in lists:
        name = "S" if isinstance(S, list) else "T"
        for call in (bottleneck_distance, optimal_matching):
            with pytest.raises(ValueError, match=f"^{name} is list, expected PersistenceDiagram$"):
                call(S, T, 1)
    assert [built[name][0] for name in names] == [0, 0, 0, 0]
    for S, T in cases:
        for p in (1, 2, 3.5, math.inf):
            want = brute_force_bottleneck(S.points, T.points, p)
            penalties = built["_penalties"][0]
            assert bottleneck_distance(S, T, p) == want, (S, T, p)
            assert built["_penalties"][0] == penalties + 1
            eta, M = optimal_matching(S, T, p)
            assert (eta, M.pairs) == (want, ()), (S, T, p)
    assert [built[name][0] for name in ("_grouped", "_threshold", "_saturate")] == [
        2 * len(cases) * 4, len(cases) * 4, 0]  # all from optimal_matching
    # an endpoint past the float range is still refused, naming the interval
    for S, T in ((_WIDE, pd(_FAR, [])), (pd(2 ** 1100, []), pd(2 ** 1100, [(1, 2 ** 1100)])),
                 (pd(2 ** 1100, [(1, 2 ** 1100)]), pd(2 ** 1100, []))):
        for p in (1, 2, 3.5, math.inf):
            for call in (bottleneck_distance, optimal_matching):
                with pytest.raises(ValueError, match=_TOO_FAR):
                    call(S, T, p)
    # optimal_matching still checks the cost of its empty witness
    monkeypatch.setattr(bottleneck, "_cost", lambda *args: math.inf)
    with pytest.raises(AssertionError, match="combined matching costs inf, above threshold 3.0"):
        optimal_matching(pd(4, [(1, 4)]), pd(4, []), 1)


def test_threshold_matches_the_full_table_search(monkeypatch):
    # the walk takes distances only from points that can be required and
    # gallops up from the lower bound; the full-table search bisecting
    # every candidate must give the same distance, both flows must be
    # valid at it, and the gallop must test fewer flows in all.  Where the
    # lower bound is the largest penalty, nothing is required there: the
    # walk returns it with no flow tested and no witness checked
    counters = [count_calls(monkeypatch, bottleneck, name)
                for name in ("_saturate", "_largest", "_confirm")]
    calls = counters[0]
    rng = random.Random(307)
    sizes = [(rng.randint(2, 12), 8) for _ in range(150)] + [(24, 40)] * 30
    pairs = [tuple(random_counted(rng, n, top, 5) for _ in range(2)) for n, top in sizes]
    # points moved to 2**53, where not every integer is a float, and
    # spread up to 2**1019, where squares overflow
    for base, step in ((2 ** 53, 1), (2 ** 53, 2 ** 49), (2 ** 1020, 5), (0, 2 ** 1016)):
        pairs += [tuple(pd(base + step * 8, [(base + step * b, base + step * d)
                                             for (b, d) in _repeated_points(rng, 8, 6, 4)])
                        for _ in range(2))
                  for _ in range(6)]
    # an empty side against points near 2**53 and 2**1020; the point at
    # -2**1020 and its side are moved right by 2**1020 + 1, which keeps
    # every penalty
    shift, top = 2 ** 1020 + 1, 2 ** 1021 + 3 * 2 ** 969 + 1
    empty = [(pd(6, []), pd(6, [])), (pd(4, [(1, 4)] * 3), pd(4, [])),
             (pd(6, []), pd(6, [(2, 2), (1, 6), (1, 6)])),
             (pd(2 ** 53 + 5, [(2 ** 53 - 3, 2 ** 53 + 5), (1, 2 ** 53 + 1)]),
              pd(2 ** 53 + 5, [])),
             (pd(top, []), pd(top, [(2 ** 1020 + shift, top), (1, 2 ** 1020 + shift)])),
             (pd(6, []), pd(6, [])), (pd(9, [(2, 2)]), pd(9, []))]
    empty += [(D, pd(9, []))[::side] for side in (1, -1)
              for D in (random_counted(rng, 9, 5, 4) for _ in range(3))]
    pairs += empty
    ours = theirs = same_bounds = 0
    above, decided = Counter(), Counter()
    for S, T in pairs:
        for p in (1.0, 2.0, 3.5, 1000.0, math.inf):
            before = [c[0] for c in counters]
            eta, f, g, A, B = bottleneck._threshold(S, T, p)
            after = [c[0] for c in counters]
            ours += after[0] - before[0]
            want, _, _, lower, candidates = table_threshold(S, T, p)
            theirs += calls[0] - after[0]
            assert eta == want, (S, T, p)
            upper = max(_penalties(S.points + T.points, p), default=0.0)
            if lower == upper or not (S.counts() and T.counts()):
                # an empty side always gives lower == upper: every least cost is a penalty
                assert (lower, eta, f, g, after) == (upper, upper, {}, {}, before), (S, T, p)
                decided["both sides" if S.counts() and T.counts() else "an empty side"] += 1
            for flow, (x, mult_x), (y, mult_y) in ((f, A, B), (g, B, A)):
                supply = {i: m for i, (pen, m) in enumerate(zip(_penalties(x, p), mult_x))
                          if pen > eta}
                _check_flow(flow, supply, mult_y,
                            [[j for j, q in enumerate(y) if _point_dist(pt, q, p) <= eta]
                             for pt in x])
            if lower == candidates[-1]:
                same_bounds += 1
            else:
                above[bisect_left(candidates, eta) - bisect_left(candidates, lower)] += 1
    # 256 of the 1,085 searches have lower == upper; of the others, 700, 44 and
    # 26 end 0, 1 and 2 candidates above the lower bound, and 30 five or more
    assert same_bounds > 150 and min(above[0], above[1], above[2]) > 20, (same_bounds, above)
    assert sum(n for k, n in above.items() if k >= 5) > 20, above
    assert ours < theirs, (ours, theirs)  # 1,615 flow tests against 1,829
    # 581 searches have a lower bound equal to the largest penalty: 225 against
    # an empty side and 356 with points on both sides
    assert min(decided.values()) > 50, decided
    # an interval 2**1100 wide against an empty side is still refused
    for S, T in ((_WIDE, pd(_FAR, [])), (pd(2 ** 1100, []), pd(2 ** 1100, [(1, 2 ** 1100)]))):
        for p in (1.0, 2.0, 3.5, math.inf):
            with pytest.raises(ValueError, match=_TOO_FAR):
                bottleneck._threshold(S, T, p)


def test_least_cost_bound_never_exceeds_the_distance(monkeypatch):
    # the copies of a point are all matched within a cost only if the
    # points that near hold as many copies, so the largest bound over the
    # points of both sides is at most the distance, and often equal to it.
    # Against an empty side nothing is matched: the distance is the
    # largest penalty, given with no distance taken and no flow tested
    real, bounds = bottleneck._least_cost, []

    def recorded(*args):
        bounds.append(real(*args))
        return bounds[-1]

    monkeypatch.setattr(bottleneck, "_least_cost", recorded)
    near, flows = (count_calls(monkeypatch, bottleneck, name) for name in ("_near", "_saturate"))
    rng = random.Random(211)
    tight = both = 0
    for _ in range(300):
        n = rng.randint(2, 10)
        S, T = (random_counted(rng, n, 5, 4) for _ in range(2))
        for p in (1, 2, math.inf):
            bounds.clear()
            before = near[0], flows[0]
            eta = expanded_bottleneck(S.points, T.points, p)
            assert bottleneck_distance(S, T, p) == eta
            if S.points and T.points:
                assert max(bounds, default=0.0) <= eta, (S.counts(), T.counts(), p)
                both += 1
                tight += max(bounds, default=0.0) == eta
            else:
                assert eta == max(_penalties(S.points + T.points, p), default=0.0)
                assert (bounds, (near[0], flows[0])) == ([], before), (S.counts(), T.counts())
    assert both == 612 and tight > 560  # 588 of the 612 calls where both sides hold a point


def test_least_cost_of_one_copy_is_the_nearest_point_or_the_penalty():
    # one copy is matched by any one point nearer than its penalty
    rng = random.Random(37)
    ties = 0
    for _ in range(2000):
        pen = float(rng.randint(0, 6))
        row = [float(rng.randint(0, 8)) for _ in range(rng.randint(0, 5))]
        mult = [rng.randint(1, 3) for _ in row]
        ties += pen in row
        near = sorted([(d, j) for j, d in enumerate(row) if d < pen])
        assert bottleneck._least_cost(1, pen, near, mult) == min((pen, *row)), (pen, row, mult)
    assert ties > 400  # 487 of the 2,000 rows hold pen


def test_optimal_matching_checks_the_combined_matching(monkeypatch):
    # a merged matching that drops a point too expensive to drop must not
    # pass the check, and the message names p and both inputs' counts; a
    # list is refused
    monkeypatch.setattr(bottleneck, "combine_matchings",
                        lambda f, g: Matching(f.n_source, f.n_target, ()))
    S = pd(9, [(1, 5), (2, 9)])
    with pytest.raises(AssertionError, match=r"combined matching costs 3\.5, above threshold "
                       r"0\.0 \(p=inf; counts \[\(1, 5, 1\), \(2, 9, 1\)\] and "
                       r"\[\(1, 5, 1\), \(2, 9, 1\)\]\)"):
        optimal_matching(S, S, math.inf)
    raw = [(2, 9), (1, 5), (2, 9)]
    with pytest.raises(AssertionError, match=r"combined matching costs 7\.0, above threshold "
                       r"0\.0 \(p=1\.0; counts \[\(1, 5, 1\), \(2, 9, 2\)\] and "
                       r"\[\(1, 5, 1\), \(2, 9, 2\)\]\)"):
        optimal_matching(pd(9, raw), pd(9, raw), 1)
    with pytest.raises(ValueError, match="^S is list, expected PersistenceDiagram$"):
        optimal_matching(raw, pd(9, raw), 1)


def test_optimal_matching_checks_raw_inputs_once(monkeypatch):
    # a diagram's intervals were read when it was built, so the only
    # checks here are one per Matching built: f, g and their merge; a list
    # is refused before any check
    calls = []
    real = bottleneck._exact_ints
    monkeypatch.setattr(bottleneck, "_exact_ints",
                        lambda *args: calls.append(args[1]) or real(*args))
    S, T = [(2, 9), (1, 5), (2, 9)], [(1, 4), (2, 2), (3, 5)]
    for args, name in (((S, pd(9, T)), "S"), ((pd(9, S), T), "T")):
        with pytest.raises(ValueError, match=f"^{name} is list"):
            optimal_matching(*args, 1)
    assert calls == []
    S, T = pd(9, S), pd(9, T)
    eta, M = optimal_matching(S, T, 1)
    assert calls == ["indices", "indices", "indices"]
    assert eta == bottleneck_distance(S, T, 1) == matching_cost(S, T, M, 1)


def test_near_is_point_dist_bit_for_bit():
    # the expressions at p = 1 and inf and the general one must give what
    # the pairwise function gives, for endpoints on both sides of 2**53,
    # and at general p also where the powers overflow a float; only the
    # points nearer than the penalty are kept, nearest first
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
        for p in (1.0, 2.0, 3.5, math.inf, 1000.0):
            for xs, ys in ((a, b), (b, a)):
                for x in xs:
                    want = sorted((_point_dist(x, y, p), j) for j, y in enumerate(ys))
                    for pen in (math.inf, *_penalties([x], p)):
                        assert [(d.hex(), j) for d, j in _near(x, pen, ys, p)] == [
                            (d.hex(), j) for d, j in want if d < pen], (x, ys, p, pen)
    # db = 2**53 + 1 and dd = 1: each difference is rounded before the sum,
    # at p = 1 as at p = 2
    for a, b in tables[:2]:
        assert _near(a[0], math.inf, b, 1.0) == [(2.0 ** 53, 0)] != [(float(2 ** 53 + 2), 0)]
        assert _near(a[0], math.inf, b, 2.0) == [(math.hypot(2.0 ** 53, 1.0), 0)]
    # past 2**1020 the squares overflow, and the distance is scaled as
    # `_point_dist` scales it
    x, y = (0, 2 ** 1020), (2 ** 1019, 0)
    assert _near(x, math.inf, [y], 2.0) == [(_point_dist(x, y, 2.0), 0)]
    assert math.isfinite(_point_dist(x, y, 2.0))


def test_near_skips_only_pairs_that_cannot_be_near():
    # at p = 3.5 the distance from (0, 0) to (4, 0) rounds to just below 4,
    # so a pair whose larger difference equals the penalty can still be near
    x, y = (0, 0), (4, 0)
    d = _point_dist(x, y, 3.5)
    assert d < 4
    assert _near(x, 4.0, [y], 3.5) == [(d, 0)]
    assert _near(x, d, [y], 3.5) == []
    # a difference past the float range is refused, skipped or not
    for pen in (1.0, math.inf):
        with pytest.raises(OverflowError):
            _near(x, pen, [y, (2 ** 1100, 2 ** 1100 + 1)], 2.0)


def test_threshold_penalties_are_penalty_bit_for_bit(monkeypatch):
    # the search takes each side's penalties in one pass, with the divisor
    # taken once; each must be what `_penalties` gives for its point alone,
    # and what the formula gives point by point, also for endpoints near
    # 2**53 and 2**1020
    seen = []
    real = bottleneck._penalties

    def recorded(pts, p):
        pts = list(pts)
        seen.append((pts, p, real(pts, p)))
        return seen[-1][2]

    monkeypatch.setattr(bottleneck, "_penalties", recorded)
    # the points at 0 and -2**1020 and their sides are moved right by
    # 2**1020 + 1, which keeps every penalty and every distance
    shift = 2 ** 1020 + 1
    S = [(2 ** 53 - 3, 2 ** 53 + 5), (1, 2 ** 53 + 1), (0, 2 ** 53 - 1), (3, 3)]
    T = [(2 ** 1020, 2 ** 1020 + 3 * 2 ** 969), (-2 ** 1020, 2 ** 1020), (5, 2 ** 1020 - 1)]
    S, T = ([(b + shift, d + shift) for (b, d) in X] for X in (S, T))
    n = max(map(max, S + T))
    for p in (1.0, 2.0, 3.5, 1000.0, math.inf):
        inv = 0.0 if math.isinf(p) else 1.0 / p
        del seen[:]
        eta = bottleneck_distance(pd(n, S), pd(n, T), p)
        assert {tuple(pts) for pts, _, _ in seen} >= {tuple(sorted(S)), tuple(sorted(T))}
        for pts, q, pens in seen:
            assert q == p
            assert [pen.hex() for pen in pens] == [
                _penalties([pt], p)[0].hex() for pt in pts] == [
                ((d - b) / 2.0 ** (1.0 - inv)).hex() for (b, d) in pts], (pts, p)
        # nothing is matched against an empty side, so the distance is the
        # largest penalty, bit for bit, on either side
        for side in (S, T, [(1, 4), (2, 2), (1, 4)]):
            want = max(_penalties(side, p)).hex()
            m = max(map(max, side))
            for args in ((pd(m, side), pd(m, [])), (pd(m, []), pd(m, side))):
                assert bottleneck_distance(*args, p).hex() == want, (side, p)
        assert bottleneck_distance(pd(3, []), pd(3, []), p) == 0.0
        assert eta <= max(_penalties(S + T, p))
    # as before, an interval too wide for floating-point distances is refused
    for p in (1.0, 2.0, 3.5, math.inf):
        for args in ((_WIDE, pd(_FAR, [])), (pd(2 ** 1100, []), pd(2 ** 1100, [(1, 2 ** 1100)]))):
            with pytest.raises(ValueError, match=_TOO_FAR):
                bottleneck_distance(*args, p)


def test_raw_points_must_be_intervals():
    # these lists once failed an internal assertion, gave a negative cost,
    # read (1, 2, 3) as (1, 2), or raised IndexError; each is refused,
    # naming its side, and a diagram refuses their points
    listed = " is list, expected PersistenceDiagram$"
    rows = [(lambda: bottleneck_distance([(3, 1)], pd(3, []), 1), "^S" + listed),
            (lambda: bottleneck_distance(pd(3, [(1, 3)]), [(3, 1)], 1), "^T" + listed),
            (lambda: matching_cost([(3, 1)], pd(3, []), Matching(1, 0, ()), 1), "^S" + listed),
            (lambda: optimal_matching([(1, 2), (1, 2, 3)], pd(3, []), 1), "^S" + listed),
            (lambda: bottleneck_distance([(1,)], pd(3, []), 1), "^S" + listed),
            (lambda: pd(3, [(3, 1)]), r"interval \[3, 1\] out of range 1\.\.3"),
            (lambda: pd(3, [(1, 2), (1, 2, 3)]), r"entry 1 \(1, 2, 3\): endpoints must be 2 "),
            (lambda: pd(3, [(1,)]), r"entry 0 \(1,\): endpoints must be 2 integers")]
    # endpoints past the float range once raised a bare OverflowError
    huge = PersistenceDiagram.from_counts(2 ** 1100, [(1, 2 ** 1100, 1)])
    for p in (1, 2, math.inf):
        rows += [(lambda p=p: bottleneck_distance(_WIDE, pd(_FAR, []), p), _TOO_FAR),
                 (lambda p=p: optimal_matching(_WIDE, pd(_FAR, [(2, 2)]), p), _TOO_FAR),
                 (lambda p=p: matching_cost(_WIDE, pd(_FAR, []), Matching(1, 0, ()), p),
                  _TOO_FAR),
                 (lambda p=p: bottleneck_distance(huge, pd(2 ** 1100, []), p), _TOO_FAR),
                 (lambda p=p: optimal_matching(pd(2 ** 1100, []), huge, p), _TOO_FAR)]
    # a total past sys.maxsize once raised a bare OverflowError while expanding
    many = PersistenceDiagram.from_counts(3, [(1, 2, 10 ** 19)])
    rows += [(lambda: optimal_matching(many, pd(3, []), 1), "copies exceed the largest length"),
             (lambda: matching_cost(many, pd(3, []), Matching(0, 0, ()), 1),
              "copies exceed the largest length")]
    for call, message in rows:
        with pytest.raises(ValueError, match=message):
            call()
    assert bottleneck_distance(pd(2, [(2, 2)]), pd(2, []), 1) == 0.0


def test_a_point_never_required_gets_no_distance():
    # the interval near 2**1100 costs 1 or less to drop, below the bound
    # that [0, 100] sets, so it is never walked, and its distances, past
    # the float range, are never taken; a full table of distances refused
    # this pair
    # [1, 101] against [1, 2]: every point once 0-based is moved right by 1
    far = (2 ** 1100 + 1, 2 ** 1100 + 2)
    n = far[1]
    near, wide = pd(n, [(1, 2)]), pd(n, [far, (1, 101)])
    for p, want in ((1, 99.0), (2, _penalties([(0, 100)], 2.0)[0]), (math.inf, 50.0)):
        assert bottleneck_distance(wide, near, p) == want
        eta, M = optimal_matching(near, wide, p)
        assert eta == bottleneck_distance(near, wide, p)
        assert matching_cost(near, wide, M, p) == eta


def test_diagrams_of_different_lengths_are_refused():
    # this once gave a value, while the reflection distance refused the pair
    S, T = pd(3, [(1, 2)]), pd(5, [(1, 2), (2, 5)])
    for call in (lambda: bottleneck_distance(S, T, 1), lambda: optimal_matching(S, T, 2),
                 lambda: matching_cost(S, T, Matching(1, 2, ()), math.inf)):
        with pytest.raises(ValueError, match="length mismatch: 3 vs 5"):
            call()
    # a list, which has no length, is refused
    for args, name in ((([(1, 2)], T), "S"), ((S, [(1, 2), (2, 5)]), "T")):
        with pytest.raises(ValueError, match=f"^{name} is list, expected PersistenceDiagram$"):
            bottleneck_distance(*args, 1)


def test_huge_integer_p_is_refused():
    S, T = pd(3, [(1, 3)]), pd(3, [(1, 2)])
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
