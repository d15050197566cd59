from __future__ import annotations

import enum
import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest
from helpers import (all_dirs, all_intervals, all_ops, diagram_contains, flippable_positions,
                     interval_image, random_counted, random_matrix, random_module,
                     random_orientation, random_symbolic, synthesized_pair,
                     trial_annihilating_sequence)

from zzdist import (BACKWARD, COLIMIT, EXTROVERSION, FORWARD, INTROVERSION,
                    LIMIT, REVERSAL, Matrix, Morphism, Orientation, PersistenceDiagram,
                    ReflectionOp, ReflectionSequence, SymbolicModule, act,
                    annihilating_sequence, apply, apply_sequence,
                    apply_to_morphism, check_applicable, classify_index,
                    compose, conjugate, decompose, direct_sum, identity_morphism, interval_module,
                    is_invertible, is_morphism, is_summand_upto_equiv, ops_at,
                    rank, reflections, synthesize, transform_type, zero_module)
from zzdist.diagrams import _annihilating_run, _state

F, B = FORWARD, BACKWARD


def tau(s: str) -> Orientation:
    return Orientation.from_string(s)


def test_reflection_op_validation():
    with pytest.raises(ValueError):
        ReflectionOp("pullback", 2)
    with pytest.raises(ValueError):
        ReflectionOp(LIMIT, 0)
    with pytest.raises(ValueError):
        ReflectionOp(LIMIT, 2, "x")
    # an IntEnum position is stored as its plain int
    two = enum.IntEnum("Two", {"TWO": 2}).TWO
    assert repr(ReflectionOp(LIMIT, two)) == "ReflectionOp(kind='limit', k=2, boundary_dir=None)"
    op = ReflectionOp(LIMIT, 1, F)
    check_applicable(op, 3)
    with pytest.raises(ValueError):
        check_applicable(ReflectionOp(LIMIT, 2, F), 3)
    with pytest.raises(ValueError):
        check_applicable(ReflectionOp(LIMIT, 3), 3)
    with pytest.raises(ValueError):
        check_applicable(ReflectionOp(LIMIT, 4, F), 3)


def test_ops_at_and_all_ops():
    # a bool or a float is no position, also in an op the constructor did not check
    for k in (0, 5, True, 1.0, 1.5):
        with pytest.raises(ValueError, match=f"^position {k!r} out of range 1..4$"):
            ops_at(4, k)
        with pytest.raises(ValueError, match=f"^position {k!r} out of range 1..4$"):
            check_applicable(SimpleNamespace(kind=LIMIT, k=k, boundary_dir=F), 4)
    # n is a length, an integer of at least 2, for both; these once raised
    # Python's own TypeError or gave four end ops on a length no zigzag has
    for n, message in ((2.5, "^n must be an integer, got 2.5$"),
                       (True, "^n must be an integer, got True$"),
                       (1, "^n must be >= 2, got 1$")):
        for call in (lambda: all_ops(n), lambda: ops_at(n, 1)):
            with pytest.raises(ValueError, match=message):
                call()
    assert ops_at(4, 2) == (ReflectionOp(LIMIT, 2), ReflectionOp(COLIMIT, 2))
    assert ops_at(4, 1) == (ReflectionOp(LIMIT, 1, F), ReflectionOp(LIMIT, 1, B),
                            ReflectionOp(COLIMIT, 1, F), ReflectionOp(COLIMIT, 1, B))
    for n in (2, 3, 5):
        ops = all_ops(n)
        assert len(ops) == 2 * n + 4
        assert len(set(ops)) == len(ops)
        for op in ops:
            check_applicable(op, n)


def test_apply_zero_module():
    for n in (2, 3, 4):
        for t in all_dirs(n):
            O = zero_module(Orientation(t))
            for op in all_ops(n):
                out = apply(op, O)
                assert out.dims == tuple([0] * n)
                kind = EXTROVERSION if op.kind == LIMIT else INTROVERSION
                assert out.tau == transform_type(Orientation(t), kind, op.k)


def test_apply_small_fixture_limit():
    V = synthesize(tau("><>"), ((1, 4), (1, 2), (2, 3), (2, 3), (3, 3)))
    W = apply(ReflectionOp(LIMIT, 2), V)
    assert W.tau == tau("<>>")
    assert decompose(W).counts() == ((1, 1, 1), (1, 4, 1), (2, 3, 1), (3, 3, 2))


def test_apply_small_fixture_colimit():
    V = synthesize(tau("><>"), ((1, 4), (1, 2), (2, 3), (2, 3), (3, 3)))
    W = apply(ReflectionOp(COLIMIT, 3), V)
    assert W.tau == tau(">><")
    assert decompose(W).counts() == ((1, 3, 1), (1, 4, 1), (2, 2, 2))


def _sink_positions(t: Orientation):
    return [k for k in range(2, t.n) if classify_index(t, k) == "sink"]


def _source_positions(t: Orientation):
    return [k for k in range(2, t.n) if classify_index(t, k) == "source"]


def _sink_row(k: int, b: int, d: int) -> tuple[int, int] | None:
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


def test_interior_sink_rows_match_statement():
    for n in (3, 4, 5):
        for t in all_dirs(n):
            ori = Orientation(t)
            for k in _sink_positions(ori):
                for (b, d) in all_intervals(n):
                    got = interval_image(ReflectionOp(LIMIT, k), ori, b, d)
                    assert got == _sink_row(k, b, d), (t, k, b, d)


def test_interior_source_rows_match_statement():
    # with a source at k the colimit functor realizes the same row table
    for n in (3, 4, 5):
        for t in all_dirs(n):
            ori = Orientation(t)
            for k in _source_positions(ori):
                for (b, d) in all_intervals(n):
                    got = interval_image(ReflectionOp(COLIMIT, k), ori, b, d)
                    assert got == _sink_row(k, b, d), (t, k, b, d)


def test_forward_flow_rows_match_statement():
    for n in (3, 4, 5):
        for t in all_dirs(n):
            ori = Orientation(t)
            for k in range(2, n):
                if classify_index(ori, k) != "forward_flow":
                    continue
                for (b, d) in all_intervals(n):
                    lim = interval_image(ReflectionOp(LIMIT, k), ori, b, d)
                    col = interval_image(ReflectionOp(COLIMIT, k), ori, b, d)
                    if (b, d) == (k, k):
                        assert lim is None and col is None
                    else:
                        want_lim = (b, k) if d == k - 1 else \
                            (k + 1, d) if b == k and d >= k + 1 else (b, d)
                        want_col = (b, k - 1) if d == k and b <= k - 1 else \
                            (k, d) if b == k + 1 else (b, d)
                        assert lim == want_lim, (t, k, b, d)
                        assert col == want_col, (t, k, b, d)


def test_endpoint_sink_rows():
    # sink at position 1: pad with an inward zero arrow, then take the limit
    for n in (2, 3, 4):
        for t in all_dirs(n):
            ori = Orientation(t)
            if ori.entry(1) == B:
                op = ReflectionOp(LIMIT, 1, F)
                for (b, d) in all_intervals(n):
                    got = interval_image(op, ori, b, d)
                    if (b, d) == (1, 1):
                        assert got is None
                    elif b == 1:
                        assert got == (2, d)
                    elif b == 2:
                        assert got == (1, d)
                    else:
                        assert got == (b, d)
            if ori.entry(n - 1) == F:
                op = ReflectionOp(LIMIT, n, B)
                for (b, d) in all_intervals(n):
                    got = interval_image(op, ori, b, d)
                    if (b, d) == (n, n):
                        assert got is None
                    elif d == n:
                        assert got == (b, n - 1)
                    elif d == n - 1:
                        assert got == (b, n)
                    else:
                        assert got == (b, d)


def test_endpoint_source_rows():
    for n in (2, 3, 4):
        for t in all_dirs(n):
            ori = Orientation(t)
            if ori.entry(1) == F:
                op = ReflectionOp(COLIMIT, 1, B)
                for (b, d) in all_intervals(n):
                    got = interval_image(op, ori, b, d)
                    if (b, d) == (1, 1):
                        assert got is None
                    elif b == 1:
                        assert got == (2, d)
                    elif b == 2:
                        assert got == (1, d)
                    else:
                        assert got == (b, d)


def test_sink_then_source_round_trip_is_identity_on_intervals():
    for n in (3, 4, 5):
        for t in all_dirs(n):
            ori = Orientation(t)
            for k in _sink_positions(ori):
                out_t = transform_type(ori, EXTROVERSION, k)
                for (b, d) in all_intervals(n):
                    if (b, d) == (k, k):
                        continue
                    mid = interval_image(ReflectionOp(LIMIT, k), ori, b, d)
                    assert mid is not None
                    back = interval_image(ReflectionOp(COLIMIT, k), out_t, *mid)
                    assert back == (b, d), (t, k, b, d)


def test_source_then_sink_round_trip_is_identity_on_intervals():
    for n in (3, 4, 5):
        for t in all_dirs(n):
            ori = Orientation(t)
            for k in _source_positions(ori):
                out_t = transform_type(ori, INTROVERSION, k)
                for (b, d) in all_intervals(n):
                    if (b, d) == (k, k):
                        continue
                    mid = interval_image(ReflectionOp(COLIMIT, k), ori, b, d)
                    assert mid is not None
                    back = interval_image(ReflectionOp(LIMIT, k), out_t, *mid)
                    assert back == (b, d), (t, k, b, d)


def test_endpoint_round_trip_k1():
    for n in (2, 3, 4):
        for t in all_dirs(n):
            ori = Orientation(t)
            if ori.entry(1) != B:
                continue
            out_t = transform_type(ori, EXTROVERSION, 1)
            for (b, d) in all_intervals(n):
                if (b, d) == (1, 1):
                    continue
                mid = interval_image(ReflectionOp(LIMIT, 1, F), ori, b, d)
                back = interval_image(ReflectionOp(COLIMIT, 1, B), out_t, *mid)
                assert back == (b, d)


def test_act_round_trip_restores_points_clear_of_diagonal():
    # (1,3), (1,5) and (4,5) stay off the diagonal through both steps;
    # (3,4) lands on (4,4) after the first and is the one casualty
    S = SymbolicModule(tau(">><>"),
                       PersistenceDiagram(5, ((1, 3), (1, 5), (3, 4), (4, 5))))
    assert classify_index(S.tau, 3) == "sink"
    mid = act(ReflectionOp(LIMIT, 3), S)
    out = act(ReflectionOp(COLIMIT, 3), mid)
    assert out.tau == S.tau
    assert out.diagram.points == ((1, 3), (1, 5), (4, 5))


def test_apply_to_morphism_identity():
    rng = random.Random(81)
    for _ in range(10):
        S, V = synthesized_pair(rng, rng.randint(2, 5), 3, 2)
        op = rng.choice(all_ops(S.n))
        out = apply_to_morphism(op, identity_morphism(V))
        assert is_morphism(out)
        assert all(is_invertible(c) for c in out.components)


def test_apply_to_morphism_refuses_a_non_morphism():
    # the square of the one arrow does not commute; four ops once failed an
    # internal assertion here and the other four returned a Morphism
    V = synthesize(tau(">"), [(1, 2)])
    one, zero = Matrix.from_rows([[1]], 2, cols=1), Matrix.from_rows([[0]], 2, cols=1)
    phi = Morphism(V, V, (one, zero))
    assert not is_morphism(phi)
    for op in all_ops(2):
        with pytest.raises(ValueError,
                           match=re.escape(f"{op}: the components are not a morphism")):
            apply_to_morphism(op, phi)


def test_apply_to_morphism_missing_factoring_map_names_the_op(monkeypatch):
    monkeypatch.setattr(reflections, "solve", lambda *args: None)
    V = synthesize(tau("><"), [(1, 3), (2, 2)])
    for op in all_ops(3):
        with pytest.raises(AssertionError, match=re.escape(
                f"{op}: no universal factoring map for morphism (1, 2, 1) -> (1, 2, 1)")):
            apply_to_morphism(op, identity_morphism(V))


def test_apply_to_morphism_composition():
    rng = random.Random(83)
    for p in (2, 5):
        for _ in range(15):
            S, V = synthesized_pair(rng, rng.randint(2, 5), 3, p)
            bases1 = [_rand_invertible(rng, d, p) for d in V.dims]
            W, phi = conjugate(V, bases1)
            bases2 = [_rand_invertible(rng, d, p) for d in W.dims]
            X, psi = conjugate(W, bases2)
            op = rng.choice(all_ops(S.n))
            lhs = apply_to_morphism(op, compose(psi, phi))
            rhs = compose(apply_to_morphism(op, psi), apply_to_morphism(op, phi))
            assert lhs.components == rhs.components


def _rand_invertible(rng, dim, p):
    while True:
        M = random_matrix(rng, dim, dim, p)
        if is_invertible(M):
            return M


def test_apply_to_morphism_preserves_injectivity():
    rng = random.Random(87)
    for _ in range(20):
        n = rng.randint(2, 5)
        S1, V = synthesized_pair(rng, n, 3, 2)
        W = synthesize(S1.tau, random_symbolic(rng, n, 3).diagram.points)
        total = direct_sum(V, W)
        incl = Morphism(V, total, tuple(
            Matrix.from_rows([[1 if r == c else 0 for c in range(V.dims[i])]
                              for r in range(total.dims[i])], 2, cols=V.dims[i])
            for i in range(n)))
        assert is_morphism(incl)
        op = rng.choice(all_ops(n))
        out = apply_to_morphism(op, incl)
        assert is_morphism(out)
        for c in out.components:
            assert rank(c) == c.cols


def test_apply_additive_over_direct_sum():
    rng = random.Random(91)
    for _ in range(20):
        n = rng.randint(2, 5)
        S1, V = synthesized_pair(rng, n, 3, 2)
        W = synthesize(S1.tau, random_symbolic(rng, n, 3).diagram.points)
        op = rng.choice(all_ops(n))
        lhs = decompose(apply(op, direct_sum(V, W)))
        rhs = Counter(decompose(apply(op, V)).points) + Counter(decompose(apply(op, W)).points)
        assert Counter(lhs.points) == rhs


def test_apply_invariant_under_isomorphism():
    rng = random.Random(93)
    for p in (2, 5):
        for _ in range(10):
            S, V = synthesized_pair(rng, rng.randint(2, 5), 3, p)
            W, _ = conjugate(V, [_rand_invertible(rng, d, p) for d in V.dims])
            op = rng.choice(all_ops(S.n))
            assert decompose(apply(op, V)) == decompose(apply(op, W))


def test_act_preserves_containment():
    rng = random.Random(97)
    for _ in range(60):
        n = rng.randint(2, 6)
        big = random_symbolic(rng, n, 4)
        pts = list(big.diagram.points)
        rng.shuffle(pts)
        sub = SymbolicModule(big.tau, PersistenceDiagram(n, tuple(pts[:rng.randint(0, len(pts))])))
        op = rng.choice(all_ops(n))
        assert diagram_contains(act(op, sub).diagram, act(op, big).diagram)


def test_act_preserves_summand_upto_equiv():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 5)
        SW = random_symbolic(rng, n, 3)
        pts = list(SW.diagram.points)
        rng.shuffle(pts)
        keep = tuple(pts[:rng.randint(0, len(pts))])
        t = SW.tau
        for k in sorted(flippable_positions(keep, n)):
            if rng.random() < 0.5:
                t = transform_type(t, REVERSAL, k)
        SV = SymbolicModule(t, PersistenceDiagram(n, keep))
        assert is_summand_upto_equiv(SV.tau, SV.diagram, SW.tau, SW.diagram)
        op = rng.choice(all_ops(n))
        av, aw = act(op, SV), act(op, SW)
        assert is_summand_upto_equiv(av.tau, av.diagram, aw.tau, aw.diagram)


def test_reflection_sequence_container():
    seq = ReflectionSequence((ReflectionOp(LIMIT, 2), ReflectionOp(COLIMIT, 1, F)))
    assert len(seq) == 2 and list(seq)[0].kind == LIMIT
    with pytest.raises(ValueError, match="^sequence entry 0 is str, expected ReflectionOp$"):
        ReflectionSequence((LIMIT,))


def test_annihilating_sequence_zero_module():
    assert len(annihilating_sequence(zero_module(tau("><")))) == 0


def test_annihilating_sequence_interval_length():
    for n in (2, 3, 4):
        for t in all_dirs(n):
            for (b, d) in all_intervals(n):
                V = interval_module(Orientation(t), b, d)
                seq = annihilating_sequence(V)
                assert len(seq) == d - b, (t, b, d)
                final = apply_sequence(seq, V)
                assert decompose(final).remove_simple().points == ()


def test_annihilating_sequence_small_fixture():
    V = synthesize(tau("><>"), ((1, 4), (1, 2), (2, 3), (2, 3), (3, 3)))
    seq = annihilating_sequence(V)
    out = apply_sequence(seq, V)
    assert decompose(out).remove_simple().points == ()


def test_annihilating_sequence_random_modules():
    rng = random.Random(103)
    for _ in range(25):
        S, V = synthesized_pair(rng, rng.randint(2, 6), 4, 2)
        seq = annihilating_sequence(V)
        # the composition interleaves simple removal, starting before any op
        state = SymbolicModule(S.tau, S.diagram.remove_simple())
        for op in seq:
            state = act(op, state)
        assert state.diagram.points == ()


def test_annihilating_sequence_symbolic_matches_concrete():
    rng = random.Random(107)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        S = random_symbolic(rng, rng.randint(2, 6), 6)
        if S.diagram.points and rng.random() < 0.5:
            # repeat some points so whole runs of copies must die together
            extra = tuple(rng.choice(S.diagram.points) for _ in range(3))
            S = SymbolicModule(S.tau, PersistenceDiagram(S.n, S.diagram.points + extra))
        V = synthesize(S.tau, S.diagram.points, p)
        assert annihilating_sequence(S) == annihilating_sequence(V)


def test_annihilating_op_table_is_the_first_op_that_shortens():
    # the fixed table against trying every op at j, for every type with n <= 7
    for n in range(2, 8):
        for t in all_dirs(n):
            for j in range(2, n + 1):
                for b in range(1, j):
                    first = next(op for op in ops_at(n, j)
                                 if interval_image(op, Orientation(t), b, j) == (b, j - 1))
                    # the first op of the run on [b, j] alone is the table's op at j
                    assert _annihilating_run(t, ((b, j, 1),))[0] == first, (t, b, j)


def test_annihilating_sequence_matches_the_trial_oracle():
    rng = random.Random(173)
    for _ in range(400):
        n = rng.randint(2, 16)
        # counted diagrams, with multiplicities up to 3 and one-position intervals
        S = SymbolicModule(random_orientation(rng, n), random_counted(rng, n, 6, 3))
        want = trial_annihilating_sequence(S)
        assert annihilating_sequence(S) == want, S
        # the search's start state, normalized and sanitized, gives the same run
        assert _annihilating_run(*_state(S.tau.dirs, S.diagram.counts())) == want.ops, S
    for _ in range(60):
        p = rng.choice((2, 3))
        V = random_module(rng, rng.randint(2, 6), 3, p)
        assert annihilating_sequence(V) == trial_annihilating_sequence(V), V
