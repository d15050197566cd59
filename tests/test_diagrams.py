from __future__ import annotations

import enum
import json
import random
import sys
from collections import Counter

import pytest
from helpers import (all_dirs, all_intervals, all_ops, count_calls, diagram_contains,
                     expanded_act, flippable_positions, interval_image, random_counted,
                     random_orientation, random_symbolic, section_sweep_decompose,
                     segment_rank_decompose, synthesized_pair)

from zzdist import (BACKWARD, COLIMIT, LIMIT, FiniteDiagram, Matching, Matrix, Orientation,
                    PersistenceDiagram, ReflectionOp, SymbolicModule, ZigzagModule, act,
                    annihilating_sequence, apply, bottleneck_distance, decompose, diagrams,
                    generate_random_module, interval_module, linalg, main, optimal_matching,
                    synthesize, transform_type, zero_module)


def tau(s: str) -> Orientation:
    return Orientation.from_string(s)


def pd(n, pts):
    return PersistenceDiagram(n, tuple(pts))


def test_diagram_normalizes_point_order():
    D = pd(4, [(2, 3), (1, 4), (2, 3)])
    assert D.points == ((1, 4), (2, 3), (2, 3))
    assert D.counts() == ((1, 4, 1), (2, 3, 2))
    assert len(D) == 3 and list(D) == [(1, 4), (2, 3), (2, 3)]


def test_diagram_validation():
    with pytest.raises(ValueError):
        pd(1, [])
    with pytest.raises(ValueError):
        pd(3, [(0, 2)])
    with pytest.raises(ValueError):
        pd(3, [(2, 4)])
    with pytest.raises(ValueError):
        pd(3, [(3, 2)])
    with pytest.raises(ValueError):
        PersistenceDiagram.from_counts(3, [(1, 2, 0)])


def test_non_integer_endpoints_are_refused():
    # truncating would silently turn (1.9, 3.7) into (1, 3), at bottleneck
    # distance 0 from [1, 3]
    bad = [(1, 4), (1.9, 3.7)]
    for build in (lambda: pd(4, bad), lambda: synthesize(tau(">>>"), bad)):
        with pytest.raises(ValueError, match=r"entry 1 \(1\.9, 3\.7\)"):
            build()
    # the distances read intervals only through a diagram, so a list is refused
    for build, name in ((lambda: bottleneck_distance(bad, pd(4, [(1, 3)])), "S"),
                        (lambda: optimal_matching(pd(4, [(1, 3)]), bad), "T")):
        with pytest.raises(ValueError, match=f"^{name} is list, expected PersistenceDiagram$"):
            build()
    with pytest.raises(ValueError, match="entry 0"):
        pd(4, [(2.0, 3)])


def test_non_integer_counts_indices_and_dimensions_are_refused():
    # each of these used to be truncated, (0.7, 1.9) to (0, 1) and 1.9 to 1,
    # read a bool as 1, or fail with a TypeError, an AttributeError or a
    # bare unpacking error
    one = Matrix.identity(1, 2)
    ints = " must be integers"
    nonnegative = " must be nonnegative integers"
    cases = [
        (lambda: PersistenceDiagram.from_counts(4, [(2, 3, 1), (1, 3, 2.5)]),
         r"entry 1 \(1, 3, 2\.5\): birth, death and multiplicity" + ints),
        (lambda: PersistenceDiagram.from_counts(3, [(True, 2, 1)]),
         r"entry 0 \(True, 2, 1\): birth, death and multiplicity" + ints),
        (lambda: Matching(2, 2, ((0.7, 1.9),)), r"entry 0 \(0\.7, 1\.9\): indices" + ints),
        (lambda: PersistenceDiagram(4, [(1, 2, 3)]),
         r"entry 0 \(1, 2, 3\): endpoints must be 2 integers"),
        (lambda: PersistenceDiagram.from_counts(4, [(1, 2)]),
         r"entry 0 \(1, 2\): birth, death and multiplicity must be 3 integers"),
        (lambda: synthesize(tau(">>>"), [(1, 3), (1, 2, 3)]),
         r"entry 1 \(1, 2, 3\): endpoints must be 2 integers"),
        (lambda: Matching(2, 2, ((0,),)), r"entry 0 \(0,\): indices must be 2 integers"),
        (lambda: ZigzagModule(tau(">"), (1.0, 1.9), (one,)), r"entry 0 1\.0: dimensions" + ints),
        (lambda: ZigzagModule(tau(">"), (1, 1), ([[1]],)), r"map 1 is list, expected Matrix"),
        (lambda: Matrix(2, [[1.5]], 1), r"entry 0 \[1\.5\]: matrix row entries" + ints),
        (lambda: Matrix(2, [[True]], 1), r"entry 0 \[True\]: matrix row entries" + ints),
        (lambda: Matrix(2, [], True), r"^matrix width must be an integer, got True$"),
        (lambda: FiniteDiagram(2, (1.5,), ()), r"entry 0 1\.5: space dimensions" + ints),
        (lambda: FiniteDiagram(2, (1, 1), ((0, 1, one), (0, 1.0, one))),
         r"entry 1 \(0, 1\.0\): arrow endpoints" + ints),
        (lambda: ZigzagModule(tau(">"), (0, -1), (Matrix.zero(0, 0, 2),)),
         r"entry 1 -1: dimensions" + nonnegative),
        (lambda: FiniteDiagram(2, (1, -1), ()), r"entry 1 -1: space dimensions" + nonnegative),
        (lambda: Matrix(2, [], -1), r"^matrix width must be >= 0, got -1$"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()
    # only files are held to the dimension bound; limits and sums built
    # in memory may pass it
    wide = (Matrix.zero(300, 0, 2), Matrix.zero(0, 300, 2))
    assert ZigzagModule(tau(">>"), (0, 300, 0), wide).dims == (0, 300, 0)
    assert FiniteDiagram(2, (0, 300), ()).spaces == (0, 300)


def test_module_entry_points_refuse_wrong_types():
    # these once raised AttributeError or, from flippable_positions, TypeError
    S = SymbolicModule(tau(">>"), pd(3, [(1, 2)]))
    op = ReflectionOp(LIMIT, 2)
    rows = [(lambda: decompose(S), "^V is SymbolicModule, expected ZigzagModule$"),
            (lambda: act(op, S.diagram), "^S is PersistenceDiagram, expected SymbolicModule$"),
            (lambda: act(None, S), "^op is NoneType, expected ReflectionOp$"),
            (lambda: apply(op, S), "^V is SymbolicModule, expected ZigzagModule$"),
            (lambda: annihilating_sequence(S.diagram),
             "^V is PersistenceDiagram, expected ZigzagModule or SymbolicModule$"),
            (lambda: synthesize(">>", []), "^tau is str, expected Orientation$"),
            (lambda: flippable_positions([], 2.5), "^n must be an integer, got 2.5$")]
    for call, message in rows:
        with pytest.raises(ValueError, match=message):
            call()


def test_from_counts_merges_and_stores_counts_only():
    D = PersistenceDiagram.from_counts(5, [(2, 4, 10 ** 18), (1, 5, 1), (2, 4, 2)])
    assert D.counts() == ((1, 5, 1), (2, 4, 10 ** 18 + 2))
    assert len(D) == 10 ** 18 + 3
    assert D.dims() == (1, 10 ** 18 + 3, 10 ** 18 + 3, 10 ** 18 + 3, 1)
    assert D == PersistenceDiagram.from_counts(5, D.counts())
    assert hash(D) == hash(PersistenceDiagram.from_counts(5, reversed(D.counts())))
    assert diagram_contains(D.remove_simple(), D) and not diagram_contains(D, pd(5, [(2, 4)]))


class _Pos(enum.IntEnum):
    ZERO, ONE, TWO, THREE = range(4)


def _then(good, bad):
    yield from good
    yield bad


def test_bad_diagram_entries_keep_their_messages(tmp_path, capsys):
    # the entries that pass the checks made in C are stored as they are;
    # everything else goes through the loop that names the first bad entry
    # or interval, with these messages, through each way a diagram is built
    what = "birth, death and multiplicity must be"
    triples = [([(1, 2, 1), (1, 2, True)], f"entry 1 (1, 2, True): {what} integers"),
               ([(1, 2.0, 1)], f"entry 0 (1, 2.0, 1): {what} integers"),
               ([(1, 2, 1), "123"], f"entry 1 '123': {what} integers"),
               ([{"b": 1, "d": 2, "m": 1}], f"entry 0 {{'b': 1, 'd': 2, 'm': 1}}: {what} integers"),
               ([(1, 2, 1), 5], f"entry 1 5: {what} integers"),
               ([(1, 2, 1), (1, 2)], f"entry 1 (1, 2): {what} 3 integers"),
               ([(1, 2), (1, 2, 1.5)], f"entry 0 (1, 2): {what} 3 integers"),
               ([(1, 3, 2), (1, 2, 0)], "multiplicity must be >= 1, got 0 for [1, 2]"),
               ([(3, 2, 1)], "interval [3, 2] out of range 1..3"),
               ([(1, 4, 1)], "interval [1, 4] out of range 1..3"),
               ([(0, 2, 1)], "interval [0, 2] out of range 1..3"),
               (_then([(1, 2, 1), (2, 3, 1)], (2, 3.5, 1)),
                f"entry 2 (2, 3.5, 1): {what} integers"),
               ([(_Pos.ZERO, _Pos.TWO, _Pos.ONE)], "interval [0, 2] out of range 1..3")]
    points = [([(1, 2), (True, 2)], "entry 1 (True, 2): endpoints must be integers"),
              ([(1, 2.5)], "entry 0 (1, 2.5): endpoints must be integers"),
              ([(1, 2), "12"], "entry 1 '12': endpoints must be integers"),
              ([{"b": 1, "d": 2}], "entry 0 {'b': 1, 'd': 2}: endpoints must be integers"),
              ([(1, 2), 5], "entry 1 5: endpoints must be integers"),
              ([(1, 2, 3)], "entry 0 (1, 2, 3): endpoints must be 2 integers"),
              ([(3, 2)], "interval [3, 2] out of range 1..3"),
              ([(1, 4)], "interval [1, 4] out of range 1..3"),
              ([(0, 2)], "interval [0, 2] out of range 1..3"),
              (_then([(1, 2), (2, 3)], (2.5, 3)), "entry 2 (2.5, 3): endpoints must be integers"),
              ([(_Pos.THREE, _Pos.TWO)], "interval [3, 2] out of range 1..3")]
    # synthesize reads its points through PersistenceDiagram, which names the first bad
    # interval in sorted order
    synthesized = [([(1, 2), (True, 2)], "entry 1 (True, 2): endpoints must be integers"),
                   ([(1, 2), "12"], "entry 1 '12': endpoints must be integers"),
                   ([(1, 2, 3)], "entry 0 (1, 2, 3): endpoints must be 2 integers"),
                   ([(1, 4), (3, 2)], "interval [1, 4] out of range 1..3"),
                   ([(2, 3), (0, 2)], "interval [0, 2] out of range 1..3"),
                   (_then([(1, 2)], (2.5, 3)), "entry 1 (2.5, 3): endpoints must be integers"),
                   ([(_Pos.THREE, _Pos.TWO)], "interval [3, 2] out of range 1..3")]
    for build, table in ((PersistenceDiagram.from_counts, triples), (PersistenceDiagram, points),
                         (lambda n, pts: synthesize(tau("><"), pts), synthesized)):
        for entries, message in table:
            with pytest.raises(ValueError) as refused:
                build(3, entries)
            assert str(refused.value) == message
    # an IntEnum is read as its plain int, and repeated intervals merge
    for D in (PersistenceDiagram.from_counts(3, [(_Pos.ONE, _Pos.TWO, _Pos.THREE), (1, 2, 1),
                                                 (2, 3, 1)]),
              PersistenceDiagram(3, [(2, 3)] + [(_Pos.ONE, _Pos.TWO)] * 2 + [(1, 2)] * 2)):
        assert D.counts() == ((1, 2, 4), (2, 3, 1))
        assert {type(x) for c in D.counts() for x in c} == {int}
    # and so is an IntEnum length
    assert repr(PersistenceDiagram(_Pos.THREE, [])) == "PersistenceDiagram(n=3, _counts=())"
    # a diagram file gives the same messages, on JSON's lists
    files = [([[1, 2, 1], [1, 2, True]], f"entry 1 [1, 2, True]: {what} integers"),
             ([[1, 2.0, 1]], f"entry 0 [1, 2.0, 1]: {what} integers"),
             ([[1, 2, 1], "123"], f"entry 1 '123': {what} integers"),
             ([{"b": 1}], f"entry 0 {{'b': 1}}: {what} integers"),
             ([[1, 2, 1], 5], f"entry 1 5: {what} integers"),
             ([[1, 2, 1], [1, 2]], f"entry 1 [1, 2]: {what} 3 integers"),
             ([[1, 3, 2], [1, 2, 0]], "multiplicity must be >= 1, got 0 for [1, 2]"),
             ([[3, 2, 1]], "interval [3, 2] out of range 1..3"),
             ([[1, 4, 1]], "interval [1, 4] out of range 1..3"),
             ([[0, 2, 1]], "interval [0, 2] out of range 1..3")]
    path = tmp_path / "bad.json"
    for entries, message in files:
        path.write_text(json.dumps({"n": 3, "type": "><", "diagram": entries}))
        assert main(["decompose", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    repeated = [[2, 3, 1], [1, 3, 2], [2, 3, 4]]
    path.write_text(json.dumps({"n": 3, "type": "><", "diagram": repeated}))
    assert main(["decompose", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["diagram"] == [[1, 3, 2], [2, 3, 5]]


def test_len_past_sys_maxsize_raises_value_error():
    D = PersistenceDiagram.from_counts(3, [(1, 2, 10 ** 19)])
    with pytest.raises(ValueError, match=r"counts\(\)"):
        len(D)
    assert len(PersistenceDiagram.from_counts(3, [(1, 2, sys.maxsize)])) == sys.maxsize


@pytest.mark.parametrize("call", [lambda: PersistenceDiagram(2 ** 1100, [(1, 2)]).dims(),
                                  lambda: flippable_positions([(1, 2)], 2 ** 1100)])
def test_a_length_past_sys_maxsize_is_refused(call):
    # the first once raised OverflowError allocating one entry per position,
    # the second built range(1, n) until memory ran out
    with pytest.raises(ValueError, match=f"^{2 ** 1100} positions exceed the largest length"):
        call()


def test_from_counts_round_trip():
    rng = random.Random(61)
    for _ in range(30):
        D = random_symbolic(rng, rng.randint(2, 6), 5).diagram
        assert PersistenceDiagram.from_counts(D.n, D.counts()) == D
    D = pd(5, [(2, 4), (1, 1), (2, 4), (5, 5), (2, 4), (1, 1), (1, 5)])
    assert D.counts() == ((1, 1, 2), (1, 5, 1), (2, 4, 3), (5, 5, 1))
    assert PersistenceDiagram.from_counts(5, D.counts()) == D
    assert PersistenceDiagram.from_counts(5, [(2, 4, 3), (1, 1, 2), (5, 5, 1), (1, 5, 1)]) == D


def test_remove_simple():
    D = pd(3, [(1, 1), (1, 3), (2, 2), (2, 2), (2, 3)])
    got = D.remove_simple()
    assert got.points == ((1, 3), (2, 3))
    assert got.remove_simple() == got


def test_diagram_contains():
    big = pd(3, [(1, 2), (1, 2), (2, 3)])
    assert diagram_contains(pd(3, [(1, 2), (2, 3)]), big)
    assert diagram_contains(pd(3, []), big)
    assert not diagram_contains(pd(3, [(1, 3)]), big)
    assert not diagram_contains(pd(3, [(1, 2)] * 3), big)
    with pytest.raises(ValueError, match="length mismatch: 4 vs 3"):
        diagram_contains(pd(4, []), big)
    # repeated points, checked against multiset counts
    rng = random.Random(67)
    for _ in range(400):
        n = rng.randint(2, 4)
        pool = [(b, d) for b in range(1, n + 1) for d in range(b, n + 1)]
        inner = pd(n, [rng.choice(pool) for _ in range(rng.randint(0, 6))])
        outer = pd(n, [rng.choice(pool) for _ in range(rng.randint(0, 8))])
        if rng.random() < 0.5:
            outer = pd(n, outer.points + inner.points[:rng.randint(0, len(inner))])
        ci, co = Counter(inner.points), Counter(outer.points)
        assert diagram_contains(inner, outer) == all(co[x] >= m for x, m in ci.items())


def test_decompose_zero_and_interval():
    assert decompose(zero_module(tau("><"))).points == ()
    for t in all_dirs(4):
        for (b, d) in all_intervals(4):
            V = interval_module(Orientation(t), b, d)
            assert decompose(V).points == ((b, d),)


def test_decompose_round_trip_small_fixture():
    pts = ((1, 2), (1, 4), (2, 3), (2, 3), (3, 3))
    V = synthesize(tau("><>"), pts)
    assert decompose(V).points == pts


def test_decompose_round_trip_random():
    rng = random.Random(63)
    for p in (2, 5):
        for _ in range(40):
            S, V = synthesized_pair(rng, rng.randint(2, 8), 5, p)
            got = decompose(V)
            assert got == S.diagram
            # conservation: slot dimensions are recovered exactly
            for i in range(1, S.n + 1):
                assert V.dims[i - 1] == sum(1 for (b, d) in got if b <= i <= d)


def test_decompose_matches_segment_rank_oracle():
    # scrambled modules; one draw in three reaches n = 14, the rest stop at 8
    # so the whole-slice oracle stays cheap
    gaps = 0
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(2, 14 if seed % 3 == 0 else 8)
        V = generate_random_module(n, rng.randint(0, 10), rng.choice((2, 3, 5, 7)), seed)
        gaps += any(V.dims[i] == 0 and any(V.dims[:i]) and any(V.dims[i + 1:])
                    for i in range(1, n - 1))
        got = decompose(V)
        assert got == segment_rank_decompose(V), (seed, V.tau.to_string(), V.dims)
        assert got == section_sweep_decompose(V), (seed, V.tau.to_string(), V.dims)
    assert gaps >= 20  # interior zero positions are covered, not just empty ends
    # every single interval of every orientation: the answer is known exactly
    for p in (2, 3):
        for n in range(2, 6):
            for t in all_dirs(n):
                for (b, d) in all_intervals(n):
                    assert decompose(interval_module(Orientation(t), b, d, p)).points == ((b, d),)


@pytest.mark.parametrize("arrow", [">", "<"])
def test_decompose_eliminates_once_per_arrow(monkeypatch, arrow):
    # on k copies of [1, n] every arrow joins two nonzero spaces and takes
    # one echelon; the section sweeps made n(n-1)/2 eliminations
    calls = count_calls(monkeypatch, linalg, "_echelon")
    monkeypatch.setattr(diagrams, "_echelon", linalg._echelon)
    for n in (2, 3, 6):
        for k in (1, 4):
            V = synthesize(Orientation(arrow * (n - 1)), [(1, n)] * k, 3)
            calls[0] = 0
            assert decompose(V).counts() == ((1, n, k),)
            assert 1 <= calls[0] <= n - 1, (n, k)


@pytest.mark.parametrize("arrow", [">", "<"])
def test_decompose_dense_wide_arrow(arrow):
    # two 64-dimensional spaces joined by a dense random GF(2) map: one
    # echelon of 64 images forward, of 64 columns and 64 basis vectors back
    rng = random.Random(67)
    M = Matrix(2, [[rng.randrange(2) for _ in range(64)] for _ in range(64)], 64)
    V = ZigzagModule(tau(arrow), (64, 64), (M,))
    got = decompose(V)
    assert got == segment_rank_decompose(V)
    assert got.dims() == (64, 64) and (1, 2, linalg.rank(M)) in got.counts()


def test_decompose_invariant_failures_name_the_module(monkeypatch):
    # an echelon that loses a kernel companion leaves position 3 short of
    # a generator
    V = synthesize(tau("><"), ((1, 3),), 3)
    real = diagrams._echelon

    def lossy(pairs, p):
        pivots, reduced = real(pairs, p)
        return pivots, dict(list(reduced.items())[1:])

    monkeypatch.setattr(diagrams, "_echelon", lossy)
    with pytest.raises(AssertionError) as err:
        decompose(V)
    msg = str(err.value)
    assert "covers dimension 0 at position 3, module has 1" in msg
    assert "'><'" in msg and "dims [1, 1, 1]" in msg and "p=3" in msg


def test_annihilation_failure_names_the_module(monkeypatch):
    # a reflection rule that moves nothing leaves the interval count as it is
    monkeypatch.setattr(diagrams, "_reflect", lambda op, dirs, counts: (dirs, counts))
    S = SymbolicModule(tau("><>"), PersistenceDiagram.from_counts(4, [(1, 3, 2), (2, 2, 1)]))
    with pytest.raises(AssertionError, match=r"annihilation pass on \[1, 3\] failed to reduce "
                       r"the interval count; type ><>, counts \[\(1, 3, 2\), \(2, 2, 1\)\]"):
        annihilating_sequence(S)


def test_symbolic_module_validation():
    with pytest.raises(ValueError):
        SymbolicModule(tau(">>"), pd(4, []))


def test_symbolic_module_refuses_wrong_typed_fields():
    # these used to fail with an AttributeError on the missing ``n``
    with pytest.raises(ValueError, match="^tau is str, expected Orientation$"):
        SymbolicModule("><", pd(3, [(1, 3)]))
    with pytest.raises(ValueError, match="^diagram is list, expected PersistenceDiagram$"):
        SymbolicModule(tau("><"), [(1, 3)])


def test_interval_image_matches_concrete_reflection():
    # the closed-form rule must not depend on the field
    for p, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]:
        for t in all_dirs(n):
            ori = Orientation(t)
            for op in all_ops(n):
                for (b, d) in all_intervals(n):
                    got = interval_image(op, ori, b, d)
                    want = decompose(apply(op, interval_module(ori, b, d, p)))
                    if got is None:
                        assert want.points == ()
                        assert b == d
                    else:
                        assert want.points == (got,)
                        assert abs(got[0] - b) + abs(got[1] - d) <= 1


def test_interval_image_range_checks():
    op = ReflectionOp(LIMIT, 2)
    with pytest.raises(ValueError):
        interval_image(op, tau("><"), 1, 4)
    with pytest.raises(ValueError):
        interval_image(ReflectionOp(LIMIT, 5), tau("><"), 1, 2)


def test_act_small_fixture():
    S = SymbolicModule(tau("><>"), pd(4, [(1, 4), (1, 2), (2, 3), (2, 3), (3, 3)]))
    out = act(ReflectionOp(LIMIT, 2), S)
    assert out.tau == tau("<>>")
    assert out.diagram.counts() == ((1, 4, 1), (2, 3, 1))
    out = act(ReflectionOp(COLIMIT, 3), S)
    assert out.tau == tau(">><")
    assert out.diagram.counts() == ((1, 3, 1), (1, 4, 1))


def test_act_merges_colliding_images():
    # a limit at 1 with a backward boundary arrow on "<" sends both [1, 2]
    # and [2, 2] to [1, 2]: two distinct intervals become one with two copies
    S = SymbolicModule(tau("<"), pd(2, [(1, 2), (2, 2)]))
    op = ReflectionOp(LIMIT, 1, BACKWARD)
    assert [interval_image(op, S.tau, b, d) for (b, d) in S.diagram] == [(1, 2), (1, 2)]
    assert act(op, S).diagram.counts() == ((1, 2, 2),)
    assert act(op, S) == expanded_act(op, S)


def test_act_matches_the_per_copy_oracle():
    rng = random.Random(83)
    for _ in range(500):
        n = rng.randint(2, 7)
        S = SymbolicModule(random_orientation(rng, n), random_counted(rng, n, 5, 3))
        for op in all_ops(n):
            assert act(op, S) == expanded_act(op, S), (S, op)


def test_act_transforms_type_and_strips_simple_points():
    rng = random.Random(67)
    for _ in range(60):
        S = random_symbolic(rng, rng.randint(2, 6), 4)
        op = rng.choice(all_ops(S.n))
        out = act(op, S)
        kind = "extroversion" if op.kind == LIMIT else "introversion"
        assert out.tau == transform_type(S.tau, kind, op.k)
        assert all(b != d for (b, d) in out.diagram)


def test_act_agrees_with_concrete_after_simple_removal():
    rng = random.Random(71)
    for _ in range(60):
        S = random_symbolic(rng, rng.randint(2, 6), 4)
        V = synthesize(S.tau, S.diagram.points)
        op = rng.choice(all_ops(S.n))
        assert act(op, S).diagram == decompose(apply(op, V)).remove_simple()


def test_raw_images_account_for_every_summand():
    rng = random.Random(73)
    for _ in range(60):
        S = random_symbolic(rng, rng.randint(2, 6), 4)
        V = synthesize(S.tau, S.diagram.points)
        op = rng.choice(all_ops(S.n))
        raw = [interval_image(op, S.tau, b, d) for (b, d) in S.diagram]
        raw = [x for x in raw if x is not None]
        assert Counter(raw) == Counter(decompose(apply(op, V)).points)


def test_tuple_rule_matches_the_per_copy_oracle():
    # the search's successor of a state is the state of the per-copy image
    rng = random.Random(89)
    for _ in range(300):
        n = rng.randint(2, 9)
        S = SymbolicModule(random_orientation(rng, n), random_counted(rng, n, 5, 3))
        state = diagrams._state(S.tau.dirs, S.diagram.counts())
        start = SymbolicModule(Orientation(state[0]),
                               PersistenceDiagram.from_counts(n, state[1]))
        for op in all_ops(n):
            E = expanded_act(op, start)
            got = diagrams._state(*diagrams._reflect(op, *state))
            assert got == diagrams._state(E.tau.dirs, E.diagram.counts()), (S, op)
