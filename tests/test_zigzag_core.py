from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from helpers import (all_dirs, all_intervals, count_calls, iso_positions, random_matrix,
                     random_points, random_symbolic, synthesized_pair)

from zzdist import (BACKWARD, BACKWARD_FLOW, EXTROVERSION, FORWARD,
                    FORWARD_FLOW, INTROVERSION, Matrix, Morphism, Orientation,
                    REVERSAL, SINK, SOURCE, ZigzagModule, arrow_reverse,
                    canonical_type, classify_index, compose, conjugate,
                    decompose, direct_sum, flippable_positions,
                    identity_morphism, interval_module, inverse, is_invertible,
                    is_morphism, is_summand_upto_equiv, rank, synthesize,
                    transform_type, zero_module)
from zzdist import linalg

F, B = FORWARD, BACKWARD


def tau(s: str) -> Orientation:
    return Orientation.from_string(s)


def test_orientation_validation_and_round_trip():
    t = tau("><>")
    assert t.n == 4 and t.to_string() == "><>"
    assert t.entry(1) == F and t.entry(2) == B
    # a bool or a float is no index: True once read as 1, and 1.0 raised a
    # TypeError on the tuple index
    for k in (0, 4, True, 1.0, 1.5):
        with pytest.raises(ValueError, match=f"^arrow index {k!r} out of range 1..3$"):
            t.entry(k)
    with pytest.raises(ValueError):
        Orientation(())
    with pytest.raises(ValueError):
        Orientation(("x",))


def test_transform_type_reversal():
    assert transform_type(tau("><>"), REVERSAL, 2) == tau(">>>")
    assert transform_type(tau(">>>"), REVERSAL, 2) == tau("><>")
    for k in (3, True, 1.0, 1.5):
        with pytest.raises(ValueError, match=f"^reversal index {k!r} out of range 1..2$"):
            transform_type(tau(">>"), REVERSAL, k)
    with pytest.raises(ValueError, match="unknown type transformation 'flip'"):
        transform_type(tau(">>"), "flip", 1)


def test_transform_type_extroversion():
    assert transform_type(tau(">><"), EXTROVERSION, 2) == tau("<><")
    # a source sees both neighbours leave; boundary entries only where they exist
    assert transform_type(tau(">><"), EXTROVERSION, 1) == tau(">><")
    assert transform_type(tau(">>>"), EXTROVERSION, 4) == tau(">><")
    for k in (5, 0, True, 1.0, 1.5):
        with pytest.raises(ValueError, match=f"^index {k!r} out of range 1..4$"):
            transform_type(tau(">><"), EXTROVERSION, k)
        with pytest.raises(ValueError, match=f"^index {k!r} out of range 1..4$"):
            classify_index(tau(">><"), k)


def test_transform_type_introversion():
    assert transform_type(tau(">><"), INTROVERSION, 4) == tau(">>>")
    assert transform_type(tau("><>"), INTROVERSION, 2) == tau("><>")
    assert transform_type(tau("<<>"), INTROVERSION, 1) == tau("<<>")
    assert transform_type(tau(">>>"), INTROVERSION, 2) == tau("><>")


def test_transform_type_produces_expected_neighbourhood():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 7)
        t = Orientation(tuple(rng.choice((F, B)) for _ in range(n - 1)))
        k = rng.randint(1, n)
        out = transform_type(t, EXTROVERSION, k)
        assert classify_index(out, k) == SOURCE
        out = transform_type(t, INTROVERSION, k)
        assert classify_index(out, k) == SINK
        # entries away from k never move
        for j in range(1, n):
            if j not in (k - 1, k):
                assert out.entry(j) == t.entry(j)


def test_classify_index_table():
    assert classify_index(tau("><"), 2) == SINK
    assert classify_index(tau("<>"), 2) == SOURCE
    assert classify_index(tau(">>"), 2) == FORWARD_FLOW
    assert classify_index(tau("<<"), 2) == BACKWARD_FLOW
    assert classify_index(tau("><"), 1) == SOURCE
    assert classify_index(tau("<<"), 1) == SINK
    assert classify_index(tau("><"), 3) == SOURCE
    assert classify_index(tau(">>"), 3) == SINK
    with pytest.raises(ValueError):
        classify_index(tau("><"), 4)


def test_interval_module_shapes():
    V = interval_module(tau("><"), 1, 3)
    assert V.dims == (1, 1, 1)
    assert all(M == Matrix.identity(1, V.p) for M in V.maps)
    V = interval_module(tau("><"), 2, 2)
    assert V.dims == (0, 1, 0)
    for t in all_dirs(4):
        V = interval_module(Orientation(t), 1, 4)
        assert V.dims == (1, 1, 1, 1)
        assert all(M == Matrix.identity(1, V.p) for M in V.maps)
    with pytest.raises(ValueError):
        interval_module(tau("><"), 3, 2)
    with pytest.raises(ValueError):
        interval_module(tau("><"), 0, 2)


def test_direct_sum():
    V = interval_module(tau(">>"), 1, 2)
    W = interval_module(tau(">>"), 2, 3)
    S = direct_sum(V, W)
    assert S.dims == (1, 2, 1)
    O = zero_module(tau(">>"))
    assert direct_sum(V, O).dims == V.dims
    assert direct_sum(V, O).maps == V.maps
    with pytest.raises(ValueError):
        direct_sum(V, interval_module(tau("><"), 1, 2))
    with pytest.raises(ValueError, match=r"field mismatch: GF\(2\) vs GF\(3\)"):
        direct_sum(V, interval_module(tau(">>"), 2, 3, p=3))


def test_synthesize_dims():
    assert synthesize(tau("><"), ()).dims == (0, 0, 0)
    V = synthesize(tau("><>"), ((1, 4), (1, 2), (2, 3), (2, 3), (3, 3)))
    assert V.dims == (2, 4, 4, 1)
    V = synthesize(tau("><"), ((2, 2),))
    assert V.dims == (0, 1, 0)
    with pytest.raises(ValueError):
        synthesize(tau("><"), ((0, 2),))


def test_synthesize_matches_indicator_dimensions():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 7)
        pts = random_points(rng, n, 5)
        V = synthesize(Orientation(tuple(rng.choice((F, B)) for _ in range(n - 1))), pts)
        for i in range(1, n + 1):
            assert V.dims[i - 1] == sum(1 for (b, d) in pts if b <= i <= d)


def test_structure_map_ranks_from_intervals():
    # the map between slots i, i+1 has rank = number of intervals crossing it
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 6)
        S, V = synthesized_pair(rng, n, 4, 2)
        pts = S.diagram.points
        for i in range(1, n):
            crossing = sum(1 for (b, d) in pts if b <= i and d >= i + 1)
            assert rank(V.maps[i - 1]) == crossing


def test_zigzag_module_validation():
    with pytest.raises(ValueError):
        ZigzagModule(tau(">"), (1, 1), (Matrix.zero(2, 1, 2),))
    with pytest.raises(ValueError):
        ZigzagModule(tau(">"), (1,), ())
    with pytest.raises(ValueError, match="expected 2 structure maps, got 1"):
        ZigzagModule(tau(">>"), (1, 1, 1), (Matrix.identity(1, 2),))
    with pytest.raises(ValueError, match=r"^map 2 is over GF\(3\), expected GF\(2\)$"):
        ZigzagModule(tau(">>"), (1, 1, 1), (Matrix.identity(1, 2), Matrix.identity(1, 3)))


def test_zigzag_module_refuses_wrong_typed_fields():
    # a string type used to fail with an AttributeError on the missing ``n``
    with pytest.raises(ValueError, match="^tau is str, expected Orientation$"):
        ZigzagModule("><", (1, 1, 1), (Matrix.identity(1, 2),) * 2)
    with pytest.raises(ValueError, match="^map 2 is list, expected Matrix$"):
        ZigzagModule(tau("><"), (1, 1, 1), (Matrix.identity(1, 2), [[1]]))


def test_identity_and_zero_morphisms():
    rng = random.Random(15)
    for _ in range(10):
        _, V = synthesized_pair(rng, rng.randint(2, 5), 3, 2)
        assert is_morphism(identity_morphism(V))
        z = Morphism(V, V, tuple(Matrix.zero(d, d, V.p) for d in V.dims))
        assert is_morphism(z)


def test_morphism_validation():
    V = interval_module(tau(">"), 1, 2, p=5)
    one = Matrix.identity(1, 5)
    rows = [(lambda: Morphism(V, interval_module(tau("<"), 1, 2, p=5), (one, one)),
             "source and target must share an orientation type"),
            (lambda: Morphism(V, interval_module(tau(">"), 1, 2, p=3), (one, one)),
             "source and target must share a field"),
            (lambda: Morphism(V, V, (one,)), "expected 2 components, got 1"),
            (lambda: Morphism(V, V, (one, Matrix.identity(1, 3))),
             r"^component 2 is over GF\(3\), expected GF\(5\)$"),
            (lambda: Morphism(V, V, (one, [[1]])), "^component 2 is list, expected Matrix$"),
            (lambda: Morphism(V, V, (Matrix.zero(1, 2, 5), one)),
             r"component 1 has shape \(1, 2\), expected \(1, 1\)"),
            (lambda: compose(identity_morphism(V), identity_morphism(interval_module(
                tau(">"), 1, 1, p=5))), "morphisms are not composable")]
    for build, message in rows:
        with pytest.raises(ValueError, match=message):
            build()


def test_morphism_refuses_wrong_typed_fields():
    # these used to fail with an AttributeError on the missing ``tau``
    V = interval_module(tau(">"), 1, 2)
    with pytest.raises(ValueError, match="^source is int, expected ZigzagModule$"):
        Morphism(1, 2, ())
    with pytest.raises(ValueError, match="^target is Orientation, expected ZigzagModule$"):
        Morphism(V, tau(">"), ())


def test_non_morphism_detected():
    V = interval_module(tau(">"), 1, 2, p=5)
    phi = Morphism(V, V, (Matrix.from_rows([[2]], 5), Matrix.from_rows([[1]], 5)))
    assert not is_morphism(phi)
    phi = Morphism(V, V, (Matrix.from_rows([[2]], 5), Matrix.from_rows([[2]], 5)))
    assert is_morphism(phi)


def test_compose_morphisms():
    rng = random.Random(21)
    _, V = synthesized_pair(rng, 4, 3, 5)
    bases1 = [_rand_invertible(rng, d, 5) for d in V.dims]
    W, phi = conjugate(V, bases1)
    bases2 = [_rand_invertible(rng, d, 5) for d in W.dims]
    X, psi = conjugate(W, bases2)
    chained = compose(psi, phi)
    assert chained.source is V and chained.target is X
    assert is_morphism(chained)


def _rand_invertible(rng, dim, p):
    while True:
        M = random_matrix(rng, dim, dim, p)
        if is_invertible(M):
            return M


def test_conjugate_identity_bases_is_noop():
    rng = random.Random(25)
    _, V = synthesized_pair(rng, 4, 3, 2)
    W, phi = conjugate(V, [Matrix.identity(d, 2) for d in V.dims])
    assert W.maps == V.maps and W.dims == V.dims
    assert is_morphism(phi)


def test_conjugate_preserves_decomposition():
    rng = random.Random(27)
    for p in (2, 5):
        for _ in range(10):
            S, V = synthesized_pair(rng, rng.randint(2, 5), 4, p)
            W, phi = conjugate(V, [_rand_invertible(rng, d, p) for d in V.dims])
            assert is_morphism(phi)
            assert decompose(W) == decompose(V)
    with pytest.raises(ValueError):
        conjugate(V, [Matrix.zero(d, d, 5) for d in V.dims])
    with pytest.raises(ValueError, match=f"expected {V.n} base changes, got {V.n - 1}"):
        conjugate(V, [Matrix.identity(d, 5) for d in V.dims[1:]])
    d, rest = V.dims[0], [Matrix.identity(e, 5) for e in V.dims[1:]]
    shape = rf"^base change 1 has shape \({d + 1}, {d + 1}\), expected \({d}, {d}\)$"
    with pytest.raises(ValueError, match=shape):
        conjugate(V, [Matrix.identity(e + 1, 5) for e in V.dims])
    # a list once failed with an AttributeError on the missing ``p``
    with pytest.raises(ValueError, match="^base change 1 is list, expected Matrix$"):
        conjugate(V, [Matrix.identity(d, 5).tolists(), *rest])


def test_inverting_takes_one_elimination(monkeypatch):
    # one solve against the identity both finds the inverse and refuses a
    # singular matrix, where a rank check and an inverse made two
    rng = random.Random(29)
    _, V = synthesized_pair(rng, 5, 4, 3)
    bases = [_rand_invertible(rng, d, 3) for d in V.dims]
    singular = bases[:2] + [Matrix.zero(d, d, 3) for d in V.dims[2:]]
    U = interval_module(tau(">>"), 1, 3)
    calls = count_calls(monkeypatch, linalg, "_echelon")
    W, phi = conjugate(V, bases)
    assert calls == [5]
    calls[0] = 0
    with pytest.raises(ValueError, match="base change 3 is singular"):
        conjugate(V, singular)
    assert calls == [3]
    calls[0] = 0
    assert arrow_reverse(U, 1).tau == tau("<>") and calls == [1]
    assert is_morphism(phi) and decompose(W) == decompose(V)


def test_arrow_reverse_round_trip():
    rng = random.Random(33)
    found = 0
    while found < 10:
        S, V = synthesized_pair(rng, rng.randint(2, 5), 3, 2)
        spots = iso_positions(V)
        if not spots:
            continue
        k = min(spots)
        W = arrow_reverse(V, k)
        assert W.tau == transform_type(V.tau, REVERSAL, k)
        back = arrow_reverse(W, k)
        assert back.tau == V.tau and back.maps == V.maps
        assert decompose(W) == decompose(V)
        found += 1


def test_arrow_reverse_full_interval_any_position():
    for t in all_dirs(4):
        V = interval_module(Orientation(t), 1, 4)
        for k in range(1, 4):
            W = arrow_reverse(V, k)
            assert decompose(W).counts() == ((1, 4, 1),)


def test_arrow_reverse_requires_invertible_map():
    V = interval_module(tau(">>"), 1, 2)
    with pytest.raises(ValueError):
        arrow_reverse(V, 2)
    for k in (0, 3, True, 1.0, 1.5):
        with pytest.raises(ValueError, match=f"^arrow index {k!r} out of range 1..2$"):
            arrow_reverse(V, k)


def test_arrow_reverse_commutes_with_direct_sum():
    rng = random.Random(35)
    found = 0
    while found < 10:
        n = rng.randint(2, 5)
        S1, V = synthesized_pair(rng, n, 3, 2)
        S2 = random_symbolic(rng, n, 3)
        W = synthesize(S1.tau, S2.diagram.points)
        common = iso_positions(V) & iso_positions(W)
        if not common:
            continue
        k = min(common)
        left = arrow_reverse(direct_sum(V, W), k)
        right = direct_sum(arrow_reverse(V, k), arrow_reverse(W, k))
        assert left.tau == right.tau and left.maps == right.maps
        found += 1


def test_iso_positions_fixed_cases():
    assert iso_positions(zero_module(tau("><"))) == {1, 2}
    assert iso_positions(interval_module(tau("<><"), 1, 4)) == {1, 2, 3}
    V = synthesize(tau(">>"), ((1, 2), (2, 3)))
    assert iso_positions(V) == frozenset()


def test_flippable_rule_matches_matrix_iso_positions():
    rng = random.Random(39)
    for _ in range(40):
        n = rng.randint(2, 6)
        S, V = synthesized_pair(rng, n, 4, 2)
        assert flippable_positions(S.diagram.points, n) == iso_positions(V)


def test_canonical_type_sets_flippable_arrows_forward():
    rng = random.Random(45)
    for _ in range(40):
        S = random_symbolic(rng, rng.randint(2, 6), 3)
        canon = canonical_type(S.tau, S.diagram.points)
        flips = flippable_positions(S.diagram.points, S.n)
        for k in range(1, S.n):
            if k in flips:
                assert canon.entry(k) == F
            else:
                assert canon.entry(k) == S.tau.entry(k)
        assert canonical_type(canon, S.diagram.points) == canon


def test_canonical_type_identifies_reversal_orbit():
    rng = random.Random(49)
    for _ in range(30):
        S = random_symbolic(rng, rng.randint(2, 5), 3)
        flips = sorted(flippable_positions(S.diagram.points, S.n))
        t = S.tau
        for k in flips:
            if rng.random() < 0.5:
                t = transform_type(t, REVERSAL, k)
        assert canonical_type(t, S.diagram.points) == canonical_type(S.tau, S.diagram.points)


def test_summand_upto_equiv_fixed_cases():
    D = ((1, 2), (2, 3))
    P = _pd(3, D)
    assert is_summand_upto_equiv(tau(">>"), P, tau(">>"), P)
    assert not is_summand_upto_equiv(tau(">>"), P, tau("><"), P)
    empty = _pd(3, ())
    assert is_summand_upto_equiv(tau(">>"), empty, tau("><"), P)
    with pytest.raises(ValueError):
        is_summand_upto_equiv(tau(">>"), P, tau(">"), _pd(2, ()))
    for args in ((tau(">>"), _pd(4, ()), tau(">>"), P), (tau(">>"), P, tau(">>"), _pd(4, ()))):
        with pytest.raises(ValueError, match="diagram length does not match orientation length"):
            is_summand_upto_equiv(*args)


def _pd(n, pts):
    from zzdist import PersistenceDiagram
    return PersistenceDiagram(n, tuple(pts))


def _brute_summand(tau_v, pts_v, tau_w, pts_w, n):
    """Oracle: try every subset of matrix-level reversible arrows of V."""
    cv, cw = Counter(pts_v), Counter(pts_w)
    if any(cv[x] > cw.get(x, 0) for x in cv):
        return False
    spots = sorted(iso_positions(synthesize(tau_v, pts_v)))
    for pick in itertools.chain.from_iterable(
            itertools.combinations(spots, r) for r in range(len(spots) + 1)):
        t = tau_v
        for k in pick:
            t = transform_type(t, REVERSAL, k)
        if t == tau_w:
            return True
    return False


def test_summand_upto_equiv_matches_reversal_enumeration():
    rng = random.Random(51)
    for _ in range(120):
        n = rng.randint(2, 5)
        SV = random_symbolic(rng, n, 2)
        if rng.random() < 0.5:
            SW = random_symbolic(rng, n, 3)
        else:
            # force frequent containment so the true branch gets exercised
            extra = random_points(rng, n, 2)
            SW = random_symbolic(rng, n, 0)
            SW = _sym(SV.tau if rng.random() < 0.5 else SW.tau,
                      _pd(n, SV.diagram.points + extra))
        got = is_summand_upto_equiv(SV.tau, SV.diagram, SW.tau, SW.diagram)
        want = _brute_summand(SV.tau, SV.diagram.points, SW.tau, SW.diagram.points, n)
        assert got == want


def _sym(t, diagram):
    from zzdist import SymbolicModule
    return SymbolicModule(t, diagram)


def test_summand_upto_equiv_is_preorder():
    rng = random.Random(55)
    mods = [random_symbolic(rng, 4, 2) for _ in range(40)]
    for S in mods:
        assert is_summand_upto_equiv(S.tau, S.diagram, S.tau, S.diagram)
    for a in mods:
        for b in mods:
            for c in mods:
                if (is_summand_upto_equiv(a.tau, a.diagram, b.tau, b.diagram)
                        and is_summand_upto_equiv(b.tau, b.diagram, c.tau, c.diagram)):
                    assert is_summand_upto_equiv(a.tau, a.diagram, c.tau, c.diagram)


def test_mutual_summand_forces_equal_diagrams():
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = random_symbolic(rng, n, 2)
        b = random_symbolic(rng, n, 2)
        if (is_summand_upto_equiv(a.tau, a.diagram, b.tau, b.diagram)
                and is_summand_upto_equiv(b.tau, b.diagram, a.tau, a.diagram)):
            assert Counter(a.diagram.points) == Counter(b.diagram.points)
            disagreements = {k for k in range(1, n) if a.tau.entry(k) != b.tau.entry(k)}
            assert disagreements <= flippable_positions(a.diagram.points, n)
