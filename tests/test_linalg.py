from __future__ import annotations

import enum
import itertools
import random
import re

import helpers
import pytest
from helpers import (cokernel, count_calls, enumerate_limit_dim, kernel_basis, minor_rank,
                     random_matrix, random_module, relations_colimit, rref_kernel, rref_rank,
                     rref_solve, segment_rank, segment_ranks)

from zzdist import (FORWARD, FiniteDiagram, Matrix, block_diag,
                    diagram_colimit, diagram_limit, hstack, inverse, is_invertible,
                    is_prime, rank, solve, vstack)
import zzdist
from zzdist import linalg


def test_matrix_construction_and_reduction():
    M = Matrix.from_rows([[3, 7], [-1, 10]], 5)
    assert M.tolists() == [[3, 2], [4, 0]]
    assert M.shape == (2, 2)
    with pytest.raises(ValueError):
        Matrix.from_rows([[1], [1, 2]], 2)
    with pytest.raises(ValueError):
        Matrix.from_rows([[1]], 4)


def test_matrix_is_immutable_value():
    A = Matrix.from_rows([[1, 0], [1, 1]], 2)
    B = Matrix.from_rows([[1, 0], [1, 1]], 2)
    assert A == B and hash(A) == hash(B)
    assert A != Matrix.from_rows([[1, 0], [0, 1]], 2)
    with pytest.raises(Exception):
        A.data[0, 0] = 1


def test_matmul_respects_field():
    A = Matrix.from_rows([[1, 2], [3, 4]], 5)
    B = Matrix.from_rows([[2, 0], [1, 3]], 5)
    assert (A @ B).tolists() == [[4, 1], [0, 2]]
    with pytest.raises(ValueError):
        A @ Matrix.from_rows([[1, 2], [3, 4]], 7)
    with pytest.raises(ValueError, match=r"shape mismatch for product: \(2, 2\) @ \(1, 2\)"):
        A @ Matrix.from_rows([[1, 2]], 5)
    with pytest.raises(ValueError, match="^entry 1 of a product is list, expected Matrix$"):
        A @ [[1, 0], [0, 1]]


def test_zero_and_identity_ranks():
    assert rank(Matrix.identity(2, 2)) == 2
    assert rank(Matrix.zero(3, 4, 2)) == 0


def test_zero_refuses_a_negative_height_or_width():
    with pytest.raises(ValueError, match="^matrix height must be >= 0, got -1$"):
        Matrix.zero(-1, 2)
    with pytest.raises(ValueError, match="^matrix width must be >= 0, got -1$"):
        Matrix.zero(2, -1)


def test_zero_and_identity_refuse_a_size_that_is_not_an_integer():
    # these once raised Python's own TypeError while building the rows,
    # and then named an "entry 0" of a size that is no list
    ints = " must be an integer, got 1.5$"
    for call, message in ((lambda: Matrix.zero(2, 1.5), "^matrix width" + ints),
                          (lambda: Matrix.zero(1.5, 2), "^matrix height" + ints),
                          (lambda: Matrix.identity(1.5), "^matrix size" + ints),
                          (lambda: Matrix.identity(-1), "^matrix size must be >= 0, got -1$")):
        with pytest.raises(ValueError, match=message):
            call()


_TAU = zzdist.Orientation(">>")


@pytest.mark.parametrize("call, message", [
    (lambda: zzdist.PersistenceDiagram(3, 5), "endpoints must be a sequence, got int"),
    (lambda: zzdist.PersistenceDiagram.from_counts(3, 7),
     "birth, death and multiplicity must be a sequence, got int"),
    (lambda: zzdist.synthesize(_TAU, None), "endpoints must be a sequence, got NoneType"),
    (lambda: Matrix(2, None, 0), "matrix row entries must be a sequence, got NoneType"),
    (lambda: zzdist.Matching(1, 1, None), "indices must be a sequence, got NoneType"),
    (lambda: zzdist.ZigzagModule(_TAU, None, ()), "dimensions must be a sequence, got NoneType"),
    (lambda: zzdist.Orientation(5), "arrow directions must be a sequence, got int"),
    (lambda: zzdist.ZigzagModule(_TAU, (1, 1, 1), None),
     "structure maps must be a sequence, got NoneType"),
    (lambda: zzdist.ReflectionSequence(3), "reflection ops must be a sequence, got int"),
    (lambda: zzdist.Morphism(zzdist.zero_module(_TAU), zzdist.zero_module(_TAU), None),
     "components must be a sequence, got NoneType"),
    (lambda: zzdist.conjugate(zzdist.zero_module(_TAU), 2),
     "base changes must be a sequence, got int"),
    (lambda: zzdist.canonical_type(_TAU, None), "endpoints must be a sequence, got NoneType"),
    (lambda: zzdist.flippable_positions(None, 3), "endpoints must be a sequence, got NoneType"),
])
def test_a_value_that_is_no_sequence_is_refused_naming_what_was_wanted(call, message):
    # each of these once raised Python's own TypeError: ... is not iterable
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


_D = zzdist.PersistenceDiagram(3, [(1, 2)])


@pytest.mark.parametrize("call, message", [
    (lambda: zzdist.matching_cost(_D, _D, None), "M is NoneType, expected Matching"),
    (lambda: zzdist.cost(None), "seq is NoneType, expected ReflectionSequence"),
    (lambda: zzdist.cost(3), "seq is int, expected ReflectionSequence"),
    (lambda: zzdist.diagram_contains(None, _D), "inner is NoneType, expected PersistenceDiagram"),
    (lambda: zzdist.canonical_type(None, [(1, 2)]), "tau is NoneType, expected Orientation"),
    (lambda: zzdist.canonical_type(_TAU, "x"), "entry 0 'x': endpoints must be integers"),
    (lambda: zzdist.canonical_type(_TAU, [1]), "entry 0 1: endpoints must be integers"),
    (lambda: zzdist.flippable_positions("x", 3), "entry 0 'x': endpoints must be integers"),
    (lambda: zzdist.flippable_positions([1], 3), "entry 0 1: endpoints must be integers"),
    (lambda: zzdist.random_symbolic_module(None, 3, 2), "rng is NoneType, expected Random"),
])
def test_an_argument_of_the_wrong_kind_is_refused(call, message):
    # each of these once raised Python's own AttributeError on a missing
    # field, TypeError (no len(), not subscriptable) or IndexError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


_M = Matrix.identity(2, 3)


@pytest.mark.parametrize("call, message", [
    (lambda: _M @ 3, "entry 1 of a product is int, expected Matrix"),
    (lambda: vstack([_M, None]), "entry 1 of a stack is NoneType, expected Matrix"),
    (lambda: vstack(None), "a stack must be a sequence, got NoneType"),
    (lambda: solve(_M, None), "entry 1 of a solve is NoneType, expected Matrix"),
    (lambda: block_diag(None, _M), "entry 0 of a block sum is NoneType, expected Matrix"),
    (lambda: solve(None, _M), "entry 0 of a solve is NoneType, expected Matrix"),
    (lambda: hstack([_M, None]), "entry 1 of a stack is NoneType, expected Matrix"),
    (lambda: rank(None), "M is NoneType, expected Matrix"),
    (lambda: inverse(None), "M is NoneType, expected Matrix"),
    (lambda: is_invertible(None), "M is NoneType, expected Matrix"),
])
def test_an_operand_that_is_no_matrix_is_refused(call, message):
    # the first four once raised a TypeError of their own, the others an
    # AttributeError on the missing field or shape
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_rank_of_product_bounded_by_factor():
    rng = random.Random(101)
    for p in (2, 5):
        for _ in range(20):
            B = random_matrix(rng, 5, 5, p)
            while rank(B) != 3:
                B = random_matrix(rng, 5, 5, p)
            A = random_matrix(rng, 5, 5, p)
            assert rank(A @ B) <= 3


def test_rank_matches_minor_enumeration():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(40):
            M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), p)
            assert rank(M) == minor_rank(M)


def test_rank_exhaustive_gf2_3x3():
    for bits in range(512):
        rows = [[(bits >> (3 * r + c)) & 1 for c in range(3)] for r in range(3)]
        M = Matrix.from_rows(rows, 2)
        assert rank(M) == minor_rank(M)


def test_kernel_basis_fixed_cases():
    assert kernel_basis(Matrix.identity(3, 2)).cols == 0
    K = kernel_basis(Matrix.zero(2, 3, 2))
    assert K.cols == 3 and rank(K) == 3
    K = kernel_basis(Matrix.from_rows([[1, 1]], 2))
    assert K.tolists() == [[1], [1]]
    # exhaustive: (1,1) is the only nonzero vector killed by [1 1] over GF(2)
    killed = [v for v in itertools.product(range(2), repeat=2) if (v[0] + v[1]) % 2 == 0]
    assert killed == [(0, 0), (1, 1)]


def test_kernel_rank_nullity():
    rng = random.Random(11)
    for p in (2, 5):
        for _ in range(40):
            M = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), p)
            K = kernel_basis(M)
            assert K.cols == M.cols - rank(M)
            assert (M @ K).is_zero()
            assert rank(K) == K.cols


def test_cokernel_fixed_cases():
    assert cokernel(Matrix.identity(3, 2))[0] == 0
    dim, proj = cokernel(Matrix.zero(2, 2, 2))
    assert dim == 2 and is_invertible(proj)
    dim, proj = cokernel(Matrix.from_rows([[1], [1]], 2))
    assert dim == 1
    assert (proj @ Matrix.from_rows([[1], [1]], 2)).is_zero()


def test_cokernel_properties_random():
    rng = random.Random(13)
    for p in (2, 5):
        for _ in range(40):
            M = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), p)
            dim, proj = cokernel(M)
            assert dim == M.rows - rank(M)
            assert proj.shape == (dim, M.rows)
            assert rank(proj) == dim
            assert (proj @ M).is_zero()


def test_solve_and_inverse():
    rng = random.Random(17)
    for p in (2, 5):
        for _ in range(40):
            A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), p)
            X = random_matrix(rng, A.cols, 2, p)
            got = solve(A, A @ X)
            assert got is not None
            assert A @ got == A @ X
            if rank(A) == A.cols:
                assert got == X
    A = Matrix.from_rows([[1, 1], [0, 1]], 2)
    assert inverse(A) @ A == Matrix.identity(2, 2)
    assert solve(Matrix.zero(1, 1, 2), Matrix.from_rows([[1]], 2)) is None
    with pytest.raises(ValueError):
        inverse(Matrix.from_rows([[1, 1], [1, 1]], 2))
    with pytest.raises(ValueError, match=r"shape mismatch for solve: \(2, 2\) vs \(1, 1\)"):
        solve(A, Matrix.identity(1, 2))
    with pytest.raises(ValueError, match=r"only square matrices can be inverted, got \(1, 2\)"):
        inverse(Matrix.from_rows([[1, 1]], 2))


def test_solve_refuses_exactly_the_inconsistent_systems():
    # None comes from a pivot past A's columns, which [A | B] has exactly
    # when it has more rank than A; zero rows and columns included
    rng = random.Random(23)
    for p in (2, 3, 5, 7):
        for _ in range(150):
            A = random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4), p)
            B = random_matrix(rng, A.rows, rng.randint(0, 3), p)
            X = solve(A, B)
            assert (X is None) == (rank(A) < rank(hstack([A, B]))), (A, B)
            if X is not None:
                assert X.shape == (A.cols, B.cols) and A @ X == B


def test_echelon_routines_match_the_rref_oracle():
    # the kernel vector of each free column and the solution supported on
    # the pivot columns are unique, so one echelon gives exactly what a
    # full reduced row echelon form gave
    rng = random.Random(61)
    solvable = unsolvable = 0
    for case in range(3000):
        p = (2, 3, 5, 7)[case % 4]
        A = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), p)
        k = rng.randint(0, 3)
        # half the right-hand sides lie in A's column space by construction
        B = (A @ random_matrix(rng, A.cols, k, p) if case % 2
             else random_matrix(rng, A.rows, k, p))
        assert linalg._kernel(A.data, A.cols, p) == rref_kernel(A.data, A.cols, p), A
        assert rank(A) == rref_rank(A), A
        X = solve(A, B)
        assert X == rref_solve(A, B), (A, B)
        solvable += X is not None
        unsolvable += X is None
    assert min(solvable, unsolvable) > 300


def test_is_invertible_matches_determinant_oracle():
    rng = random.Random(19)
    for p in (2, 5):
        for _ in range(30):
            k = rng.randint(1, 4)
            M = random_matrix(rng, k, k, p)
            assert is_invertible(M) == (minor_rank(M) == k)


def test_stacking_helpers():
    A = Matrix.from_rows([[1, 0]], 2)
    B = Matrix.from_rows([[0, 1], [1, 1]], 2)
    assert vstack([A, B]).tolists() == [[1, 0], [0, 1], [1, 1]]
    assert hstack([A.transpose(), B]).tolists() == [[1, 0, 1], [0, 1, 1]]
    D = block_diag(Matrix.identity(1, 2), Matrix.zero(1, 2, 2))
    assert D.tolists() == [[1, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError):
        vstack([A, Matrix.from_rows([[1]], 2)])
    with pytest.raises(ValueError, match="along the join: 1 vs 2"):
        hstack([A, B])
    with pytest.raises(ValueError, match="at least one"):
        hstack([])


def test_is_prime_and_field_validation():
    assert [q for q in range(20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        Matrix.zero(1, 1, 1)
    # 2^61 - 1 is prime but over the bound, which is checked before trial division
    with pytest.raises(ValueError, match="prime <="):
        Matrix.zero(1, 1, 2 ** 61 - 1)
    for p in (True, 2.0, 4, 1, 0, "x", None):
        with pytest.raises(ValueError) as refused:
            Matrix(p, [], 0)
        assert str(refused.value) == f"field order must be a prime <= 1048576, got {p!r}"

    # an IntEnum prime is read as its plain int, which every constructor stores
    class Field(enum.IntEnum):
        THREE = 3

    assert repr(Matrix(Field.THREE, [[1, 2]], 2)) == "Matrix(p=3, data=((1, 2),), cols=2)"
    assert repr(FiniteDiagram(Field.THREE, (1,), ())) == "FiniteDiagram(p=3, spaces=(1,), arrows=())"
    assert type(linalg._check_prime(Field.THREE)) is int


def test_limit_fixed_diagrams():
    one = Matrix.identity(1, 2)
    # pullback of identities
    D = FiniteDiagram(2, (1, 1, 1), ((0, 1, one), (2, 1, one)))
    dim, legs = diagram_limit(D)
    assert dim == 1
    # maps into a zero middle impose no constraint
    D = FiniteDiagram(2, (1, 0, 1),
                      ((0, 1, Matrix.zero(0, 1, 2)), (2, 1, Matrix.zero(0, 1, 2))))
    assert diagram_limit(D)[0] == 2
    # forward flow of identities: the cone is determined by its first leg
    D = FiniteDiagram(2, (1, 1, 1), ((0, 1, one), (1, 2, one)))
    dim, legs = diagram_limit(D)
    assert dim == 1 and is_invertible(legs[0])


def test_finite_diagram_refuses_bad_arrows():
    one = Matrix.identity(1, 2)
    rows = [((0, 2, one), r"arrow 0 endpoints \(0, 2\) out of range"),
            ((-1, 1, one), r"arrow 0 endpoints \(-1, 1\) out of range"),
            ((0, 1, [[1]]), "^arrow 0 is list, expected Matrix$"),
            ((0, 1, Matrix.identity(1, 3)), r"^arrow 0 is over GF\(3\), expected GF\(2\)$"),
            ((0, 1, Matrix.zero(2, 1, 2)), r"arrow 0 has shape \(2, 1\), expected \(1, 1\)")]
    for arrow, message in rows:
        with pytest.raises(ValueError, match=message):
            FiniteDiagram(2, (1, 1), (arrow,))


def test_colimit_fixed_diagrams():
    one = Matrix.identity(1, 2)
    D = FiniteDiagram(2, (1, 1, 1), ((1, 0, one), (1, 2, one)))
    assert diagram_colimit(D)[0] == 1
    D = FiniteDiagram(2, (1, 1, 1),
                      ((1, 0, Matrix.zero(1, 1, 2)), (1, 2, Matrix.zero(1, 1, 2))))
    assert diagram_colimit(D)[0] == 2
    rng = random.Random(23)
    for _ in range(10):
        a, b, c = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 3)
        D = FiniteDiagram(2, (a, b, c), ((0, 2, random_matrix(rng, c, a, 2)),
                                         (1, 2, random_matrix(rng, c, b, 2))))
        dim, legs = diagram_colimit(D)
        assert dim == c and is_invertible(legs[2])


def _random_diagram_of_spaces(rng, p, n_spaces=None):
    k = n_spaces or rng.randint(1, 4)
    spaces = tuple(rng.randint(0, 3) for _ in range(k))
    arrows = []
    for _ in range(rng.randint(0, 4)):
        s, t = rng.randrange(k), rng.randrange(k)
        if s == t:
            continue
        arrows.append((s, t, random_matrix(rng, spaces[t], spaces[s], p)))
    return FiniteDiagram(p, spaces, tuple(arrows))


def test_limit_legs_satisfy_cone_equations():
    rng = random.Random(29)
    for p in (2, 5):
        for _ in range(30):
            D = _random_diagram_of_spaces(rng, p)
            dim, legs = diagram_limit(D)
            for (s, t, M) in D.arrows:
                assert legs[t] == M @ legs[s]
            stacked = vstack(list(legs)) if legs else None
            if stacked is not None:
                assert rank(stacked) == dim


def test_colimit_legs_satisfy_cocone_equations():
    rng = random.Random(31)
    for p in (2, 5):
        for _ in range(30):
            D = _random_diagram_of_spaces(rng, p)
            dim, legs = diagram_colimit(D)
            for (s, t, M) in D.arrows:
                assert legs[t] @ M == legs[s]
            if legs:
                assert rank(hstack(list(legs))) == dim


def test_limit_dim_matches_exhaustive_enumeration():
    rng = random.Random(37)
    for _ in range(15):
        D = _random_diagram_of_spaces(rng, 2, n_spaces=rng.randint(1, 3))
        if sum(D.spaces) > 8:
            continue
        assert diagram_limit(D)[0] == enumerate_limit_dim(list(D.spaces), D.arrows, 2)


def test_colimit_dim_by_duality():
    # reversing every arrow and transposing turns colimits into limits
    rng = random.Random(41)
    for p in (2, 5):
        for _ in range(30):
            D = _random_diagram_of_spaces(rng, p)
            rev = FiniteDiagram(p, D.spaces,
                                tuple((t, s, M.transpose()) for (s, t, M) in D.arrows))
            assert diagram_colimit(D)[0] == diagram_limit(rev)[0]


def test_colimit_matches_relations_oracle():
    # the dual-limit colimit against the quotient by per-arrow relations,
    # leg by leg; self-loops and parallel arrows included
    rng = random.Random(53)
    for it in range(240):
        p = (2, 3, 5)[it % 3]
        k = rng.randint(1, 4)
        spaces = tuple(rng.randint(0, 3) for _ in range(k))
        arrows = []
        for _ in range(rng.randint(0, 5)):
            s, t = rng.randrange(k), rng.randrange(k)
            arrows.append((s, t, random_matrix(rng, spaces[t], spaces[s], p)))
        D = FiniteDiagram(p, spaces, tuple(arrows))
        assert diagram_colimit(D) == relations_colimit(D), D


def test_empty_matrices_keep_their_shape():
    assert Matrix.zero(0, 3) != Matrix.zero(0, 2)
    assert Matrix.zero(3, 0) != Matrix.zero(2, 0)
    assert Matrix.zero(0, 3) == Matrix.from_rows([], 2, cols=3)
    assert hash(Matrix.zero(0, 3)) == hash(Matrix.from_rows([], 2, cols=3))
    assert Matrix.zero(0, 3).transpose().shape == (3, 0)
    assert Matrix.zero(3, 0).transpose().shape == (0, 3)
    assert hstack([Matrix.zero(0, 2), Matrix.zero(0, 3)]).shape == (0, 5)
    assert hstack([Matrix.zero(2, 0), Matrix.identity(2)]).shape == (2, 2)
    assert vstack([Matrix.zero(2, 0), Matrix.zero(3, 0)]).shape == (5, 0)
    assert vstack([Matrix.zero(0, 2), Matrix.identity(2)]).shape == (2, 2)
    assert block_diag(Matrix.zero(0, 2), Matrix.zero(3, 0)).shape == (3, 2)
    assert block_diag(Matrix.zero(2, 0), Matrix.zero(0, 0)).shape == (2, 0)
    assert kernel_basis(Matrix.zero(0, 3)) == Matrix.identity(3)
    assert kernel_basis(Matrix.zero(3, 0)).shape == (0, 0)
    assert cokernel(Matrix.zero(0, 3)) == (0, Matrix.zero(0, 0))
    assert cokernel(Matrix.zero(3, 0)) == (3, Matrix.identity(3))
    assert (Matrix.zero(2, 0) @ Matrix.zero(0, 3)) == Matrix.zero(2, 3)


def test_limit_of_slotwise_direct_sum_is_additive():
    rng = random.Random(43)
    for _ in range(20):
        k = rng.randint(1, 3)
        shape = [(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(0, 3))]
        shape = [(s, t) for (s, t) in shape if s != t]

        def draw(p=2):
            spaces = tuple(rng.randint(0, 2) for _ in range(k))
            arrows = tuple((s, t, random_matrix(rng, spaces[t], spaces[s], p))
                           for (s, t) in shape)
            return FiniteDiagram(p, spaces, arrows)

        D1, D2 = draw(), draw()
        summed = FiniteDiagram(
            2, tuple(a + b for a, b in zip(D1.spaces, D2.spaces)),
            tuple((s1, t1, block_diag(M1, M2))
                  for (s1, t1, M1), (_, _, M2) in zip(D1.arrows, D2.arrows)))
        assert diagram_limit(summed)[0] == diagram_limit(D1)[0] + diagram_limit(D2)[0]
        assert diagram_colimit(summed)[0] == diagram_colimit(D1)[0] + diagram_colimit(D2)[0]


def test_monic_natural_transformation_induces_monic_on_limits():
    rng = random.Random(47)
    p = 2
    done = 0
    while done < 20:
        k = rng.randint(1, 3)
        shape = [(s, t) for (s, t) in
                 ((rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(0, 3)))
                 if s != t]
        dims1 = tuple(rng.randint(0, 2) for _ in range(k))
        extra = tuple(rng.randint(0, 2) for _ in range(k))
        dims2 = tuple(a + b for a, b in zip(dims1, extra))
        # injective components: identity stacked over random rows
        comps = []
        for j in range(k):
            top = Matrix.identity(dims1[j], p)
            bottom = random_matrix(rng, extra[j], dims1[j], p)
            comps.append(vstack([top, bottom]))
        arrows1 = tuple((s, t, random_matrix(rng, dims1[t], dims1[s], p)) for (s, t) in shape)
        # extend each arrow so the naturality squares commute
        arrows2 = []
        for (s, t, M) in arrows1:
            # build N with N @ comps[s] == comps[t] @ M by solving column-wise
            want = comps[t] @ M
            N = solve(comps[s].transpose(), want.transpose())
            if N is None:
                break
            arrows2.append((s, t, N.transpose()))
        else:
            D1 = FiniteDiagram(p, dims1, arrows1)
            D2 = FiniteDiagram(p, tuple(dims2), tuple(arrows2))
            d1, legs1 = diagram_limit(D1)
            d2, legs2 = diagram_limit(D2)
            if d1 == 0:
                done += 1
                continue
            # the induced map satisfies legs2 @ induced == comps @ legs1
            stacked_target = vstack([legs2[j] for j in range(k)])
            stacked_want = vstack([comps[j] @ legs1[j] for j in range(k)])
            induced = solve(stacked_target, stacked_want)
            assert induced is not None
            assert rank(induced) == d1
            done += 1


def test_transpose_skips_the_constructor_checks(monkeypatch):
    # its entries were checked and reduced when the source was built
    rng = random.Random(53)
    mats = [random_matrix(rng, r, c, p) for p in (2, 7) for r in range(4) for c in range(4)]
    want = [Matrix(M.p, [[row[j] for row in M.data] for j in range(M.cols)], M.rows)
            for M in mats]
    calls = count_calls(monkeypatch, linalg, "_exact_ints")
    got = [M.transpose() for M in mats]
    stacked = [hstack([M, M]) for M in mats]
    assert calls == [0]
    assert got == want and list(map(hash, got)) == list(map(hash, want))
    assert all(type(row) is tuple for M in got for row in M.data)
    assert stacked == [Matrix(M.p, [row * 2 for row in M.data], 2 * M.cols) for M in mats]


def test_entries_are_checked_in_one_type_pass(monkeypatch):
    # plain ints pass a type pass with no _index call; what fails it goes
    # through _index, which reads an int subclass as its plain int and
    # refuses the rest, as scalars and inside tuples
    class Level(enum.IntEnum):
        SIX = 6

    calls = count_calls(monkeypatch, linalg, "_index")
    assert linalg._exact_ints([0, -3, 2 ** 70], "xs") == [0, -3, 2 ** 70]
    assert linalg._exact_ints([(1, 2), ()], "xs", True) == [(1, 2), ()]
    assert linalg._residues([7, -1, 5 ** 30 + 2], 5, "xs") == [2, 4, 2]
    assert calls == [0]
    scalars = linalg._exact_ints([1, Level.SIX], "xs") + linalg._residues([1, Level.SIX], 5, "xs")
    pairs = linalg._exact_ints([(1, Level.SIX)], "xs", True)
    assert scalars == [1, 6, 1, 1] and pairs == [(1, 6)]
    assert set(map(type, scalars + list(pairs[0]))) == {int}
    for bad in (True, 1.0, "1", None):
        cases = [(lambda: linalg._exact_ints([0, bad], "xs"), bad),
                 (lambda: linalg._residues([0, bad], 5, "xs"), bad),
                 (lambda: linalg._exact_ints([(0, 1), (0, bad)], "xs", True), (0, bad))]
        for call, shown in cases:
            with pytest.raises(ValueError, match=re.escape(f"entry 1 {shown!r}: xs must be "
                                                           "integers")):
                call()


def test_section_sweep_keeps_its_bases(monkeypatch):
    # after every step the x_b of L and the vectors of W are independent,
    # a forward step keeps L's x_b, and the ranks are the slice ranks
    real, steps = helpers._advance, [0, 0]

    def checked(sweep, forward, A, width, p):
        Lb, Ld, W = out = real(sweep, forward, A, width, p)
        assert len(Ld) == len(Lb) <= len(sweep[0])
        assert len(helpers._rref(Lb, p)[1]) == len(Lb)
        assert len(helpers._rref(W, p)[1]) == len(W)
        assert not forward or Lb is sweep[0]
        steps[forward] += 1
        return out

    monkeypatch.setattr(helpers, "_advance", checked)
    rng = random.Random(59)
    for p in (2, 3, 5, 7):
        for _ in range(25):
            n = rng.randint(2, 6)
            V = random_module(rng, n, 3, p)
            want = {(b - 1, d - 1): r for b in range(1, n + 1) for d in range(b, n + 1)
                    if (r := segment_rank(V, b, d))}
            got = segment_ranks(V.p, V.dims, [d == FORWARD for d in V.tau.dirs], V.maps)
            assert got == want, (V.tau.to_string(), V.dims, V.maps)
    assert min(steps) > 100
