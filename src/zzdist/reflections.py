"""Reflection operations on concrete zigzag modules.

A reflection at position k tears out the space there and rebuilds it as
the limit or the colimit of the three-space window around k; the two
adjacent structure maps are replaced by the legs of the universal
construction, which also fixes the new local arrow directions.  At an
end position the missing neighbour is a zero space whose phantom arrow
the caller orients explicitly.

Reflections act on morphisms too (the induced map is solved for through
the universal property).  The symbolic action on persistence diagrams,
and the annihilating runs built from it, live in ``diagrams``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .linalg import (FiniteDiagram, Matrix, _count, _iterable, _position, _Record, _typed,
                     diagram_colimit, diagram_limit, hstack, solve, vstack)
from .zigzag_core import (BACKWARD, EXTROVERSION, FORWARD, INTROVERSION,
                          Morphism, ZigzagModule, _ends, is_morphism, transform_type)

LIMIT = "limit"
COLIMIT = "colimit"


class ReflectionOp(_Record):
    """One reflection step: rebuild position k as a window limit or colimit.

    ``boundary_dir`` orients the phantom zero arrow used when k is an end
    position: ">" draws it rightward, "<" leftward.  It must be present
    exactly at the ends; ``check_applicable`` enforces this against a
    concrete length since the op itself does not know n.
    """

    kind: str
    k: int
    boundary_dir: str | None

    def __init__(self, kind: str, k: int, boundary_dir: str | None = None) -> None:
        if kind not in (LIMIT, COLIMIT):
            raise ValueError(f"kind must be {LIMIT!r} or {COLIMIT!r}, got {kind!r}")
        k = _count(k, 1, "position")
        if boundary_dir not in (None, FORWARD, BACKWARD):
            raise ValueError(f"boundary direction must be {FORWARD!r} or {BACKWARD!r}, "
                             f"got {boundary_dir!r}")
        self._set(kind=kind, k=k, boundary_dir=boundary_dir)


def check_applicable(op: ReflectionOp, n: int) -> None:
    """Raise unless ``op`` makes sense for a module of length ``n``."""
    k = _position(op.k, n, "position")
    if k in (1, n):
        if op.boundary_dir is None:
            raise ValueError(f"a reflection at end position {k} needs a boundary direction")
    elif op.boundary_dir is not None:
        raise ValueError(f"boundary direction given for interior position {k}")


def ops_at(n: int, k: int) -> tuple[ReflectionOp, ...]:
    """Every reflection available at position k, in a fixed order.

    Limits come before colimits; at the ends each kind appears with the
    rightward phantom arrow before the leftward one.
    """
    n = _count(n, 2, "n")
    k = _position(k, n, "position")
    if k in (1, n):
        return (ReflectionOp(LIMIT, k, FORWARD), ReflectionOp(LIMIT, k, BACKWARD),
                ReflectionOp(COLIMIT, k, FORWARD), ReflectionOp(COLIMIT, k, BACKWARD))
    return (ReflectionOp(LIMIT, k), ReflectionOp(COLIMIT, k))


def all_ops(n: int) -> tuple[ReflectionOp, ...]:
    """Every reflection available on length-n modules, position-major."""
    n = _count(n, 2, "n")
    out: list[ReflectionOp] = []
    for k in range(1, n + 1):
        out.extend(ops_at(n, k))
    return tuple(out)


def _window(V: ZigzagModule, op: ReflectionOp) -> FiniteDiagram:
    """The three-slot diagram around position k, slots (k-1, k, k+1).

    End positions get a zero slot on the missing side; its arrow carries
    the direction ``op.boundary_dir`` and an empty matrix.
    """
    k = op.k
    # the module padded with a zero space and a phantom arrow at each end
    dims = (0, *V.dims, 0)[k - 1:k + 2]
    dirs = (op.boundary_dir, *V.tau.dirs, op.boundary_dir)[k - 1:k + 1]
    maps = (None, *V.maps, None)[k - 1:k + 1]
    arrows = []
    for i, M in enumerate(maps):
        s, t = _ends(dirs, i)
        arrows.append((s, t, Matrix.zero(dims[t], dims[s], V.p) if M is None else M))
    return FiniteDiagram(V.p, dims, tuple(arrows))


def apply(op: ReflectionOp, V: ZigzagModule) -> ZigzagModule:
    """The reflected module.

    A limit makes position k a source (both new arrows are the legs out
    of the limit); a colimit makes it a sink.  Away from k the module is
    untouched.
    """
    return _reflected(op, V)[0]


def _reflected(op: ReflectionOp, V: ZigzagModule) -> tuple[ZigzagModule, tuple[Matrix, ...]]:
    """``apply``, together with the three legs of the window's limit or
    colimit that built it."""
    check_applicable(_typed(op, ReflectionOp, "op"), _typed(V, ZigzagModule, "V").n)
    win = _window(V, op)
    dim_new, legs = (diagram_limit if op.kind == LIMIT else diagram_colimit)(win)
    new_tau = transform_type(V.tau, EXTROVERSION if op.kind == LIMIT else INTROVERSION, op.k)
    dims = list(V.dims)
    dims[op.k - 1] = dim_new
    maps = list(V.maps)
    if op.k >= 2:
        maps[op.k - 2] = legs[0]
    if op.k <= V.n - 1:
        maps[op.k - 1] = legs[2]
    return ZigzagModule(new_tau, tuple(dims), tuple(maps)), legs


def apply_to_morphism(op: ReflectionOp, phi: Morphism) -> Morphism:
    """The reflected morphism between the reflected modules.

    Only the component at position k changes; it is the unique map
    between the new spaces commuting with all the legs, obtained by an
    exact linear solve.  Components that are not a morphism are refused.
    """
    if not is_morphism(phi):
        raise ValueError(f"{op}: the components are not a morphism; a square does not commute")
    V, W = phi.source, phi.target
    Vr, s_legs = _reflected(op, V)
    Wr, t_legs = _reflected(op, W)
    k, n, p = op.k, phi.n, V.p
    window_comps = (phi.components[k - 2] if k >= 2 else Matrix.zero(0, 0, p),
                    phi.components[k - 1],
                    phi.components[k] if k <= n - 1 else Matrix.zero(0, 0, p))
    if op.kind == LIMIT:
        # stacked target legs have full column rank, so the solution is unique
        lhs = vstack(t_legs)
        rhs = vstack([window_comps[i] @ s_legs[i] for i in range(3)])
        mu = solve(lhs, rhs)
    else:
        lhs = hstack(s_legs)
        rhs = hstack([t_legs[i] @ window_comps[i] for i in range(3)])
        x = solve(lhs.transpose(), rhs.transpose())
        mu = None if x is None else x.transpose()
    if mu is None:
        raise AssertionError(f"{op}: no universal factoring map for morphism {V.dims} -> {W.dims}")
    comps = list(phi.components)
    comps[k - 1] = mu
    return Morphism(Vr, Wr, tuple(comps))


class ReflectionSequence(_Record):
    """An ordered run of reflections, applied left to right."""

    ops: tuple[ReflectionOp, ...]

    def __init__(self, ops: Iterable[ReflectionOp]) -> None:
        ops = tuple(_iterable(ops, "reflection ops"))
        if not set(map(type, ops)) <= {ReflectionOp}:  # in C; the loop names one
            for i, op in enumerate(ops):
                _typed(op, ReflectionOp, f"sequence entry {i}")
        self._set(ops=ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[ReflectionOp]:
        return iter(self.ops)


def apply_sequence(seq: ReflectionSequence, V: ZigzagModule) -> ZigzagModule:
    """Fold ``apply`` over the sequence, left to right."""
    for op in seq:
        V = apply(op, V)
    return V
