"""Zigzag modules and their basic calculus.

A zigzag module of length n is a row of n vector spaces joined by n-1
linear maps, each pointing either forward (">") or backward ("<").  The
tuple of arrow directions is the module's orientation type.  This module
provides the type algebra (reversal and the source/sink placements used
by reflections), direct sums, morphisms, conjugation by base change, and
reversal of invertible arrows together with the summand preorder it
generates on decomposed modules.  Modules built from a diagram of
intervals (``synthesize``) live in ``diagrams``, which reads intervals.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .linalg import (Matrix, _count, _dims, _exact_ints, _iterable, _map, _position, _Record,
                     _typed, block_diag, inverse)

FORWARD = ">"
BACKWARD = "<"

SINK = "sink"
SOURCE = "source"
FORWARD_FLOW = "forward_flow"
BACKWARD_FLOW = "backward_flow"

REVERSAL = "reversal"
EXTROVERSION = "extroversion"
INTROVERSION = "introversion"


class Orientation(_Record):
    """Arrow directions of a length-n zigzag; entry k joins positions k, k+1."""

    dirs: tuple[str, ...]

    def __init__(self, dirs: Iterable[str]) -> None:
        dirs = tuple(_iterable(dirs, "arrow directions"))
        if len(dirs) < 1:
            raise ValueError("a zigzag needs at least two positions (one arrow)")
        if not all(map((FORWARD, BACKWARD).__contains__, dirs)):  # in C; the loop names one
            for i, d in enumerate(dirs, 1):
                if d not in (FORWARD, BACKWARD):
                    raise ValueError(f"entry {i} must be {FORWARD!r} or {BACKWARD!r}, got {d!r}")
        self._set(dirs=dirs)

    @classmethod
    def from_string(cls, s: str) -> "Orientation":
        return cls(tuple(s))

    def to_string(self) -> str:
        return "".join(self.dirs)

    @property
    def n(self) -> int:
        """Number of positions."""
        return len(self.dirs) + 1

    def entry(self, k: int) -> str:
        """Direction of arrow k (1-based, joining positions k and k+1)."""
        return self.dirs[_position(k, len(self.dirs), "arrow index") - 1]

    def __str__(self) -> str:
        return self.to_string()


def transform_type(tau: Orientation, kind: str, k: int) -> Orientation:
    """Orientation after an operation at index k.

    ``reversal`` flips arrow k.  ``extroversion`` turns position k into a
    source (both adjacent arrows leave k); ``introversion`` turns it into a
    sink (both adjacent arrows enter k).  At the ends only the one existing
    adjacent arrow is set.
    """
    n = tau.n
    dirs = list(tau.dirs)
    if kind == REVERSAL:
        k = _position(k, n - 1, "reversal index")
        dirs[k - 1] = FORWARD if dirs[k - 1] == BACKWARD else BACKWARD
    elif kind in (EXTROVERSION, INTROVERSION):
        dirs = _turn(dirs, _position(k, n, "index"), kind == EXTROVERSION)
    else:
        raise ValueError(f"unknown type transformation {kind!r}")
    return Orientation(tuple(dirs))


def _turn(dirs: Sequence[str], k: int, source: bool) -> list[str]:
    """Extroversion at k if ``source``, else introversion, unvalidated."""
    out = list(dirs)  # arrow k-1 joins (k-1, k); arrow k joins (k, k+1)
    if k >= 2:
        out[k - 2] = BACKWARD if source else FORWARD
    if k <= len(out):
        out[k - 1] = FORWARD if source else BACKWARD
    return out


def _ends(dirs: Sequence[str], i: int) -> tuple[int, int]:
    """0-based (source, target) positions of map i+1, which joins positions
    i and i+1 and points the way ``dirs[i]`` says."""
    return (i, i + 1) if dirs[i] == FORWARD else (i + 1, i)


def classify_index(tau: Orientation, k: int) -> str:
    """Role of position k: sink, source, or one of the two flow kinds.

    k is a sink when no arrow leaves it and a source when no arrow enters
    it; end positions are always one or the other.  Interior positions
    whose two adjacent arrows agree are flows, named by the shared
    direction.
    """
    n = tau.n
    k = _position(k, n, "index")
    if k == 1:
        return SINK if tau.dirs[0] == BACKWARD else SOURCE
    if k == n:
        return SINK if tau.dirs[-1] == FORWARD else SOURCE
    left, right = tau.dirs[k - 2], tau.dirs[k - 1]
    if left == FORWARD and right == BACKWARD:
        return SINK
    if left == BACKWARD and right == FORWARD:
        return SOURCE
    return FORWARD_FLOW if left == FORWARD else BACKWARD_FLOW


class ZigzagModule(_Record):
    """A concrete zigzag module: dimensions plus structure matrices.

    For a forward arrow k the matrix ``maps[k-1]`` sends position k to
    position k+1 and so has shape (dims[k], dims[k-1]) in 0-based terms;
    for a backward arrow the shape is transposed accordingly.
    """

    tau: Orientation
    dims: tuple[int, ...]
    maps: tuple[Matrix, ...]

    def __init__(self, tau: Orientation, dims: Iterable[int], maps: Iterable[Matrix]) -> None:
        n = _typed(tau, Orientation, "tau").n
        dims = tuple(_dims(dims, "dimensions"))
        maps = tuple(_iterable(maps, "structure maps"))
        if len(dims) != n:
            raise ValueError(f"expected {n} dimensions, got {len(dims)}")
        if len(maps) != n - 1:
            raise ValueError(f"expected {n - 1} structure maps, got {len(maps)}")
        p = _typed(maps[0], Matrix, "map 1").p
        for i, M in enumerate(maps):
            s, t = _ends(tau.dirs, i)
            _map(M, p, (dims[t], dims[s]), f"map {i + 1}")
        self._set(tau=tau, dims=dims, maps=maps)

    @property
    def n(self) -> int:
        return self.tau.n

    @property
    def p(self) -> int:
        return self.maps[0].p


def direct_sum(V: ZigzagModule, W: ZigzagModule) -> ZigzagModule:
    if V.tau != W.tau:
        raise ValueError(f"type mismatch: {V.tau} vs {W.tau}")
    if V.p != W.p:
        raise ValueError(f"field mismatch: GF({V.p}) vs GF({W.p})")
    dims = tuple(a + b for a, b in zip(V.dims, W.dims))
    maps = tuple(block_diag(a, b) for a, b in zip(V.maps, W.maps))
    return ZigzagModule(V.tau, dims, maps)


class Morphism(_Record):
    """A morphism of zigzag modules over one type: commuting components."""

    source: ZigzagModule
    target: ZigzagModule
    components: tuple[Matrix, ...]

    def __init__(self, source: ZigzagModule, target: ZigzagModule,
                 components: Iterable[Matrix]) -> None:
        comps = tuple(_iterable(components, "components"))
        tau = _typed(source, ZigzagModule, "source").tau
        if tau != _typed(target, ZigzagModule, "target").tau:
            raise ValueError("source and target must share an orientation type")
        if source.p != target.p:
            raise ValueError("source and target must share a field")
        if len(comps) != source.n:
            raise ValueError(f"expected {source.n} components, got {len(comps)}")
        for i, c in enumerate(comps):
            _map(c, source.p, (target.dims[i], source.dims[i]), f"component {i + 1}")
        self._set(source=source, target=target, components=comps)

    @property
    def n(self) -> int:
        return self.source.n


def identity_morphism(V: ZigzagModule) -> Morphism:
    comps = tuple(Matrix.identity(d, V.p) for d in V.dims)
    return Morphism(V, V, comps)


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """The composite outer after inner."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValueError("morphisms are not composable")
    comps = tuple(a @ b for a, b in zip(outer.components, inner.components))
    return Morphism(inner.source, outer.target, comps)


def is_morphism(phi: Morphism) -> bool:
    """True when every square of phi commutes."""
    V, W, c = phi.source, phi.target, phi.components
    for i, M in enumerate(V.maps):
        s, t = _ends(V.tau.dirs, i)
        if c[t] @ M != W.maps[i] @ c[s]:
            return False
    return True


def conjugate(V: ZigzagModule, bases: Iterable[Matrix]) -> tuple[ZigzagModule, Morphism]:
    """Rewrite V in new coordinates: position i gets basis change bases[i].

    Returns the conjugated module and the isomorphism from V onto it whose
    components are the base changes themselves.
    """
    B = tuple(_iterable(bases, "base changes"))
    if len(B) != V.n:
        raise ValueError(f"expected {V.n} base changes, got {len(B)}")
    inv = []
    for i, M in enumerate(B):
        _map(M, V.p, (V.dims[i], V.dims[i]), f"base change {i + 1}")
        try:
            inv.append(inverse(M))
        except ValueError:
            raise ValueError(f"base change {i + 1} is singular") from None
    maps = []
    for i, M in enumerate(V.maps):
        s, t = _ends(V.tau.dirs, i)
        maps.append(B[t] @ M @ inv[s])
    W = ZigzagModule(V.tau, V.dims, tuple(maps))
    return W, Morphism(V, W, B)


def arrow_reverse(V: ZigzagModule, k: int) -> ZigzagModule:
    """Reverse arrow k, which must be invertible, replacing it by its inverse."""
    k = _position(k, V.n - 1, "arrow index")
    maps = list(V.maps)
    try:
        maps[k - 1] = inverse(maps[k - 1])
    except ValueError:
        raise ValueError(f"arrow {k} is not invertible and cannot be reversed") from None
    return ZigzagModule(transform_type(V.tau, REVERSAL, k), V.dims, tuple(maps))


def _blocked(intervals: Iterable[Sequence[int]], n: int) -> set[int]:
    """The arrows that are not isomorphisms for a module with these (b, d)
    or (b, d, m) intervals: each blocks at most two, arrows d and b-1."""
    return {k for iv in intervals for k in (iv[1], iv[0] - 1) if 0 < k < n}


def flippable_positions(points: Iterable[tuple[int, int]], n: int) -> frozenset[int]:
    """Arrow indices that are isomorphisms for a module with this diagram.

    Arrow k is an isomorphism exactly when every interval of the diagram
    contains both of positions k, k+1 or neither of them, that is, when
    no interval ends at k or starts at k+1.  The points are read as
    ``PersistenceDiagram`` reads them.
    """
    n = _count(n, 2, "n")
    blocked = _blocked(_exact_ints(points, "endpoints", True, 2), n)
    return frozenset(range(1, n)).difference(blocked)


def _canonical_dirs(dirs: Sequence[str], intervals: Iterable[Sequence[int]]) -> tuple[str, ...]:
    """``canonical_type`` on a tuple of directions, unvalidated."""
    out = [FORWARD] * len(dirs)
    for k in _blocked(intervals, len(dirs) + 1):
        out[k - 1] = dirs[k - 1]
    return tuple(out)


def canonical_type(tau: Orientation, points: Iterable[tuple[int, int]]) -> Orientation:
    """Normal form of a type up to reversing arrows the diagram makes invertible.

    Every flippable arrow is set forward; two modules reachable from each
    other by such reversals share this normal form.  The points are read
    as ``PersistenceDiagram`` reads them.
    """
    return Orientation(_canonical_dirs(_typed(tau, Orientation, "tau").dirs,
                                       _exact_ints(points, "endpoints", True, 2)))


def is_summand_upto_equiv(tau_v: Orientation, diagram_v, tau_w: Orientation, diagram_w) -> bool:
    """Whether the (tau_v, diagram_v) module embeds as a summand of the
    (tau_w, diagram_w) module after reversing invertible arrows.

    Requires the first diagram to be contained in the second as a multiset
    and every position where the types disagree to be flippable for the
    first diagram.  The diagrams are ``PersistenceDiagram`` values, whose
    sorted ``counts()`` are compared one distinct interval at a time.
    """
    if tau_v.n != tau_w.n:
        raise ValueError(f"length mismatch: {tau_v.n} vs {tau_w.n}")
    if diagram_v.n != tau_v.n or diagram_w.n != tau_w.n:
        raise ValueError("diagram length does not match orientation length")
    return _embeds(tau_v.dirs, diagram_v.counts(), tau_w.dirs, diagram_w.counts())


def _contains(inner: tuple, outer: tuple) -> bool:
    """Multiset containment of sorted (b, d, m) tuples, as a subsequence walk."""
    rest = iter(outer)
    for (b, d, m) in inner:
        if next((m2 for (b2, d2, m2) in rest if b2 == b and d2 == d), 0) < m:
            return False
    return True


def _embeds(dirs_v: tuple, counts_v: tuple, dirs_w: tuple, counts_w: tuple) -> bool:
    """``is_summand_upto_equiv`` on direction and (b, d, m) tuples,
    unvalidated: only the arrows V's diagram blocks must agree."""
    return _contains(counts_v, counts_w) and all(
        dirs_v[k - 1] == dirs_w[k - 1] for k in _blocked(counts_v, len(dirs_v) + 1))
