"""Seeded inputs, operations and output checks for the zzdist benchmark.

Every input is generated here in pure Python from the workload seed.  The
program under test only receives the generated objects or files, so a
change to the package's own random generators cannot change a workload.
This module does not import zzdist; each operation reaches the program
through the ``zz`` package object that the worker passes in, and looks
functions up at call time so that traced wrappers are seen.

An operation ("op") has four steps:

- ``write_inputs(workdir)``: write its input files (input generation);
- ``load(zz)``: build the program-side objects it needs;
- ``run(zz)``: the timed call into the program;
- ``check(zz, out)``: whether the output is correct.

``describe(out)`` renders an output for the digest that lets two
commits be compared exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

# Lengths stop at 8: one n=10 pair with 4 intervals took 81 s and 1 GB.
# At most 2 intervals a diagram: with 4, single trials at n=8 ran up to 7 s
# and decided a 30 s run's throughput (25% apart between seeds); with 2
# the slowest trial is ~0.3 s among ~25000 a run.
STABILITY = {"max_n": 8, "max_points": 2}
# Op sizes are held nearly constant (total dimension, points per side) so
# that a run's cost does not hinge on a few large draws.
DECOMPOSE = {"n": range(10, 21), "max_intervals": 16, "total_dim": 34}
BOTTLENECK = {"n": 24, "max_distinct": 40, "max_mult": 40, "points": 100}
# ``bottleneck-1100``: one interval 1100 times against 1101 copies.
HEAVY = {"n": 24, "copies": 1100}

TINY = {
    "stability": {"max_n": 4, "max_points": 2},
    "decompose": {"n": range(4, 7), "max_intervals": 4, "total_dim": 8},
    "bottleneck": {"n": 8, "max_distinct": 6, "max_mult": 8, "points": 12},
    "bottleneck-1100": {"n": 8, "copies": 30},
}


class OpFailed(Exception):
    """The program reported failure, for example a nonzero exit code."""


# ---------------------------------------------------------------- helpers

def _orientation(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("<>") for _ in range(n - 1))


def _interval(rng: random.Random, n: int) -> tuple[int, int]:
    b = rng.randint(1, n)
    return (b, rng.randint(b, n))


def _counts(points) -> list[list[int]]:
    """Sorted [b, d, multiplicity] triples of a list of points."""
    out: dict[tuple[int, int], int] = {}
    for pt in points:
        out[pt] = out.get(pt, 0) + 1
    return [[b, d, m] for (b, d), m in sorted(out.items())]


def _cli_main(argv: list[str]) -> str:
    """Run the zzdist command line in-process and return its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["zzdist.cli"].main(argv)
    if code != 0:
        raise OpFailed(f"zzdist {argv[0]} exited with code {code}")
    return buf.getvalue()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


# -------------------------------------------------------- GF(2) matrices
# A matrix is a list of row bitmasks; bit c of a row is column c.

def _mul(a: list[int], b: list[int]) -> list[int]:
    out = []
    for row in a:
        acc, t = 0, 0
        while row:
            if row & 1:
                acc ^= b[t]
            row >>= 1
            t += 1
        out.append(acc)
    return out


def _inverse(m: list[int]) -> list[int]:
    d = len(m)
    a, inv = list(m), [1 << i for i in range(d)]
    for c in range(d):
        piv = next(r for r in range(c, d) if a[r] >> c & 1)
        a[c], a[piv] = a[piv], a[c]
        inv[c], inv[piv] = inv[piv], inv[c]
        for r in range(d):
            if r != c and a[r] >> c & 1:
                a[r] ^= a[c]
                inv[r] ^= inv[c]
    return inv


def _random_invertible(rng: random.Random, d: int) -> tuple[list[int], list[int]]:
    """P·L·U with P a permutation and L, U unitriangular, and its inverse."""
    lower = [(1 << i) | rng.getrandbits(i) if i else 1 for i in range(d)]
    upper = [(1 << i) | (rng.getrandbits(d - 1 - i) << (i + 1)) if i < d - 1 else 1 << i
             for i in range(d)]
    m = _mul(lower, upper)
    rng.shuffle(m)
    return m, _inverse(m)


def _flat(rows: list[int], cols: int) -> list[int]:
    return [(row >> c) & 1 for row in rows for c in range(cols)]


def scrambled_module(rng: random.Random, n: int, dirs: str,
                     points: list[tuple[int, int]]) -> dict:
    """A module file for the direct sum of the interval modules on
    ``points``, rewritten in a random basis at every position."""
    covers = [[j for j, (b, d) in enumerate(points) if b <= i <= d] for i in range(1, n + 1)]
    dims = [len(c) for c in covers]
    bases = [_random_invertible(rng, d) for d in dims]
    maps = []
    for i in range(n - 1):
        src, tgt = (i, i + 1) if dirs[i] == ">" else (i + 1, i)
        rows = [0] * dims[tgt]
        for c, j in enumerate(covers[src]):
            if j in covers[tgt]:
                rows[covers[tgt].index(j)] |= 1 << c
        conj = _mul(_mul(bases[tgt][0], rows), bases[src][1])
        maps.append(_flat(conj, dims[src]))
    return {"n": n, "type": dirs,
            "matrices": {"field_prime": 2, "dims": dims, "maps": maps}}


# ------------------------------------------------------------- stability

class StabilityOp:
    """One stability trial: d_R^1, d_b^1 and d_b^inf of a random pair."""

    def __init__(self, n, type_v, type_w, points_v, points_w, same_type):
        self.n, self.same_type = n, same_type
        self.type_v, self.type_w = type_v, type_w
        self.points_v, self.points_w = points_v, points_w
        self.V = self.W = None

    def write_inputs(self, workdir: Path) -> None:
        pass

    def load(self, zz) -> None:
        if self.V is None:
            self.V, self.W = (
                zz.SymbolicModule(zz.Orientation.from_string(t),
                                  zz.PersistenceDiagram(self.n, tuple(p)))
                for t, p in ((self.type_v, self.points_v), (self.type_w, self.points_w)))

    def run(self, zz):
        rd = zz.reflection_distance(self.V, self.W, 1)
        d_b1 = zz.bottleneck_distance(self.V.diagram, self.W.diagram, 1)
        d_binf = zz.bottleneck_distance(self.V.diagram, self.W.diagram, math.inf)
        return rd, d_b1, d_binf

    def check(self, zz, out) -> bool:
        rd, d_b1, d_binf = out
        n = self.n
        return (d_b1 <= rd.value
                and d_binf <= d_b1 <= 2 * d_binf
                and (not self.same_type or rd.value <= n * n * (n + 1) * d_b1)
                and rd.value == float(rd.steps)
                and rd.steps == max(len(rd.forward), len(rd.backward))
                and _replay(zz, self.V, self.W, rd.forward)
                and _replay(zz, self.W, self.V, rd.backward))

    def describe(self, out) -> str:
        rd, d_b1, d_binf = out
        return f"{rd.steps} {d_b1!r} {d_binf!r}"


def _canonical(zz, S):
    D = S.diagram.remove_simple()
    return zz.SymbolicModule(zz.canonical_type(S.tau, D.points), D)


def _replay(zz, source, target, run) -> bool:
    """Whether the witness run carries source into a summand of target."""
    S = _canonical(zz, source)
    for op in run:
        S = _canonical(zz, zz.act(op, S))
    return zz.is_summand_upto_equiv(S.tau, S.diagram, target.tau, target.diagram)


def stability_ops(rng: random.Random, max_n: int, max_points: int):
    # Length, shared-orientation coin and interval counts run through
    # balanced blocks, so every run sees the same mix whatever its seed.
    counts = range(max_points + 1)
    cells = [(n, same, kv, kw) for n in range(2, max_n + 1) for same in (False, True)
             for kv in counts for kw in counts]
    while True:
        block = list(cells)
        rng.shuffle(block)
        for n, same, kv, kw in block:
            type_v = _orientation(rng, n)
            type_w = type_v if same else _orientation(rng, n)
            pts_v = [_interval(rng, n) for _ in range(kv)]
            pts_w = [_interval(rng, n) for _ in range(kw)]
            yield StabilityOp(n, type_v, type_w, pts_v, pts_w, same)


# ------------------------------------------------------------- decompose

class DecomposeOp:
    """``zzdist decompose`` on a scrambled module with a known diagram."""

    def __init__(self, module: dict, points: list[tuple[int, int]]):
        self.module = module
        self.expected = {"n": module["n"], "type": module["type"], "diagram": _counts(points)}
        self.total_dim = sum(module["matrices"]["dims"])
        self.path = None

    def write_inputs(self, workdir: Path) -> None:
        if self.module is None:  # already written
            return
        self.path = workdir / "module.json"
        _write_json(self.path, self.module)
        self.module = None  # keep the worker's memory flat across ops

    def load(self, zz) -> None:
        pass

    def run(self, zz) -> str:
        return _cli_main(["decompose", str(self.path)])

    def check(self, zz, out: str) -> bool:
        return json.loads(out) == self.expected

    def describe(self, out: str) -> str:
        return out


def decompose_ops(rng: random.Random, n, max_intervals: int, total_dim: int):
    # Of up to ``max_intervals`` random intervals, keep those that fit in
    # ``total_dim``; lengths n run through balanced blocks.
    while True:
        block = list(n)
        rng.shuffle(block)
        for length in block:
            dirs = _orientation(rng, length)
            points, dim = [], 0
            for _ in range(max_intervals):
                b, d = _interval(rng, length)
                if dim + d - b + 1 <= total_dim:
                    points.append((b, d))
                    dim += d - b + 1
            yield DecomposeOp(scrambled_module(rng, length, dirs, points), points)


# ------------------------------------------------------------ bottleneck

def penalty(b: int, d: int, p: float) -> float:
    """Cost of leaving [b, d] unmatched under the l^p point metric."""
    inv = 0.0 if math.isinf(p) else 1.0 / p
    return (d - b) / 2.0 ** (1.0 - inv)


class BottleneckPair:
    """Two diagram files and the values the CLI printed for them.

    ``exact`` maps "1" and "inf" to the known distance, when there is one.
    """

    def __init__(self, n: int, counts_v: dict, counts_w: dict, exact: dict | None = None):
        self.n = n
        self.counts_v, self.counts_w = counts_v, counts_w
        self.exact = exact
        self.values: dict[str, float] = {}

    def files(self, rng: random.Random) -> list[dict]:
        return [{"n": self.n, "type": _orientation(rng, self.n),
                 "diagram": [[b, d, m] for (b, d), m in sorted(c.items())]}
                for c in (self.counts_v, self.counts_w)]

    @staticmethod
    def max_penalty(counts: dict, p: float) -> float:
        return max((penalty(b, d, p) for (b, d) in counts), default=0.0)

    def value_ok(self, value: float, p: str) -> bool:
        if self.exact is not None:
            return value == self.exact[p]
        p = math.inf if p == "inf" else float(p)
        pen_v = self.max_penalty(self.counts_v, p)
        pen_w = self.max_penalty(self.counts_w, p)
        # Every candidate is a distance or a penalty: integers at p=1,
        # halves at p=inf.  The empty matching bounds the value above; at
        # p=inf the widest interval of either side bounds it below.
        grid = value if p == 1 else 2 * value
        if not (0 <= value <= max(pen_v, pen_w) and grid == int(grid)):
            return False
        return p == 1 or value >= abs(pen_v - pen_w)


class BottleneckOp:
    """``zzdist distance --metric bottleneck`` at one p on one pair."""

    def __init__(self, pair: BottleneckPair, files: list[dict], p: str, tag: str):
        self.pair, self.files, self.p, self.tag = pair, files, p, tag
        self.paths = None

    def write_inputs(self, workdir: Path) -> None:
        self.paths = [workdir / f"{self.tag}_{side}.json" for side in "vw"]
        for path, obj in zip(self.paths, self.files):
            _write_json(path, obj)

    def load(self, zz) -> None:
        pass

    def run(self, zz) -> str:
        return _cli_main(["distance", str(self.paths[0]), str(self.paths[1]),
                          "--metric", "bottleneck", "--p", self.p])

    def check(self, zz, out: str) -> bool:
        value = float(out)
        if not self.pair.value_ok(value, self.p):
            return False
        self.pair.values[self.p] = value
        d1, dinf = self.pair.values.get("1"), self.pair.values.get("inf")
        return d1 is None or dinf is None or dinf <= d1 <= 2 * dinf

    def describe(self, out: str) -> str:
        return out


def _multiplicity(rng: random.Random, max_mult: int) -> int:
    r = rng.random()
    if r < 0.5:
        return 1
    if r < 0.85:
        return rng.randint(2, 5)
    return rng.randint(6, max_mult)


def _random_counts(rng: random.Random, n: int, max_distinct: int, max_mult: int,
                   points: int) -> dict:
    """Random intervals with random multiplicities, ``points`` copies in
    all unless ``max_distinct`` intervals are reached first."""
    counts: dict[tuple[int, int], int] = {}
    total = 0
    while total < points and len(counts) < max_distinct:
        pt = _interval(rng, n)
        m = min(_multiplicity(rng, max_mult), points - total)
        counts[pt] = counts.get(pt, 0) + m
        total += m
    return counts


def _nearby_counts(rng: random.Random, n: int, counts: dict, max_mult: int) -> dict:
    """Each interval of ``counts`` with its ends moved by at most one and
    its multiplicity changed a little, plus a few new intervals."""
    out: dict[tuple[int, int], int] = {}
    for (b, d), m in counts.items():
        b2 = min(max(1, b + rng.randint(-1, 1)), n)
        d2 = min(max(b2, d + rng.randint(-1, 1)), n)
        m2 = max(1, min(max_mult, m + rng.randint(-2, 2)))
        out[(b2, d2)] = out.get((b2, d2), 0) + m2
    for _ in range(rng.randint(0, 3)):
        pt = _interval(rng, n)
        out[pt] = out.get(pt, 0) + _multiplicity(rng, max_mult)
    return out


def bottleneck_ops(rng: random.Random, n: int, max_distinct: int, max_mult: int, points: int):
    # Half of the pairs are nearby diagrams (small distance, the candidate
    # scan stops early), half independent ones (large distance).
    pair_no = 0
    while True:
        for nearby in (True, False):
            counts_v = _random_counts(rng, n, max_distinct, max_mult, points)
            if nearby:
                counts_w = _nearby_counts(rng, n, counts_v, max_mult)
            else:
                counts_w = _random_counts(rng, n, max_distinct, max_mult, points)
            pair = BottleneckPair(n, counts_v, counts_w)
            files = pair.files(rng)
            for p in ("1", "inf"):
                yield BottleneckOp(pair, files, p, f"pair{pair_no % 2}")
            pair_no += 1


def heavy_ops(rng: random.Random, n: int, copies: int):
    # The extra copy stays unmatched, so the distance is its penalty.
    b, d = rng.randint(1, n // 2), rng.randint(n // 2 + 1, n)
    exact = {p: penalty(b, d, math.inf if p == "inf" else float(p)) for p in ("1", "inf")}
    pair = BottleneckPair(n, {(b, d): copies}, {(b, d): copies + 1}, exact)
    files = pair.files(rng)
    for p in ("1", "inf"):
        yield BottleneckOp(pair, files, p, "heavy")


_STREAMS = {"stability": (stability_ops, STABILITY), "decompose": (decompose_ops, DECOMPOSE),
            "bottleneck": (bottleneck_ops, BOTTLENECK), "bottleneck-1100": (heavy_ops, HEAVY)}
WORKLOADS = tuple(_STREAMS)


def make_ops(workload: str, seed: int, tiny: bool = False):
    """The endless (or, for ``bottleneck-1100``, two-op) op stream of a
    workload, fixed by the seed."""
    stream, params = _STREAMS[workload]
    return stream(random.Random(f"{workload}:{seed}"), **(TINY[workload] if tiny else params))


class InputProperties:
    """The measured input properties an optimisation depends on, gathered
    op by op so the worker keeps no op or output alive."""

    def __init__(self):
        self.ops = 0
        self.sums: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self.pair = None
        self.points = 0

    def _add(self, key: str, value) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def _max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def add(self, op, out) -> None:
        """Record one op; ``out`` is None when the op failed."""
        self.ops += 1
        if isinstance(op, StabilityOp):
            self._add("same_type_share", op.same_type)
            if out is not None:
                self._add("d_r_zero_share", out[0].steps == 0)
                self._max("max_steps", out[0].steps)
        elif isinstance(op, DecomposeOp):
            self._add("n_mean", op.expected["n"])
            self._add("total_dim_mean", op.total_dim)
            self._max("total_dim_max", op.total_dim)
        elif op.pair is not self.pair:
            self.pair = op.pair
            for counts in (op.pair.counts_v, op.pair.counts_w):
                self.points += sum(counts.values())
                self._add("repeated_point_share", sum(m for m in counts.values() if m > 1))
                self._max("max_multiplicity", max(counts.values()))

    def result(self) -> dict:
        base = self.points or self.ops  # bottleneck shares are per point
        out = {k: v / max(1, base) for k, v in self.sums.items()}
        out.update(self.maxima)
        return out
