"""Random instances and the stability experiment, drawn from explicit seeds."""

from __future__ import annotations

import math
import random

from .bottleneck import bottleneck_distance
from .diagrams import PersistenceDiagram, SymbolicModule, synthesize
from .linalg import DEFAULT_PRIME, Matrix, _count, _Record, _typed, is_invertible
from .reflection_distance import reflection_distance
from .zigzag_core import BACKWARD, FORWARD, Orientation, ZigzagModule, conjugate


def _check_sizes(n: int, max_points: int, trials: int = 0) -> None:
    """Refuse a size that is not an integer, or a bool, or is below its least value."""
    for name, x, least in (("trials", trials, 0), ("n", n, 2), ("max_points", max_points, 0)):
        _count(x, least, name)


def random_symbolic_module(rng: random.Random, n: int, max_points: int) -> SymbolicModule:
    """A random orientation and diagram, drawn entirely from ``rng``."""
    _typed(rng, random.Random, "rng")
    _check_sizes(n, max_points)
    dirs = tuple(rng.choice((FORWARD, BACKWARD)) for _ in range(n - 1))
    pts = []
    for _ in range(rng.randint(0, max_points)):
        b = rng.randint(1, n)
        pts.append((b, rng.randint(b, n)))
    return SymbolicModule(Orientation(dirs), PersistenceDiagram(n, tuple(pts)))


def _random_invertible(rng: random.Random, dim: int, prime: int) -> Matrix:
    while True:
        M = Matrix.from_rows([[rng.randrange(prime) for _ in range(dim)] for _ in range(dim)],
                             prime, cols=dim)
        if is_invertible(M):
            return M


def generate_random_module(n: int, max_points: int, prime: int = DEFAULT_PRIME,
                           seed: int = 0) -> ZigzagModule:
    """A random module in scrambled coordinates, deterministic per seed.

    The same seed regenerates the same underlying diagram through
    ``random_symbolic_module``, so the ground truth is recoverable.
    """
    rng = random.Random(seed)
    S = random_symbolic_module(rng, n, max_points)
    V = synthesize(S.tau, S.diagram.points, prime)
    bases = [_random_invertible(rng, d, prime) for d in V.dims]
    W, _ = conjugate(V, bases)
    return W


class ExperimentReport(_Record):
    """Outcome of a stability run: per-trial records plus failures."""

    trials: tuple[dict, ...]
    violations: tuple[int, ...]

    def __init__(self, trials, violations) -> None:
        self._set(trials=trials, violations=violations)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "trials": list(self.trials),
            "violations": list(self.violations),
            "passed": self.passed,
            "count": len(self.trials),
        }


def stability_experiment(trials: int, n: int, max_points: int, seed: int) -> ExperimentReport:
    """Check the distance inequalities on random pairs.

    Each trial draws a pair of symbolic modules of one random length up
    to ``n`` (half the time sharing one orientation), computes the
    reflection distance at p=1 and the bottleneck distances at p=1 and
    p=infinity, and records whether the bottleneck value stays below the
    reflection value, the two bottleneck values sandwich each other, and
    same-orientation pairs respect the polynomial upper bound.
    """
    _check_sizes(n, max_points, trials)
    rng = random.Random(seed)
    records: list[dict] = []
    violations: list[int] = []
    for t in range(trials):
        trial_seed = rng.randrange(2 ** 32)
        trng = random.Random(trial_seed)
        n_t = trng.randint(2, n)
        A = random_symbolic_module(trng, n_t, max_points)
        B = random_symbolic_module(trng, n_t, max_points)
        same_type = trng.random() < 0.5
        if same_type:
            B = SymbolicModule(A.tau, B.diagram)
        d_r1 = reflection_distance(A, B, 1).value
        d_b1 = bottleneck_distance(A.diagram, B.diagram, 1)
        d_binf = bottleneck_distance(A.diagram, B.diagram, math.inf)
        main_ok = d_b1 <= d_r1
        sandwich_ok = d_binf <= d_b1 <= 2 * d_binf
        bilip_ok = (not same_type) or d_r1 <= n_t * n_t * (n_t + 1) * d_b1
        record = {
            "trial": t,
            "seed": trial_seed,
            "n": n_t,
            "type_v": A.tau.to_string(),
            "type_w": B.tau.to_string(),
            "diagram_v": [list(x) for x in A.diagram.counts()],
            "diagram_w": [list(x) for x in B.diagram.counts()],
            "same_type": same_type,
            "d_r1": d_r1,
            "d_b1": d_b1,
            "d_binf": d_binf,
            "main_ok": main_ok,
            "sandwich_ok": sandwich_ok,
            "bilip_ok": bilip_ok,
        }
        records.append(record)
        if not (main_ok and sandwich_ok and bilip_ok):
            violations.append(t)
    return ExperimentReport(tuple(records), tuple(violations))
