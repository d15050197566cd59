"""One benchmark process: set up zzdist fresh, run ops, print one JSON line.

``run.py`` starts this script once per measurement, so every
measurement sees a fresh interpreter: the package keeps module-global
caches that only grow, and a command-line user pays their filling on
every start.

A shared virtual machine may change speed by a third within seconds
(other tenants share its cores), so every reported time is rescaled to
a reference speed: ``calibrate()`` times a fixed piece of pure-Python
and NumPy work every ``CAL_EVERY_S`` between ops, and each op's wall
time is multiplied by ``CAL_REF_S / (the calibration time around it)``.
The program cannot change the calibration work: its working set is tiny
and it runs with the garbage collector paused.

Modes:

- ``setup``: time set-up only (import zzdist, load the first op);
- ``timed``: run ops (with their checks) for ``--seconds`` at the
  reference speed, or at most twice that in wall time;
- ``fixed``: run exactly ``--ops`` ops, untraced;
- ``traced``: run exactly ``--ops`` ops with the per-layer tracer on.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

# Calibration time at the reference speed: about the median time of one
# calibrate() call on a shared 2-vCPU 2.0 GHz Xeon virtual machine, where
# it ranged from 1.5 ms to over 3 ms with the neighbours' load.
CAL_REF_S = 0.0025
# Calibrate again once this much wall time has passed since the last one.
CAL_EVERY_S = 0.05
_CAL_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(512)}
# Each op is rescaled by the median of this many calibrations around it.
CAL_WINDOW = 5


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter, small-object and
    small-matrix work.  Its working set is a few kilobytes and the garbage
    collector is paused, so the program's heap cannot change it.

    Only call it after set-up: it imports NumPy, which zzdist imports.
    """
    import numpy as np
    m = np.arange(64, dtype=np.int64).reshape(8, 8) % 2
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table, acc = _CAL_TABLE, 0
        for i in range(6000):
            acc = (acc + table[(i ^ acc) & 511]) & 0xFFFFFF
        counts: dict = {}
        for i in range(800):
            key = tuple(sorted((i % 7, i % 5, i % 3)))
            counts[key] = counts.get(key, 0) + 1
        a = m
        for _ in range(100):
            a = (a @ m + 1) % 2
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Outcome:
    """Per-op latencies, failure counts and a digest of every output."""

    def __init__(self):
        self.wall: list[float] = []        # seconds, in op order
        self.latencies: list[float] = []   # the same, rescaled to CAL_REF_S
        self.calibrations: list[float] = []
        self.ok: list[bool] = []
        self.raised = 0
        self.wrong = 0
        self.errors: dict[str, int] = {}
        self.digest = hashlib.sha256()
        self.properties = workloads.InputProperties()

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong


def run_ops(zz, ops, workdir: Path, *, budget: float | None = None,
            tracer=None) -> Outcome:
    """Run ``ops`` in order and check each output.

    An op fails when it raises or when its output check fails; either
    way it stays in the counts.  The ops between two calibrations are
    rescaled by the median of the ``CAL_WINDOW`` calibrations around
    them.  With ``budget``, no op starts once the loop (ops and checks)
    has run that many seconds at the reference speed, so the amount of
    work does not follow the machine's speed; nor once twice that much
    wall time has passed.
    """
    res = Outcome()
    res.calibrations.append(calibrate())
    seg_start = time.perf_counter()
    seg_ops = []  # number of ops run before each calibration
    spent = 0.0   # rescaled loop time before seg_start
    wall_end = None if budget is None else seg_start + 2 * budget

    def recent() -> float:
        return statistics.median(res.calibrations[-CAL_WINDOW:])

    for i, op in enumerate(ops):
        now = time.perf_counter()
        if budget is not None and (spent + (now - seg_start) * CAL_REF_S / recent() >= budget
                                   or now >= wall_end):
            break
        op.write_inputs(workdir)
        op.load(zz)
        out = err = None
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = op.run(zz)
        except Exception as e:  # the op failed; count it and go on
            err = e
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if err is None:
            try:
                good = bool(op.check(zz, out))
            except Exception:  # an unreadable output is a wrong output
                good = False
            if good:
                text = op.describe(out)
            else:
                res.wrong += 1
                text = "wrong " + repr(out)
        else:
            good = False
            res.raised += 1
            name = type(err).__name__
            res.errors[name] = res.errors.get(name, 0) + 1
            text = "raised " + name
        res.wall.append(dt)
        res.ok.append(good)
        res.properties.add(op, out if good else None)
        res.digest.update(f"{i}\t{text}\n".encode())
        seg_wall = time.perf_counter() - seg_start
        if seg_wall >= CAL_EVERY_S:
            seg_ops.append(len(res.wall))
            res.calibrations.append(calibrate())
            spent += seg_wall * CAL_REF_S / recent()
            seg_start = time.perf_counter()
    if not seg_ops or seg_ops[-1] < len(res.wall):
        seg_ops.append(len(res.wall))
        res.calibrations.append(calibrate())
    # ops between calibrations j and j+1 use the median of the window
    # of calibrations centred on that pair
    first, half = 0, CAL_WINDOW // 2
    for j, last in enumerate(seg_ops):
        cal = statistics.median(res.calibrations[max(0, j + 1 - half):j + 2 + half])
        res.latencies.extend(t * CAL_REF_S / cal for t in res.wall[first:last])
        first = last
    return res


def latency_quantile(res: Outcome, q: float) -> float:
    """The q-quantile of op latency (nearest rank), in seconds.

    A failed op ranks above every successful one; its value is its own
    time, or the slowest success if that is larger.
    """
    good = sorted(t for t, ok in zip(res.latencies, res.ok) if ok)
    bad = sorted(t for t, ok in zip(res.latencies, res.ok) if not ok)
    top = good[-1] if good else 0.0
    ranked = good + [max(t, top) for t in bad]
    if not ranked:
        return 0.0
    k = min(len(ranked) - 1, max(0, int(q * len(ranked) + 0.5) - 1))
    return ranked[k]


def summary(res: Outcome) -> dict:
    busy = sum(res.latencies)
    wall = sum(res.wall)
    return {
        "attempted": res.attempted,
        "failed": res.failed,
        "wrong": res.wrong,
        "errors": res.errors,
        "ops_per_s": sum(res.ok) / busy if busy > 0 else 0.0,
        "latency_p50_ms": 1e3 * latency_quantile(res, 0.5),
        "latency_p90_ms": 1e3 * latency_quantile(res, 0.9),
        "wall_ops_per_s": sum(res.ok) / wall if wall > 0 else 0.0,
        "calibration_ms": 1e3 * statistics.median(res.calibrations),
        "digest": res.digest.hexdigest(),
        "properties": res.properties.result(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", required=True, choices=["setup", "timed", "fixed", "traced"])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    # input generation is not part of set-up
    stream = workloads.make_ops(args.workload, args.seed, args.tiny)
    first = next(stream)
    first.write_inputs(workdir)

    t0 = time.perf_counter()
    import zzdist as zz
    first.load(zz)
    setup_s = time.perf_counter() - t0
    cal = statistics.median(calibrate() for _ in range(5))

    src = Path(args.src).resolve()
    if src not in Path(zz.__file__).resolve().parents:
        sys.stderr.write(f"zzdist was imported from {zz.__file__}, not from {src}\n")
        return 2
    result = {"setup_s": setup_s * CAL_REF_S / cal, "setup_wall_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    ops = itertools.chain([first], stream)
    tracer = None
    if args.mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    if args.mode == "timed":
        res = run_ops(zz, ops, workdir, budget=args.seconds)
    else:
        res = run_ops(zz, itertools.islice(ops, args.ops), workdir, tracer=tracer)
    result.update(summary(res))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(tracer.tree(), indent=1) + "\n",
                                            encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
