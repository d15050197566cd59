"""Seeded end-to-end and per-layer benchmark of zzdist.

Usage, from the root of a checkout (Python 3.10+ with numpy):

    python3 perfbench/run.py --workload stability --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload decompose --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 25    # table

Workloads (inputs are generated by ``workloads.py`` from the seed):

- ``stability``: random pairs of length 2..8 with at most 4 intervals,
  a shared orientation half the time; ``reflection_distance`` at p=1 and
  ``bottleneck_distance`` at p=1 and p=inf, checked by the stability
  inequalities and a replay of both witness runs;
- ``decompose``: ``zzdist decompose`` on scrambled n=10..20 modules of up
  to 16 intervals, checked against the generated diagram;
- ``bottleneck``: ``zzdist distance --metric bottleneck`` at p=1 and
  p=inf on n=24 pairs of up to 40 distinct intervals with repeated
  points, checked by d_inf <= d_1 <= 2 d_inf and candidate bounds;
- ``bottleneck-1100``: one interval 1100 times against 1101 copies.  It
  fails at this version (RecursionError), so it is not one of the
  workloads in BENCHMARK.json; ``--workload all`` shows it.

``--trace 0`` runs each measurement in a fresh interpreter: a few set-up
probes (``setup_s`` is their median) and one timed process that runs ops
for ``--seconds``.  It reports ``setup_s``, ``ops_per_s`` (successful ops
over the time of all ops), ``latency_p50_ms``, ``latency_p90_ms`` (a
failed op ranks above every success), ``peak_rss_mb`` (``ru_maxrss`` of
the timed process) and ``ok_ratio`` (1 - fail_ratio; an op fails if it
raises, exits nonzero or gives a wrong output).  All times are rescaled
to a reference machine speed by a calibration loop run between ops; see
``worker.py``.  The unscaled figures are printed too.

``--trace 1`` runs one fixed op list twice, untraced and traced, and
reports the per-layer metrics of ``tracer.py`` (span times rescaled by
the run's median calibration) plus the tracing overhead (traced over
untraced ``ops_per_s``).  The last line of stdout is the
result as JSON; the lines before it are for people.  Generated inputs
and the span tree of the traced run go to ``.bench_work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import CAL_REF_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 8          # plus the timed process's own set-up
BUDGET_S = 170.0          # the whole command must end well within 180 s
# Traced runs use a fixed op list, so their counts repeat exactly; its
# length is this many ops per second of --seconds.
TRACE_OPS_PER_S = {"stability": 400, "decompose": 5, "bottleneck": 20,
                   "bottleneck-1100": 100}  # its stream ends after two ops

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "ZZ_FIELD_PRIME", "PYTHONSTARTUP")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _worker(deadline: float, mode: str, workload: str, seed: int, *, seconds=0.0,
            ops=0, tiny=False, trace_out=None) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--ops", str(ops),
           "--workdir", str(WORK / workload), "--src", str(SRC)]
    if tiny:
        cmd.append("--tiny")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} worker for {workload} timed out") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float, tiny: bool, deadline: float):
    probes = [_worker(deadline, "setup", workload, seed, tiny=tiny)
              for _ in range(SETUP_PROBES)]
    res = _worker(deadline, "timed", workload, seed, seconds=seconds, tiny=tiny)
    probes.append(res)
    setups = [p["setup_s"] for p in probes]
    res["setup_wall_s"] = statistics.median(p["setup_wall_s"] for p in probes)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["ops_per_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_p90_ms": res["latency_p90_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": 1.0 - res["failed"] / res["attempted"],
    }
    return res, metrics


def per_layer(workload: str, seed: int, seconds: float, tiny: bool, deadline: float):
    n_ops = max(1, round(TRACE_OPS_PER_S[workload] * seconds))
    plain = _worker(deadline, "fixed", workload, seed, ops=n_ops, tiny=tiny)
    traced = _worker(deadline, "traced", workload, seed, ops=n_ops, tiny=tiny,
                     trace_out=WORK / f"trace_{workload}.json")
    if traced["digest"] != plain["digest"]:
        raise BenchError("traced and untraced runs of one op list gave different outputs")
    # span times are rescaled like the op times, by the run's calibration
    scale = CAL_REF_S / (traced["calibration_ms"] / 1e3)
    metrics = {name: value * scale if _unit(name) in ("s", "us") else value
               for name, value in traced["layers"].items()}
    metrics["trace.untraced_ops_per_s"] = plain["ops_per_s"]
    metrics["trace.traced_ops_per_s"] = traced["ops_per_s"]
    metrics["trace.ops_per_s_ratio"] = (traced["ops_per_s"] / plain["ops_per_s"]
                                        if plain["ops_per_s"] else 0.0)
    return traced, metrics


def _unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    return dict(END_TO_END).get(name, "count")


def _describe(workload: str, res: dict) -> None:
    print(f"# {workload}: {res['attempted']} ops, {res['failed']} failed "
          f"({res['wrong']} wrong output, raised {res['errors'] or 'nothing'})")
    print(f"# {workload} unscaled: {res['wall_ops_per_s']:.6g} ops/s, "
          f"calibration {res['calibration_ms']:.4g} ms (reference "
          f"{1e3 * CAL_REF_S:g} ms)" + (f", setup {res['setup_wall_s']:.4g} s"
                                        if "setup_wall_s" in res else ""))
    print(f"# {workload} inputs: {json.dumps(res['properties'], sort_keys=True)}")
    print(f"# {workload} output digest: {res['digest']}")


def run_one(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    (WORK / workload).mkdir(parents=True, exist_ok=True)
    if trace:
        res, metrics = per_layer(workload, seed, seconds, tiny, deadline)
    else:
        res, metrics = end_to_end(workload, seed, seconds, tiny, deadline)
    _describe(workload, res)
    for name, value in metrics.items():
        print(f"# {workload} {name} = {value:.6g} {_unit(name)}")
    return {"correct": res["wrong"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": value, "unit": _unit(name)}
                        for name, value in metrics.items()}}


def table(seed: int, seconds: float, tiny: bool) -> None:
    """Every end-to-end metric, one row per workload, plus fail_ratio."""
    cols = [name for name, _ in END_TO_END if name != "ok_ratio"] + ["fail_ratio", "ops"]
    rows = []
    for workload in WORKLOADS:
        deadline = time.monotonic() + BUDGET_S
        (WORK / workload).mkdir(parents=True, exist_ok=True)
        res, m = end_to_end(workload, seed, seconds, tiny, deadline)
        m["fail_ratio"] = res["failed"] / res["attempted"]
        m["ops"] = res["attempted"]
        rows.append([workload] + [f"{m[c]:.4g}" for c in cols])
    head = ["workload"] + [f"{c} [{_unit(c)}]" for c in cols]
    widths = [max(len(r[i]) for r in rows + [head]) for i in range(len(head))]
    for r in [head] + rows:
        print("  ".join(x.ljust(w) for x, w in zip(r, widths)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="zzdist benchmark; see the module docstring.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "zzdist" / "__init__.py").is_file():
        sys.stderr.write(f"error: no zzdist sources under {SRC}\n")
        return 2
    try:
        if args.workload == "all":
            table(args.seed, args.seconds, args.tiny)
            return 0
        out = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
