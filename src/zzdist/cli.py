"""Command line front end and file formats.

Module files are JSON with fields ``n``, ``type`` (a string of ">" and
"<" read left to right), and exactly one of ``matrices`` (concrete
structure maps, over the file's own ``field_prime``) or ``diagram`` (a
list of [birth, death, multiplicity] triples).  ZZ_FIELD_PRIME sets only
the field of the modules that ``synthesize`` and ``gen`` write.

The front end checks the layout of files and arguments.  In a matrices
file it also checks the field prime, once per file, and every map entry,
once: one type pass over all of them, in C, and only a file that fails it
goes map by map through ``_residues``, which names the first bad entry.
Each ``Matrix`` is built by ``Matrix._trusted``, which checks
nothing again.  ``ZigzagModule`` then checks the maps' shapes and
shared field, ``PersistenceDiagram.from_counts`` each diagram entry,
once, and the library constructors every other value.
Every refusal is a ValueError, reported on one line with exit 2, and
``parse_module_file`` prefixes it with the path.

Exit codes: 0 on success, 2 on bad input, 3 when a checked property is
violated.

The argument parser is built once per process, on the first call to
``main``, and reused by every later call; ``argparse`` is loaded then,
and ``json`` when a file is read or written, not when zzdist is imported.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from itertools import chain
from typing import Sequence

from .bottleneck import bottleneck_distance
from .diagrams import SymbolicModule, _symbolic, act, annihilating_sequence, synthesize
from .linalg import (_MAX_DIM, DEFAULT_PRIME, Matrix, _check_p, _check_prime, _count, _dims,
                     _residues, _typed)
from .reflection_distance import reflection_distance
from .reflections import COLIMIT, LIMIT, ReflectionOp, apply
from .stability import generate_random_module, stability_experiment
from .zigzag_core import (BACKWARD, FORWARD, Orientation, PersistenceDiagram, ZigzagModule,
                          _ends)

_BOUNDARY_WORDS = {FORWARD: "forward", BACKWARD: "backward"}
_BOUNDARY_DIRS = {w: d for (d, w) in _BOUNDARY_WORDS.items()}
_JSON_WORDS = {None: "null", True: "true", False: "false", "nan": "NaN", "inf": "Infinity",
               "-inf": "-Infinity"}  # json's words for these values and float reprs


def _field_prime() -> int:
    raw = os.environ.get("ZZ_FIELD_PRIME")
    if raw is None:
        return DEFAULT_PRIME
    try:
        return _check_prime(int(raw))
    except ValueError as e:
        raise ValueError(f"ZZ_FIELD_PRIME: {e}") from e


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def parse_module_data(obj) -> ZigzagModule | SymbolicModule:
    """Build the module a decoded module file describes; a bad layout or
    value raises a ValueError naming the field or entry, not the file."""
    _expect(isinstance(obj, dict), "module file must be a JSON object")
    _expect("n" in obj, "missing field 'n'")
    n = _count(obj["n"], 2, "'n'")
    ts = obj.get("type")
    _expect(isinstance(ts, str), "missing or non-string field 'type'")
    _expect(len(ts) == n - 1, f"'type' must have length n-1 = {n - 1}, got {len(ts)}")
    has_m, has_d = "matrices" in obj, "diagram" in obj
    _expect(has_m != has_d, "exactly one of 'matrices' and 'diagram' must be present")
    tau = Orientation.from_string(ts)
    if has_d:
        dg = obj["diagram"]
        _expect(isinstance(dg, list), "'diagram' must be a list of [b, d, multiplicity]")
        return SymbolicModule(tau, PersistenceDiagram.from_counts(n, dg))
    block = obj["matrices"]
    _expect(isinstance(block, dict), "'matrices' must be an object")
    for key in ("field_prime", "dims", "maps"):
        _expect(key in block, f"'matrices' is missing field '{key}'")
    dims, raw_maps = block["dims"], block["maps"]
    _expect(isinstance(dims, list) and len(dims) == n, f"'dims' must list {n} dimensions")
    _expect(isinstance(raw_maps, list) and len(raw_maps) == n - 1,
            f"'maps' must list {n - 1} matrices")
    dims = _dims(dims, "dimensions", _MAX_DIM)  # bounded before the flat maps are cut
    p = _check_prime(block["field_prime"])
    # one type pass over every entry, in C; _residues names a bad entry
    ints = (set(map(type, raw_maps)) <= {list}
            and set(map(type, chain.from_iterable(raw_maps))) <= {int})
    maps = []
    for i, flat in enumerate(raw_maps):
        s, t = _ends(tau.dirs, i)
        rows, cols = dims[t], dims[s]
        if not isinstance(flat, list):
            raise ValueError(f"map {i + 1} must be a flat list of entries")
        if len(flat) != rows * cols:
            raise ValueError(f"map {i + 1} has {len(flat)} entries, "
                             f"expected {rows}x{cols}={rows * cols}")
        flat = tuple([x % p for x in flat] if ints
                     else _residues(flat, p, f"the entries of map {i + 1}"))
        maps.append(Matrix._trusted(p, [flat[r * cols:(r + 1) * cols] for r in range(rows)],
                                    cols))
    return ZigzagModule(tau, tuple(dims), tuple(maps))


def parse_module_file(path: str) -> ZigzagModule | SymbolicModule:
    """Read and build a module file.  Every refusal is one ValueError
    that starts with the path: a file that cannot be opened, is not UTF-8
    JSON, nests too deeply, holds an integer past Python's digit limit,
    or describes no module."""
    import json
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_module_data(json.load(fh))
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from e
    except RecursionError as e:
        raise ValueError(f"{path}: JSON nested too deeply") from e
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def serialize_module(V: ZigzagModule) -> dict:
    return {
        "n": _typed(V, ZigzagModule, "V").n,
        "type": V.tau.to_string(),
        "matrices": {
            "field_prime": V.p,
            "dims": list(V.dims),
            "maps": [list(M.entries) for M in V.maps],
        },
    }


def serialize_symbolic(S: SymbolicModule) -> dict:
    return {
        "n": _typed(S, SymbolicModule, "S").n,
        "type": S.tau.to_string(),
        "diagram": [[b, d, m] for (b, d, m) in S.diagram.counts()],
    }


def _dump(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` for the objects the
    CLI prints, whose keys are strings, without json's pure-Python encoder."""
    from json.encoder import encode_basestring_ascii as quote

    def put(x, pad: str) -> str:
        if isinstance(x, str):
            return quote(x)
        if x is None or x is True or x is False:
            return _JSON_WORDS[x]
        if isinstance(x, (int, float)):
            text = (int if isinstance(x, int) else float).__repr__(x)
            return _JSON_WORDS.get(text, text)
        inner = pad + "  "
        if isinstance(x, (list, tuple)):  # a list of plain ints is joined in C
            ends, body = "[]", (map(str, x) if set(map(type, x)) == {int}
                                else [put(v, inner) for v in x])
        elif isinstance(x, dict):
            ends, body = "{}", [quote(k) + ": " + put(v, inner) for k, v in sorted(x.items())]
        else:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        return ends[0] + inner + ("," + inner).join(body) + pad + ends[1] if x else ends

    return put(obj, "\n") + "\n"


def format_quantity(x: float) -> str:
    """Render a distance: integers exactly, otherwise 12 significant digits."""
    if math.isinf(_typed(x, (int, float), "x")):
        return "inf"
    if float(x).is_integer():
        return str(int(x))
    return f"{x:.12g}"


def _op_to_dict(op: ReflectionOp) -> dict:
    out = {"kind": op.kind, "index": op.k}
    if op.boundary_dir is not None:
        out["boundary_dir"] = _BOUNDARY_WORDS[op.boundary_dir]
    return out


def _parse_p(raw: str) -> float:
    try:
        return _check_p(float(raw))
    except ValueError as e:
        raise ValueError(f"--p: {e}") from e


def _cmd_decompose(args) -> int:
    S = _symbolic(parse_module_file(args.file))
    sys.stdout.write(_dump(serialize_symbolic(S)))
    return 0


def _cmd_synthesize(args) -> int:
    m = parse_module_file(args.file)
    _expect(isinstance(m, SymbolicModule), f"{args.file}: synthesize expects a diagram file")
    # what is written must read back, so no space may pass the bound a file is held to
    for i, dim in enumerate(m.diagram.dims(), 1):
        _expect(dim <= _MAX_DIM, f"{args.file}: position {i} would have dimension {dim}, "
                                 f"past the bound of {_MAX_DIM} on a file's dimensions")
    V = synthesize(m.tau, m.diagram.points, _field_prime())
    sys.stdout.write(_dump(serialize_module(V)))
    return 0


def _cmd_reflect(args) -> int:
    m = parse_module_file(args.file)
    op = ReflectionOp(args.kind, args.index, _BOUNDARY_DIRS.get(args.boundary_dir))
    if isinstance(m, SymbolicModule):
        sys.stdout.write(_dump(serialize_symbolic(act(op, m))))
    else:
        sys.stdout.write(_dump(serialize_module(apply(op, m))))
    return 0


def _cmd_annihilate(args) -> int:
    seq = annihilating_sequence(parse_module_file(args.file))
    sys.stdout.write(_dump({"length": len(seq), "ops": [_op_to_dict(op) for op in seq]}))
    return 0


def _cmd_distance(args) -> int:
    p = _parse_p(args.p)
    a = _symbolic(parse_module_file(args.file_v))
    b = _symbolic(parse_module_file(args.file_w))
    if args.metric == "reflection":
        value = reflection_distance(a, b, p).value
    else:
        value = bottleneck_distance(a.diagram, b.diagram, p)
    sys.stdout.write(format_quantity(value) + "\n")
    return 0


def _cmd_gen(args) -> int:
    # no position holds more than max_points, so the file reads back
    _expect(args.max_points <= _MAX_DIM,
            f"--max-points must be at most {_MAX_DIM}, the bound on a file's dimensions, "
            f"got {args.max_points}")
    V = generate_random_module(args.n, args.max_points, _field_prime(), args.seed)
    sys.stdout.write(_dump(serialize_module(V)))
    return 0


def _cmd_verify_stability(args) -> int:
    report = stability_experiment(args.trials, args.n, args.max_points, args.seed)
    sys.stdout.write(_dump(report.to_dict()))
    if not report.passed:
        import json
        for t in report.violations:
            sys.stderr.write("violation in trial "
                             f"{t}: {json.dumps(report.trials[t], sort_keys=True)}\n")
        return 3
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    import argparse  # here, so that importing zzdist does not load it

    p = argparse.ArgumentParser(
        prog="zzdist",
        description="Interval decompositions, reflections, and distances "
                    "for zigzag modules.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("decompose", help="interval decomposition of a module file")
    c.add_argument("file")
    c.set_defaults(func=_cmd_decompose)

    c = sub.add_parser("synthesize", help="build matrices from a diagram file")
    c.add_argument("file")
    c.set_defaults(func=_cmd_synthesize)

    c = sub.add_parser("reflect", help="apply one reflection to a module file")
    c.add_argument("file")
    c.add_argument("--kind", required=True, choices=[LIMIT, COLIMIT])
    c.add_argument("--index", required=True, type=int)
    c.add_argument("--boundary-dir", choices=sorted(_BOUNDARY_DIRS))
    c.set_defaults(func=_cmd_reflect)

    c = sub.add_parser("annihilate", help="a reflection run that empties the module")
    c.add_argument("file")
    c.set_defaults(func=_cmd_annihilate)

    c = sub.add_parser("distance", help="distance between two module files")
    c.add_argument("file_v")
    c.add_argument("file_w")
    c.add_argument("--metric", required=True, choices=["reflection", "bottleneck"])
    c.add_argument("--p", default="1")
    c.set_defaults(func=_cmd_distance)

    c = sub.add_parser("gen", help="generate a random module file")
    c.add_argument("--n", required=True, type=int)
    c.add_argument("--max-points", required=True, type=int)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_gen)

    c = sub.add_parser("verify-stability",
                       help="check the distance inequalities on random pairs")
    c.add_argument("--trials", type=int, default=200)
    c.add_argument("--n", type=int, default=6)
    c.add_argument("--max-points", type=int, default=3)
    c.add_argument("--seed", type=int, default=1)
    c.set_defaults(func=_cmd_verify_stability)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (MemoryError, OverflowError):  # work past memory or an index, which no check caught
        sys.stderr.write("error: input too large to hold in memory\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
