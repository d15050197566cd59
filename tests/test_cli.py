from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time

import pytest
from helpers import count_calls, subprocess_env

import zzdist
from zzdist import (Matrix, PersistenceDiagram, SymbolicModule, ZigzagModule,
                    decompose, format_quantity, generate_random_module, main,
                    parse_module_data, random_symbolic_module,
                    serialize_module, serialize_symbolic, stability_experiment,
                    synthesize)
from zzdist import act, all_ops, annihilating_sequence, apply, linalg
from zzdist.cli import _op_to_dict, _parser, parse_module_file


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


DIA = {"n": 4, "type": "><>",
       "diagram": [[1, 4, 1], [1, 2, 1], [2, 3, 2], [3, 3, 1]]}


def test_parse_diagram_file(tmp_path):
    m = parse_module_file(write(tmp_path, "d.json", DIA))
    assert isinstance(m, SymbolicModule)
    assert m.n == 4 and m.tau.to_string() == "><>"
    assert m.diagram.counts() == ((1, 2, 1), (1, 4, 1), (2, 3, 2), (3, 3, 1))


def test_parse_matrices_file_round_trip(tmp_path):
    V = synthesize(parse_module_data(DIA).tau, parse_module_data(DIA).diagram.points, 5)
    path = write(tmp_path, "m.json", serialize_module(V))
    back = parse_module_file(path)
    assert isinstance(back, ZigzagModule)
    assert back.tau == V.tau and back.dims == V.dims and back.maps == V.maps


def test_parse_rejects_malformed(tmp_path):
    bad = [
        {"n": 1, "type": "", "diagram": []},
        {"n": 3, "type": ">>"},
        {"n": 3, "type": ">>", "diagram": [], "matrices": {}},
        {"n": 3, "type": ">", "diagram": []},
        {"n": 3, "type": ">x", "diagram": []},
        {"n": 3, "type": ">>", "diagram": [[1, 2]]},
        {"n": 3, "type": ">>", "diagram": [[0, 2, 1]]},
        {"n": 3, "type": ">>", "diagram": [[2, 1, 1]]},
        {"n": 3, "type": ">>", "diagram": [[1, 2, 0]]},
        {"n": 3, "type": ">>", "matrices": {"field_prime": 4, "dims": [1, 1, 1],
                                            "maps": [[1], [1]]}},
        # a prime far above the bound must be rejected without trial division
        {"n": 3, "type": ">>", "matrices": {"field_prime": 2 ** 61 - 1, "dims": [1, 1, 1],
                                            "maps": [[1], [1]]}},
        {"n": 3, "type": ">>", "matrices": {"field_prime": 2, "dims": [1, 1],
                                            "maps": [[1], [1]]}},
        {"n": 3, "type": ">>", "matrices": {"field_prime": 2, "dims": [1, 1, 1],
                                            "maps": [[1], [1, 0]]}},
        {"n": 3, "type": ">>", "diagram": [[1, 2, True]]},
        {"n": 3, "type": ">>", "matrices": {"field_prime": 2, "dims": [1, 1, 1],
                                            "maps": [[1.5], [1]]}},
        {"n": 3, "type": ">>", "matrices": {"field_prime": True, "dims": [1, 1, 1],
                                            "maps": [[1], [1]]}},
    ]
    for obj in bad:
        with pytest.raises(ValueError):
            parse_module_data(obj)
    with pytest.raises(ValueError):
        parse_module_file(str(tmp_path / "absent.json"))
    p = tmp_path / "broken.json"
    p.write_text("{oops", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_module_file(str(p))


def _fields(obj, path=()):
    """The path to every object field and list entry of a decoded JSON file."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,))


def test_malformed_files_exit_0_or_2_without_traceback(tmp_path, capsys):
    # a seeded matrices file with every map nonempty, and a diagram file;
    # each field in turn becomes a value of another JSON kind, or -1
    valid = [DIA, serialize_module(generate_random_module(4, 3, 3, 4))]
    assert all(valid[1]["matrices"]["maps"])
    count = 0
    for base in valid:
        for path in _fields(base):
            for value in (True, 1.5, "x", None, [1], {"a": 1}, -1):
                obj = json.loads(json.dumps(base))
                node = obj
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                f = write(tmp_path, f"m{count}.json", obj)
                for cmd in ("decompose", "annihilate"):
                    assert main([cmd, f]) in (0, 2), (cmd, obj)
                    assert "Traceback" not in capsys.readouterr().err
                count += 1
    assert count > 250


def test_serialize_is_deterministic(tmp_path):
    V = generate_random_module(5, 3, 2, 11)
    assert serialize_module(V) == serialize_module(V)
    S = SymbolicModule(V.tau, decompose(V))
    two = [serialize_symbolic(S) for _ in range(2)]
    assert two[0] == two[1]


def test_format_quantity():
    assert format_quantity(2.0) == "2"
    assert format_quantity(0.0) == "0"
    assert format_quantity(2 ** 0.5) == "1.41421356237"
    assert format_quantity(math.inf) == "inf"
    assert format_quantity(0.5) == "0.5"


def test_cmd_decompose(tmp_path, capsys):
    assert main(["decompose", write(tmp_path, "d.json", DIA)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"n": 4, "type": "><>",
                   "diagram": [[1, 2, 1], [1, 4, 1], [2, 3, 2], [3, 3, 1]]}


def test_cmd_synthesize_then_decompose(tmp_path, capsys):
    assert main(["synthesize", write(tmp_path, "d.json", DIA)]) == 0
    blob = capsys.readouterr().out
    conc = json.loads(blob)
    assert conc["matrices"]["dims"] == [2, 4, 4, 1]
    path = tmp_path / "m.json"
    path.write_text(blob, encoding="utf-8")
    assert main(["decompose", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["diagram"] == [
        [1, 2, 1], [1, 4, 1], [2, 3, 2], [3, 3, 1]]
    assert main(["synthesize", str(path)]) == 2
    assert "diagram file" in capsys.readouterr().err


def test_cmd_reflect_symbolic_and_concrete(tmp_path, capsys):
    d = write(tmp_path, "d.json", DIA)
    assert main(["reflect", d, "--kind", "limit", "--index", "2"]) == 0
    sym = json.loads(capsys.readouterr().out)
    assert sym == {"n": 4, "type": "<>>", "diagram": [[1, 4, 1], [2, 3, 1]]}
    assert main(["synthesize", d]) == 0
    m = tmp_path / "m.json"
    m.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["reflect", str(m), "--kind", "limit", "--index", "2"]) == 0
    r = tmp_path / "r.json"
    r.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["decompose", str(r)]) == 0
    raw = json.loads(capsys.readouterr().out)
    # the concrete route keeps the simple points the symbolic route strips
    assert raw["type"] == "<>>"
    assert raw["diagram"] == [[1, 1, 1], [1, 4, 1], [2, 3, 1], [3, 3, 2]]


def test_cmd_reflect_boundary_flag(tmp_path, capsys):
    d = write(tmp_path, "d.json", DIA)
    assert main(["reflect", d, "--kind", "limit", "--index", "1",
                 "--boundary-dir", "forward"]) == 0
    capsys.readouterr()
    assert main(["reflect", d, "--kind", "limit", "--index", "1"]) == 2
    assert main(["reflect", d, "--kind", "limit", "--index", "2",
                 "--boundary-dir", "forward"]) == 2
    assert main(["reflect", d, "--kind", "limit", "--index", "9"]) == 2
    capsys.readouterr()


def test_cmd_annihilate(tmp_path, capsys):
    assert main(["annihilate", write(tmp_path, "d.json", DIA)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["length"] == len(out["ops"]) > 0
    for op in out["ops"]:
        assert op["kind"] in ("limit", "colimit")
        assert ("boundary_dir" in op) == (op["index"] in (1, 4))


def test_cmd_annihilate_ignores_multiplicity(tmp_path, capsys):
    # each pass kills every copy of the chosen interval at once
    runs = []
    for m in (1, 1000):
        d = write(tmp_path, f"d{m}.json", {"n": 4, "type": "><>", "diagram": [[1, 4, m]]})
        assert main(["annihilate", d]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["length"] == 3


def test_huge_multiplicity_is_answered_but_not_synthesized(tmp_path, capsys):
    # diagrams are stored counted, so 10^18 copies cost what one copy does;
    # only synthesize needs a matrix coordinate per copy, and refuses them
    runs = {}
    for m in (1, 10 ** 18):
        d = write(tmp_path, f"d{m}.json", {"n": 5, "type": "><><", "diagram": [[1, 4, m]]})
        assert main(["decompose", d]) == 0
        assert json.loads(capsys.readouterr().out)["diagram"] == [[1, 4, m]]
        assert main(["annihilate", d]) == 0
        runs[m] = capsys.readouterr().out
    assert runs[10 ** 18] == runs[1]
    # 10^18 copies are too many to allocate, 10^30 too many to index
    for m in (10 ** 18, 10 ** 30):
        d = write(tmp_path, "big.json", {"n": 5, "type": "><><", "diagram": [[1, 4, m]]})
        assert main(["synthesize", d]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {d}: position 1 would have dimension {m}, "
                                "past the bound of 256 on a file's dimensions\n")


def test_cmd_distance(tmp_path, capsys):
    v = write(tmp_path, "v.json", {"n": 4, "type": "><>", "diagram": [[1, 3, 1]]})
    o = write(tmp_path, "o.json", {"n": 4, "type": "><>", "diagram": []})
    cases = [("reflection", "1", "2"), ("reflection", "2", "1.41421356237"),
             ("bottleneck", "1", "2"), ("bottleneck", "inf", "1")]
    for metric, p, want in cases:
        assert main(["distance", v, o, "--metric", metric, "--p", p]) == 0
        assert capsys.readouterr().out.strip() == want
    assert main(["distance", v, o, "--metric", "reflection", "--p", "0.3"]) == 2
    w = write(tmp_path, "w.json", {"n": 3, "type": "><", "diagram": []})
    assert main(["distance", v, w, "--metric", "reflection", "--p", "1"]) == 2
    capsys.readouterr()
    # the bottleneck distance once answered here, where the reflection distance refused
    x = write(tmp_path, "x.json", {"n": 5, "type": "><><", "diagram": [[1, 5, 1], [2, 3, 2]]})
    for metric in ("bottleneck", "reflection"):
        assert main(["distance", w, x, "--metric", metric]) == 2
        assert capsys.readouterr() == ("", "error: length mismatch: 3 vs 5\n"), metric


def test_cmd_distance_many_copies(tmp_path, capsys):
    # 1100 copies against 1101: the extra copy pays its penalty (20 - 3) / 2
    a = write(tmp_path, "a.json", {"n": 24, "type": ">" * 23, "diagram": [[3, 20, 1100]]})
    b = write(tmp_path, "b.json", {"n": 24, "type": ">" * 23, "diagram": [[3, 20, 1101]]})
    assert main(["distance", a, b, "--metric", "bottleneck", "--p", "inf"]) == 0
    assert capsys.readouterr().out.strip() == "8.5"
    # 10^5 against 10^5 + 1: one vertex per copy would need a 10^10-entry table
    a = write(tmp_path, "a.json", {"n": 24, "type": ">" * 23, "diagram": [[3, 20, 10 ** 5]]})
    b = write(tmp_path, "b.json", {"n": 24, "type": ">" * 23, "diagram": [[3, 20, 10 ** 5 + 1]]})
    start = time.perf_counter()
    assert main(["distance", a, b, "--metric", "bottleneck", "--p", "inf"]) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out.strip() == "8.5"


@pytest.mark.parametrize("p", ["1000", "1e6", "1e300"])
def test_cmd_distance_large_p(tmp_path, capsys, p):
    # the l^p powers of 3 and 2 overflow a float; matching the two intervals
    # costs 3, less than either penalty (about 4.5 and 4)
    v = write(tmp_path, "v.json", {"n": 12, "type": ">" * 11, "diagram": [[1, 10, 1]]})
    w = write(tmp_path, "w.json", {"n": 12, "type": ">" * 11, "diagram": [[4, 12, 1]]})
    assert main(["distance", v, w, "--metric", "bottleneck", "--p", p]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_python_m_zzdist():
    env = subprocess_env()
    run = subprocess.run([sys.executable, "-m", "zzdist", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0 and run.stdout.startswith("usage: zzdist")
    assert "RuntimeWarning" not in run.stderr


def test_undecodable_files_exit_2_naming_the_file(tmp_path):
    # each of these used to end in a RecursionError traceback with exit 1,
    # or exit 2 with a message that did not name the file
    files = {"deep.json": b"[" * 1000 + b"]" * 1000 + b"\n",
             "bytes.json": b"\xff\xfe{}",
             "digits.json": b'{"n": 3, "type": "><", "diagram": [[1, 2, ' + b"9" * 5000 + b"]]}"}
    for name, raw in files.items():
        path = tmp_path / name
        path.write_bytes(raw)
        run = subprocess.run([sys.executable, "-m", "zzdist", "decompose", str(path)],
                             env=subprocess_env(), capture_output=True, text=True, timeout=60)
        assert run.returncode == 2 and run.stdout == "", (name, run)
        assert run.stderr.startswith(f"error: {path}: ") and run.stderr.count("\n") == 1, name
        assert "Traceback" not in run.stderr


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once; usage and input errors between two rounds of
    # every subcommand must not change what the second round prints
    assert _parser() is _parser()
    d = write(tmp_path, "d.json", DIA)
    e = write(tmp_path, "e.json", {"n": 4, "type": "<<>", "diagram": [[1, 3, 2], [2, 4, 1]]})
    m = write(tmp_path, "m.json", serialize_module(generate_random_module(6, 4, 2, 5)))
    commands = [
        ["decompose", d], ["decompose", m], ["synthesize", d],
        ["reflect", d, "--kind", "colimit", "--index", "3"],
        ["reflect", m, "--kind", "limit", "--index", "1", "--boundary-dir", "backward"],
        ["annihilate", d],
        ["distance", d, e, "--metric", "reflection", "--p", "2"],
        ["distance", d, e, "--metric", "bottleneck", "--p", "inf"],
        ["gen", "--n", "6", "--max-points", "4", "--seed", "2"],
        ["verify-stability", "--trials", "5", "--n", "4", "--max-points", "2", "--seed", "3"],
    ]

    def one_round():
        results = []
        for argv in commands:
            code = main(argv)
            results.append((code, capsys.readouterr().out))
        return results

    first = one_round()
    assert all(code == 0 and out for code, out in first)
    for usage_error in (["distance", d], ["distance", d, e, "--metric", "nope"]):
        with pytest.raises(SystemExit) as exc:
            main(usage_error)
        assert exc.value.code == 2
    assert main(["reflect", d, "--kind", "limit", "--index", "9"]) == 2
    capsys.readouterr()
    assert one_round() == first
    env = subprocess_env()
    run = subprocess.run([sys.executable, "-m", "zzdist", *commands[7]], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == first[7]


_WITHOUT_NUMPY = """
import contextlib, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from zzdist import main

def run(out, *argv):
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        code = main(list(argv))
    if code != 0:
        sys.exit(f"zzdist {argv[0]} exited with code {code}")

mats, dia, out = sys.argv[1:]
run(mats, "gen", "--n", "8", "--max-points", "6")
run(out, "decompose", mats)
run(out, "reflect", mats, "--kind", "colimit", "--index", "4")
run(out, "synthesize", dia)
"""


def test_zzdist_runs_without_numpy(tmp_path):
    env = subprocess_env()
    argv = [str(tmp_path / "m.json"), write(tmp_path, "d.json", DIA), str(tmp_path / "out.json")]
    run = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["matrices"]


def test_cmd_gen_deterministic(tmp_path, capsys):
    argv = ["gen", "--n", "5", "--max-points", "3", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "--n", "5", "--max-points", "3", "--seed", "8"]) == 0
    assert capsys.readouterr().out != first
    assert main(["gen", "--n", "1", "--max-points", "3"]) == 2
    capsys.readouterr()


def test_field_prime_env(tmp_path, capsys, monkeypatch):
    d = write(tmp_path, "d.json", DIA)
    monkeypatch.setenv("ZZ_FIELD_PRIME", "5")
    assert main(["synthesize", d]) == 0
    assert json.loads(capsys.readouterr().out)["matrices"]["field_prime"] == 5
    for bad in ("6", str(2 ** 61 - 1)):
        monkeypatch.setenv("ZZ_FIELD_PRIME", bad)
        assert main(["synthesize", d]) == 2
        assert "ZZ_FIELD_PRIME" in capsys.readouterr().err


def test_huge_matrix_entries_are_reduced_mod_p(tmp_path, capsys):
    def module(entry, p):
        return write(tmp_path, f"m{p}_{entry}.json", {"n": 3, "type": "><", "matrices": {
            "field_prime": p, "dims": [1, 1, 1], "maps": [[entry], [1]]}})

    for p in (2, 5):
        assert main(["decompose", module(1, p)]) == 0
        want = capsys.readouterr().out
        for entry in (p ** 70 + 1, p * 10 ** 29 + 1, 1 - p, 1 - p * 10 ** 29):  # each 1 mod p
            assert parse_module_file(module(entry, p)).maps[0] == Matrix(p, [[1]], 1)
            assert main(["decompose", module(entry, p)]) == 0
            assert capsys.readouterr().out == want


def test_matrices_file_entries_are_checked_once(tmp_path, monkeypatch):
    # the field is checked once per file and each entry once, by one type
    # pass, so neither _index nor the Matrix constructor runs on the file
    # path; synthesize builds its 0/1 maps unchecked as well
    V = generate_random_module(6, 6, 5, 11)
    assert all(M.rows and M.cols for M in V.maps)
    path, D = write(tmp_path, "m.json", serialize_module(V)), decompose(V)
    index_calls = count_calls(monkeypatch, linalg, "_index")
    init_calls = count_calls(monkeypatch, Matrix, "__init__")
    back = parse_module_file(path)
    W = synthesize(V.tau, D.points, 5)
    assert index_calls == init_calls == [0]
    assert back.maps == V.maps and all(type(x) is int for M in back.maps for x in M.entries)
    assert W.maps == tuple(Matrix(M.p, M.data, M.cols) for M in W.maps)
    assert decompose(W) == D


def test_bad_matrix_entry_names_the_map_and_its_position(tmp_path, capsys):
    for bad in (1.5, True, "1", None):
        path = write(tmp_path, "bad.json", {"n": 3, "type": "><", "matrices": {
            "field_prime": 2, "dims": [2, 2, 2], "maps": [[1, 0, 0, 1], [1, 0, 0, bad]]}})
        assert main(["decompose", path]) == 2
        assert capsys.readouterr().err == (f"error: {path}: entry 3 {bad!r}: the entries of "
                                           "map 2 must be integers\n")


def test_bad_diagram_entry_names_the_file_and_the_entry(tmp_path, capsys):
    # PersistenceDiagram.from_counts checks each entry, once
    for bad, want in (([1, 2], "3 integers"), ("abc", "integers"), ({"b": 1}, "integers"),
                      ([1, 2, 1, 4], "3 integers")):
        path = write(tmp_path, "bad.json", {"n": 3, "type": "><", "diagram": [bad]})
        assert main(["decompose", path]) == 2
        assert capsys.readouterr().err == (f"error: {path}: entry 0 {bad!r}: birth, death "
                                           f"and multiplicity must be {want}\n")


def test_declared_dimension_past_the_bound_exits_2(tmp_path, capsys):
    # maps out of a zero space are empty lists, so this file once cost
    # 100 MB to parse and gigabytes to decompose
    path = tmp_path / "dims.json"
    path.write_text('{"n": 3, "type": ">>", "matrices": {"field_prime": 2, '
                    '"dims": [0, 1000000, 0], "maps": [[], []]}}', encoding="utf-8")
    start = time.perf_counter()
    assert main(["decompose", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == (f"error: {path}: entry 1 1000000: dimensions must be integers "
                   "from 0 to 256\n")


def test_isolated_spaces_decompose_without_elimination(tmp_path, capsys):
    # every map is empty, so each space of 256 is 256 copies of one
    # position; eliminating them once took 0.7 s a space
    dims = [256 if i % 2 == 0 else 0 for i in range(25)]
    path = write(tmp_path, "iso.json", {"n": 25, "type": ">" * 24, "matrices": {
        "field_prime": 2, "dims": dims, "maps": [[]] * 24}})
    start = time.perf_counter()
    assert main(["decompose", path]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["diagram"] == [
        [i, i, 256] for i in range(1, 26, 2)]


def test_wide_synthesized_file_decomposes_fast(tmp_path, capsys):
    # n - 1 identities of 256 x 256: at n = 5 dense products once took 20 s,
    # almost all of it multiplying by zero, and at n = 25 one section sweep
    # per birth took 15 s
    for n in (5, 25):
        d = write(tmp_path, "d.json", {"n": n, "type": ">" * (n - 1), "diagram": [[1, n, 256]]})
        assert main(["synthesize", d]) == 0
        path = tmp_path / "m.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        start = time.perf_counter()
        assert main(["decompose", str(path)]) == 0
        assert time.perf_counter() - start < 5.0, n
        assert json.loads(capsys.readouterr().out)["diagram"] == [[1, n, 256]]


def test_cli_writes_no_file_past_the_bound(tmp_path, capsys):
    # gen and synthesize refuse, before building a matrix, what decompose
    # would refuse to read back; m = 2000 once took 7 s and 835 MB
    d = write(tmp_path, "d.json", {"n": 3, "type": "><", "diagram": [[1, 3, 2000]]})
    start = time.perf_counter()
    assert main(["synthesize", d]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (f"error: {d}: position 1 would have dimension 2000, "
                                       "past the bound of 256 on a file's dimensions\n")
    start = time.perf_counter()
    assert main(["gen", "--n", "2", "--max-points", "700", "--seed", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --max-points must be at most 256, the bound on a file's "
                            "dimensions, got 700\n")
    # at the bound the file reads back
    d = write(tmp_path, "edge.json", {"n": 3, "type": "><",
                                      "diagram": [[1, 1, 256], [3, 3, 256]]})
    assert main(["synthesize", d]) == 0
    path = tmp_path / "edge-m.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["decompose", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["diagram"] == [[1, 1, 256], [3, 3, 256]]


def test_reflection_may_pass_the_bound_a_file_is_held_to(tmp_path, capsys):
    # a limit at the sink of 256 -> 0 <- 256 is their sum, 512
    path = tmp_path / "sink.json"
    path.write_text('{"n": 3, "type": "><", "matrices": {"field_prime": 2, '
                    '"dims": [256, 0, 256], "maps": [[], []]}}', encoding="utf-8")
    assert main(["reflect", str(path), "--kind", "limit", "--index", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["type"] == "<>" and out["matrices"]["dims"] == [256, 512, 256]


def test_gen_then_decompose_n24_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ZZ_FIELD_PRIME", raising=False)
    assert main(["gen", "--n", "24", "--max-points", "24", "--seed", "3"]) == 0
    path = tmp_path / "m24.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["decompose", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 24 and out["type"] == ">><<>><<>><<<>>><>>>><>"
    assert out["diagram"] == [[4, 5, 1], [5, 16, 1], [5, 20, 1], [7, 15, 1],
                              [13, 24, 1], [16, 22, 1], [19, 22, 1], [23, 24, 1]]


def test_random_symbolic_module_bounds():
    rng = random.Random(3)
    for _ in range(50):
        S = random_symbolic_module(rng, 5, 3)
        assert S.n == 5 and len(S.diagram) <= 3
        for (b, d) in S.diagram:
            assert 1 <= b <= d <= 5
    with pytest.raises(ValueError):
        random_symbolic_module(rng, 1, 3)
    with pytest.raises(ValueError, match="max_points must be >= 0, got -1"):
        random_symbolic_module(rng, 5, -1)
    with pytest.raises(ValueError, match="trials must be >= 0, got -1"):
        stability_experiment(-1, 5, 3, 0)


@pytest.mark.parametrize("args, message", [
    ((2.5, 4, 1, 0), "trials must be an integer, got 2.5"),
    ((True, 4, 1, 0), "trials must be an integer, got True"),
    ((3, 2.5, 1, 0), "n must be an integer, got 2.5"),
    ((3, True, 1, 0), "n must be an integer, got True"),
    ((2, 4, 1.5, 0), "max_points must be an integer, got 1.5"),
    ((2, 4, False, 0), "max_points must be an integer, got False")])
def test_stability_sizes_must_be_integers(args, message):
    # random would refuse the floats with messages of its own, and take a
    # bool as 0 or 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        stability_experiment(*args)


def test_generate_random_module_recovers_seeded_diagram():
    for seed in (0, 1, 2, 3):
        V = generate_random_module(6, 4, 2, seed)
        rng = random.Random(seed)
        S = random_symbolic_module(rng, 6, 4)
        assert V.tau == S.tau
        assert decompose(V) == S.diagram


def test_stability_experiment_report():
    rep = stability_experiment(25, 5, 3, 9)
    again = stability_experiment(25, 5, 3, 9)
    assert rep == again
    assert rep.passed and rep.violations == ()
    assert len(rep.trials) == 25
    d = rep.to_dict()
    assert d["count"] == 25 and d["passed"] is True
    for t in rep.trials:
        assert t["d_binf"] <= t["d_b1"] <= t["d_r1"]
        assert 2 <= t["n"] <= 5
        if t["same_type"]:
            assert t["type_v"] == t["type_w"]


def test_stability_experiment_lists_a_violation(monkeypatch):
    # a bottleneck value above every reflection value breaks d_b <= d_R in
    # each trial, and the report lists every one of them
    monkeypatch.setattr("zzdist.stability.bottleneck_distance", lambda *args: 1e9)
    rep = stability_experiment(3, 5, 3, 9)
    assert not rep.passed and rep.violations == (0, 1, 2)
    assert [t["main_ok"] for t in rep.trials] == [False] * 3
    d = rep.to_dict()
    assert d["passed"] is False and d["violations"] == [0, 1, 2] and d["count"] == 3


def test_every_json_command_prints_what_json_dumps_prints(tmp_path, capsys, monkeypatch):
    # stdout is json.dumps(obj, indent=2, sort_keys=True) + "\n" of the object
    # the library gives, for every command that prints JSON, on seeded inputs
    def expect(argv, obj):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == json.dumps(obj, indent=2, sort_keys=True) + "\n", argv

    rng = random.Random(32)
    for case in range(8):
        n, p = rng.randint(2, 6), (2, 3, 5)[case % 3]
        S = random_symbolic_module(rng, n, 4)
        d = write(tmp_path, f"d{case}.json", serialize_symbolic(S))
        monkeypatch.setenv("ZZ_FIELD_PRIME", str(p))
        V = synthesize(S.tau, S.diagram.points, p)
        expect(["synthesize", d], serialize_module(V))
        expect(["gen", "--n", str(n + 2), "--max-points", "3", "--seed", str(case)],
               serialize_module(generate_random_module(n + 2, 3, p, case)))
        m = write(tmp_path, f"m{case}.json", serialize_module(V))
        for path, module in ((d, S), (m, V)):
            expect(["decompose", path], serialize_symbolic(zzdist.diagrams._symbolic(module)))
            seq = annihilating_sequence(module)
            expect(["annihilate", path],
                   {"length": len(seq), "ops": [_op_to_dict(op) for op in seq]})
        for op in all_ops(n):
            argv = ["--kind", op.kind, "--index", str(op.k)]
            if op.boundary_dir is not None:
                argv += ["--boundary-dir", {">": "forward", "<": "backward"}[op.boundary_dir]]
            expect(["reflect", d, *argv], serialize_symbolic(act(op, S)))
            expect(["reflect", m, *argv], serialize_module(apply(op, V)))
    for seed in range(3):
        expect(["verify-stability", "--trials", "6", "--n", "5", "--max-points", "2",
                "--seed", str(seed)], stability_experiment(6, 5, 2, seed).to_dict())


def test_cmd_verify_stability(capsys):
    assert main(["verify-stability", "--trials", "10", "--n", "4",
                 "--max-points", "2", "--seed", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] and rep["count"] == 10 and rep["violations"] == []


def test_cmd_verify_stability_violation_exits_3(monkeypatch, capsys):
    record = {"trial": 0, "d_r1": 0.0, "d_b1": 1.0, "main_ok": False}
    report = zzdist.ExperimentReport((record,), (0,))
    monkeypatch.setattr("zzdist.cli.stability_experiment", lambda *args: report)
    assert main(["verify-stability", "--trials", "1", "--seed", "0"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] is False
    assert captured.err == f"violation in trial 0: {json.dumps(record, sort_keys=True)}\n"


@pytest.mark.parametrize("error", [MemoryError, OverflowError])
def test_work_past_memory_exits_2(monkeypatch, capsys, error):
    def too_large(*args):
        raise error()

    monkeypatch.setattr("zzdist.cli.stability_experiment", too_large)
    assert main(["verify-stability", "--trials", "1", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input too large to hold in memory\n"
