"""The contract every immutable record in zzdist keeps: equality and hash
by class and fields, a ``Name(field=value!r, ...)`` repr, no assignment
or deletion after construction, copies and pickles that round-trip, and
keyword construction.  The repr literals are those the records printed
when they were frozen dataclasses, or, for ``MemoInfo``, a named tuple."""

from __future__ import annotations

import copy
import json
import pickle
import subprocess
import sys

import pytest
from helpers import subprocess_env

from zzdist import (ExperimentReport, FiniteDiagram, Matching, Matrix, Morphism, Orientation,
                    PersistenceDiagram, ReflectionDistance, ReflectionOp, ReflectionSequence,
                    SymbolicModule, ZigzagModule, identity_morphism)
from zzdist.reflection_distance import MemoInfo


def _samples() -> dict:
    """Each record class, built twice from keywords so no instance is
    shared, with the repr it has always printed."""
    def tau():
        return Orientation(dirs=(">", "<"))

    def diagram():
        return PersistenceDiagram(n=3, points=[(2, 3), (1, 2), (1, 2)])

    def module():
        return ZigzagModule(tau=tau(), dims=[1, 1, 0], maps=(Matrix(2, [[1]], 1),
                                                              Matrix(2, [[]], 0)))

    def op():
        return ReflectionOp(kind="limit", k=1, boundary_dir=">")

    def sequence():
        return ReflectionSequence(ops=[op(), ReflectionOp("colimit", 2)])

    return {
        Matrix: (lambda: Matrix(p=3, data=[[4, 0], [1, 2]], cols=2),
                 "Matrix(p=3, data=((1, 0), (1, 2)), cols=2)"),
        FiniteDiagram: (lambda: FiniteDiagram(p=2, spaces=[1, 1],
                                              arrows=[(0, 1, Matrix(2, [[1]], 1))]),
                        "FiniteDiagram(p=2, spaces=(1, 1), "
                        "arrows=((0, 1, Matrix(p=2, data=((1,),), cols=1)),))"),
        Orientation: (tau, "Orientation(dirs=('>', '<'))"),
        ZigzagModule: (module,
                       "ZigzagModule(tau=Orientation(dirs=('>', '<')), dims=(1, 1, 0), maps=("
                       "Matrix(p=2, data=((1,),), cols=1), Matrix(p=2, data=((),), cols=0)))"),
        Morphism: (lambda: Morphism(source=module(), target=module(),
                                    components=identity_morphism(module()).components),
                   "Morphism(source=ZigzagModule(tau=Orientation(dirs=('>', '<')), "
                   "dims=(1, 1, 0), maps=(Matrix(p=2, data=((1,),), cols=1), "
                   "Matrix(p=2, data=((),), cols=0))), target=ZigzagModule(tau=Orientation("
                   "dirs=('>', '<')), dims=(1, 1, 0), maps=(Matrix(p=2, data=((1,),), cols=1), "
                   "Matrix(p=2, data=((),), cols=0))), components=(Matrix(p=2, data=((1,),), "
                   "cols=1), Matrix(p=2, data=((1,),), cols=1), Matrix(p=2, data=(), cols=0)))"),
        PersistenceDiagram: (diagram, "PersistenceDiagram(n=3, _counts=((1, 2, 2), (2, 3, 1)))"),
        SymbolicModule: (lambda: SymbolicModule(tau=tau(), diagram=diagram()),
                         "SymbolicModule(tau=Orientation(dirs=('>', '<')), "
                         "diagram=PersistenceDiagram(n=3, _counts=((1, 2, 2), (2, 3, 1))))"),
        ReflectionOp: (op, "ReflectionOp(kind='limit', k=1, boundary_dir='>')"),
        ReflectionSequence: (sequence,
                             "ReflectionSequence(ops=(ReflectionOp(kind='limit', k=1, "
                             "boundary_dir='>'), ReflectionOp(kind='colimit', k=2, "
                             "boundary_dir=None)))"),
        ReflectionDistance: (lambda: ReflectionDistance(value=1.0, steps=1, forward=sequence(),
                                                        backward=ReflectionSequence(())),
                             "ReflectionDistance(value=1.0, steps=1, forward=ReflectionSequence("
                             "ops=(ReflectionOp(kind='limit', k=1, boundary_dir='>'), "
                             "ReflectionOp(kind='colimit', k=2, boundary_dir=None))), "
                             "backward=ReflectionSequence(ops=()))"),
        Matching: (lambda: Matching(n_source=2, n_target=3, pairs=[(1, 0), (0, 2)]),
                   "Matching(n_source=2, n_target=3, pairs=((0, 2), (1, 0)))"),
        ExperimentReport: (lambda: ExperimentReport(trials=({"d": 1},), violations=(0,)),
                           "ExperimentReport(trials=({'d': 1},), violations=(0,))"),
        MemoInfo: (lambda: MemoInfo(hits=0, misses=0, evictions=0, held=0),
                   "MemoInfo(hits=0, misses=0, evictions=0, held=0)"),
    }


SAMPLES = _samples()
RECORDS = list(SAMPLES)


def _fields(r) -> dict:
    return {name: getattr(r, name) for name in type(r).__match_args__}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = SAMPLES[cls][0](), SAMPLES[cls][0]()
    assert a is not b and a == b and not a != b
    if cls is ExperimentReport:
        with pytest.raises(TypeError):  # its trials are dicts
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(_fields(a).values()))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_another_class_with_the_same_fields_is_unequal(cls):
    a = SAMPLES[cls][0]()
    twin = object.__new__(type("Twin", (cls,), {}))
    for name, value in _fields(a).items():
        object.__setattr__(twin, name, value)
    assert _fields(twin) == _fields(a)
    assert a != twin and twin != a and not a == twin
    assert a != tuple(_fields(a).values())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_is_the_pinned_literal(cls):
    make, want = SAMPLES[cls]
    assert repr(make()) == want


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    r = SAMPLES[cls][0]()
    before = repr(r)
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.x = 1
    assert repr(r) == before and not hasattr(r, "x")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_pickle_and_copies_round_trip(cls):
    r = SAMPLES[cls][0]()
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(twin) is cls and twin == r and repr(twin) == repr(r)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_construction_matches_keywords(cls):
    r = SAMPLES[cls][0]()
    if cls is PersistenceDiagram:  # built from points, stored as counts
        assert PersistenceDiagram(r.n, r.points) == r
    else:
        assert cls(*_fields(r).values()) == r
    match r:
        case cls(first):
            assert first == getattr(r, cls.__match_args__[0])
        case _:
            pytest.fail("positional pattern did not match")


def test_keyword_defaults():
    assert ReflectionOp("colimit", 2) == ReflectionOp(kind="colimit", k=2, boundary_dir=None)
    assert Matrix(p=2, data=[[1]], cols=1) == Matrix.from_rows([[1]])


_LOADED = "import sys, json; print(json.dumps(sorted(sys.modules)))"


def _modules_loaded_by(code: str, env: dict) -> set:
    run = subprocess.run([sys.executable, "-c", f"{code}\n{_LOADED}"], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(run.stdout))


def test_import_loads_no_code_generation_modules():
    # records are plain classes, so importing zzdist compiles no source at
    # run time and loads neither dataclasses nor what it imports; the CLI
    # module loads with the package, but argparse only when a parser is built
    env = subprocess_env()
    new = _modules_loaded_by("import zzdist", env) - _modules_loaded_by("pass", env)
    assert "zzdist.cli" in new
    assert not new & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, sorted(new)
    assert "argparse" not in new, sorted(new)


def test_import_compiles_no_generated_source():
    # a NamedTuple or dataclass would compile generated source, named
    # "<string>", as its class is built
    code = ("import sys\nseen = []\n"
            "sys.addaudithook(lambda event, args: event == 'compile' and args[1] == '<string>'"
            " and seen.append(args[0]))\n"
            "import zzdist\nprint(len(seen))")
    run = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout == "0\n"
