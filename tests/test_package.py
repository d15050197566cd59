"""The package's surface: what ``from zzdist import *`` exports, and the
README's library example, whose comments state the values it prints."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from types import ModuleType

import zzdist

README = Path(__file__).resolve().parent.parent / "README.md"
PERFBENCH = README.parent / "perfbench"


def test_all_lists_every_public_name():
    public = {name for name, value in vars(zzdist).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(zzdist.__all__) == sorted(public)


def _leading_literal(text: str):
    """The bracketed literal that ``text`` starts with."""
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch in "([{") - (ch in ")]}")
        if depth == 0:
            return ast.literal_eval(text[:i + 1])
    raise ValueError(f"no literal at the start of {text!r}")


def test_readme_library_block_prints_what_its_comments_state():
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    names: dict = {}
    exec(block, names)
    # each comment that starts with a literal states the value of the code
    # before it, on its own line or on the line above
    stated = {}
    code = None
    for line in block.splitlines():
        text, _, comment = line.partition("#")
        code = text.strip() or code
        if comment.strip().startswith("("):
            stated[code] = _leading_literal(comment.strip())
    assert stated == {
        "decompose(V).counts()": ((1, 2, 1), (1, 4, 1), (2, 3, 2), (3, 3, 1)),
        "decompose(V).dims()": (2, 4, 4, 1),
        "decompose(W).counts()": ((1, 1, 1), (1, 4, 1), (2, 3, 1), (3, 3, 2)),
        'act(ReflectionOp("limit", 2), S).diagram.counts()': ((1, 4, 1), (2, 3, 1)),
    }
    for expr, value in stated.items():
        assert eval(expr, names) == value, expr
    # the comments' cross-checks: dims() is V.dims, and act drops what
    # decompose(W) has beyond its one-position intervals
    assert names["decompose"](names["V"]).dims() == names["V"].dims
    act_counts = stated['act(ReflectionOp("limit", 2), S).diagram.counts()']
    assert names["decompose"](names["W"]).remove_simple().counts() == act_counts


# each module imports only from modules before it; a pair on one line
# imports neither of the other, and the package's own files come last
_LAYERS = (("linalg",), ("zigzag_core",), ("reflections",), ("diagrams",),
           ("reflection_distance", "bottleneck"), ("stability",), ("cli",),
           ("__main__", "__init__"))
_RANK = {name: i for i, line in enumerate(_LAYERS) for name in line}


def test_modules_import_only_from_layers_below_and_only_at_the_top():
    source = Path(zzdist.__file__).parent
    files = sorted(source.glob("*.py"))
    assert sorted(f.stem for f in files) == sorted(_RANK)
    wrong = []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            where = f"{path.name}:{node.lineno}"
            if id(node) not in top:
                wrong.append(f"{where}: a relative import below module level")
            names = [node.module] if node.module else [a.name for a in node.names]
            for name in names:
                if _RANK[name.split(".")[0]] >= _RANK[path.stem]:
                    wrong.append(f"{where}: {path.stem} imports {name}, not below it")
    assert wrong == []


def test_every_name_the_benchmark_reaches_resolves():
    # the workloads reach the library through ``zz.<name>`` chains on the
    # package and ``sys.modules["zzdist.<module>"]``, the witness replay
    # calls ``remove_simple`` on a diagram, and the tracer finds each
    # target by module path; none of them imports a name, so a name taken
    # out of the package would otherwise fail only in the benchmark
    reached, missing = set(), set()
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        names, base = [], node
        while isinstance(base, ast.Attribute):
            names.insert(0, base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id == "zz":
            obj, path = zzdist, "zz"
        elif isinstance(base, ast.Subscript) and ast.unparse(base.value) == "sys.modules":
            key = ast.literal_eval(base.slice)
            obj, path = sys.modules.get(key), f"sys.modules[{key!r}]"
        else:
            continue
        for name in names:
            path += "." + name
            if not hasattr(obj, name):
                missing.add(path)
                break
            obj = getattr(obj, name)
        reached.add(path)
    assert {"zz.canonical_type", "sys.modules['zzdist.cli'].main"} <= reached
    if not hasattr(zzdist.PersistenceDiagram, "remove_simple"):
        missing.add("zz.PersistenceDiagram.remove_simple")
    [targets] = [ast.literal_eval(node.value)
                 for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body
                 if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["TARGETS"]]
    assert targets
    for module, name in targets:
        if not hasattr(sys.modules.get(f"zzdist.{module}"), name):
            missing.add(f"zzdist.{module}.{name}")
    assert sorted(missing) == []
