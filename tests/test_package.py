"""The package's surface: what ``from zzdist import *`` exports, and the
README's library example, whose comments state the values it prints."""

from __future__ import annotations

import ast
import re
from pathlib import Path
from types import ModuleType

import zzdist

README = Path(__file__).resolve().parent.parent / "README.md"


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
