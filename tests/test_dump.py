"""The command line's JSON writer against ``json.dumps`` on generated values."""

from __future__ import annotations

import enum
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from zzdist.cli import _dump  # noqa: E402


class Level(enum.IntEnum):
    SIX = 6


# strings with non-ASCII, control and lone surrogate characters; ints past
# 64 bits either sign; floats with -0.0, 1e16, inf and nan
TEXT = st.text(st.characters(exclude_categories=()))
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
           | st.floats() | st.sampled_from([-0.0, 1e16, math.inf, -math.inf, math.nan])
           | TEXT | st.sampled_from(["", "\x00\x1f\x7f", "é \U0001f600", '"\\\\/']))
VALUES = st.recursive(SCALARS, lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                                             | st.dictionaries(TEXT, kids)), max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(VALUES)
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[]]})
@example([1, True, Level.SIX, 2 ** 70, -3])
@example({"six": Level.SIX, "ints": [Level.SIX, 0], "t": (1, (2, 3.5))})
def test_dump_writes_what_json_dumps_writes(value):
    assert _dump(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_dump_refuses_what_json_refuses():
    for value in ({1, 2}, b"bytes", [object()]):
        with pytest.raises(TypeError):
            _dump(value)
