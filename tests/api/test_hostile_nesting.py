"""Deeply nested query text fails alike on every backend.

A 3000-level parenthesised expression and a 3000-level ``mod(...)`` VID
used to exhaust the interpreter stack: a raw ``RecursionError`` in
process, a generic ``ServerError`` over the wire.  Both now stop at the
parser's nesting bound with a ``ParseError``, and the served backend
re-raises that same class.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import BackgroundServer
from repro.core.errors import ReproError
from repro.lang.errors import ParseError

BASE = "henry.isa -> empl.   henry.sal -> 250."

DEPTH = 3000

QUERIES = {
    "parentheses": "henry.sal -> S, T = " + "(" * DEPTH + "S" + ")" * DEPTH,
    "version-functors": "mod(" * DEPTH + "henry" + ")" * DEPTH + ".sal -> S",
}


def _failure(conn, text: str) -> ReproError:
    with pytest.raises(ReproError) as info:
        conn.query(text)
    return info.value


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_memory_and_served_raise_the_same_parse_error(name, tmp_path):
    text = QUERIES[name]
    with repro.connect("memory:", base=BASE) as conn:
        in_process = _failure(conn, text)

    directory = tmp_path / "store"
    repro.connect(directory, base=BASE).close()
    with BackgroundServer(directory, path=str(tmp_path / "n.sock")) as server:
        with repro.connect(server.target) as conn:
            served = _failure(conn, text)
            # the server still answers afterwards
            assert conn.query("henry.sal -> S") == [{"S": 250}]

    assert type(in_process) is ParseError
    assert type(served) is type(in_process)
    assert str(served) == str(in_process)
    assert (served.line, served.column) == (in_process.line, in_process.column)
