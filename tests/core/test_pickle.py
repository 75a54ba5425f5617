"""Pickled terms, facts and object bases survive a change of hash seed.

Terms and facts cache their hash at construction.  A pickle taken in one
process and loaded in another must not carry that cached value across:
string hashes depend on ``PYTHONHASHSEED``, so a stale hash would make an
equal fact compare unequal and vanish from every set and index.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.core.facts import Fact
from repro.core.terms import Oid, UpdateKind, Var, VersionId, VersionVar
from repro.workloads.enterprise import paper_example_base

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``mod(phil).sal -> 4600`` and ``bob.sal -> 4200``, built from text so
#: both processes construct them independently.
FACTS = """
from repro.lang.parser import parse_object_base
(raised,) = [f for f in parse_object_base("mod(phil).sal -> 4600.", ensure_exists=False)]
(bob,) = [f for f in parse_object_base("bob.sal -> 4200.", ensure_exists=False)]
"""

DUMP = FACTS + """
import pickle, sys
from repro.workloads.enterprise import paper_example_base
sys.stdout.buffer.write(pickle.dumps((raised, paper_example_base())))
"""

LOAD = FACTS + """
import pickle, sys
from repro.workloads.enterprise import paper_example_base
fact, base = pickle.loads(sys.stdin.buffer.read())
assert fact == raised and hash(fact) == hash(raised), "fact"
assert raised in {fact}, "set membership"
assert base == paper_example_base(), "base"
assert bob in base, "base membership"
assert bob in base.iter_facts_by_host_method(bob.host, "sal", 0), "index"
print("ok")
"""


def _python(code: str, seed: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin, capture_output=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_fact_and_base_round_trip_across_hash_seeds():
    dumped = _python(DUMP, "7")
    assert _python(LOAD, "123", dumped).strip() == b"ok"


def test_terms_rebuild_their_hash_when_unpickled():
    makers = [
        lambda: Oid("phil"),
        lambda: Oid(4000),
        lambda: Var("E"),
        lambda: VersionVar("W"),
        lambda: VersionId(
            UpdateKind.MODIFY, VersionId(UpdateKind.INSERT, Oid("bob"))
        ),
        lambda: Fact(Oid("bob"), "sal", (), Oid(4200)),
    ]
    for make in makers:
        stale = make()
        stale._hash = 0  # what a foreign hash seed would leave behind
        copy = pickle.loads(pickle.dumps(stale))
        fresh = make()
        assert type(copy) is type(fresh)
        assert copy == fresh and hash(copy) == hash(fresh)


def test_base_round_trips_in_process():
    base = paper_example_base()
    copy = pickle.loads(pickle.dumps(base))
    assert copy == base
    assert Fact(Oid("phil"), "sal", (), Oid(4000)) in copy
