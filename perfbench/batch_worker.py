"""One measured ``batch-apply`` cycle in a fresh interpreter.

Usage (``scenarios.py`` starts it)::

    python3 perfbench/batch_worker.py SEED CYCLE SECONDS REFERENCES TAMPER

``REFERENCES`` is the directory of naive reference bases (object-base
JSON) that the parent run wrote.  Prints one JSON object: the cycle's set-up times, op times,
CPU time, failures and peak RSS (see :func:`scenarios.batch_cycle`).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import scenarios  # noqa: E402  (needs the program's sources on the path)


def main(argv: list[str]) -> int:
    seed, cycle, seconds, references, tamper = argv
    part = scenarios.batch_cycle(
        int(seed), int(cycle), float(seconds), Path(references), tamper=tamper == "1"
    )
    print(json.dumps(part))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
