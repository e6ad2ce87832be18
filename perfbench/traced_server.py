"""Run ``repro serve`` with the benchmark's tracer installed.

Usage::

    python perfbench/traced_server.py SNAPSHOT.json serve NAME=PATH ... --port 0

Everything after the snapshot path is passed to ``repro``'s command line
unchanged, so the server runs exactly as ``python -m repro serve`` would, with
timing spans around each layer's entry points.  Each line ``snapshot`` read
on standard input writes the tracer's cumulative totals to ``SNAPSHOT.json``
and then prints ``snapshot N`` on standard output.  SIGINT stops the server,
as it stops ``repro serve``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _answer_snapshots(tracer, target: Path) -> None:
    """Write a snapshot for every ``snapshot`` line on stdin."""
    for count, line in enumerate(sys.stdin, start=1):
        if line.strip() != "snapshot":
            continue
        temp = target.with_suffix(".tmp")
        temp.write_text(json.dumps(tracer.snapshot()))
        os.replace(temp, target)
        print(f"snapshot {count}", flush=True)


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main
    from tracing import Tracer

    target, command = Path(argv[0]), argv[1:]
    tracer = Tracer().install()
    threading.Thread(target=_answer_snapshots, args=(tracer, target),
                     daemon=True).start()
    return repro_main(command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
