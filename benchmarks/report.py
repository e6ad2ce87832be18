"""The command line, timing loop, JSON record and ``--check`` verdict of bench_*.py.

Every ``benchmarks/bench_<name>.py`` script takes ``--output``/``--quick``/
``--check``, times with :func:`best_of`, writes ``BENCH_<name>.json`` at the repository root (harness,
units, the script's own sections, environment, results), prints its table and
mirrors it to ``benchmarks/results/bench_<name>.txt``, and under ``--check``
ends with one ``check passed``/``check failed`` line and exit code.  This
module writes those parts once; each script keeps its units, workload,
result fields and bars.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


def parser(name: str, doc: str, *, quick: str, check: str) -> argparse.ArgumentParser:
    """The shared arguments of ``bench_<name>.py``; scripts add their own."""
    parsed = argparse.ArgumentParser(description=doc.splitlines()[0])
    parsed.add_argument("--output", default=None,
                        help=f"JSON output path (default: BENCH_{name}.json at "
                             "the repo root)")
    parsed.add_argument("--quick", action="store_true", help=quick)
    parsed.add_argument("--check", action="store_true", help=check)
    return parsed


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    """``(wall seconds, result)`` of one call ``fn(*args, **kwargs)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def best_of(repeats: int, trial) -> tuple[float, object]:
    """The fastest of ``repeats`` runs of ``trial``: its ``(seconds, result)``.

    ``trial()`` returns ``(seconds, result)``, usually :func:`timed` around
    the part worth timing, so per-repeat set-up (a fresh store handle, a
    plan build) stays untimed.  Ties keep the earliest run.
    """
    return min((trial() for _ in range(repeats)), key=lambda run: run[0])


def publish(name: str, output: str | None, *, units: dict, results: list[dict],
            table: str, **sections) -> None:
    """Write the JSON record, print the table and mirror it to ``results/``.

    ``sections`` (``workload``, ``io_model``, ...) land between ``units`` and
    ``environment``, in the order given.
    """
    path = Path(output) if output else REPO_ROOT / f"BENCH_{name}.json"
    payload = {
        "harness": f"benchmarks/bench_{name}.py",
        "units": units,
        **sections,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": results,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(table)
    print(f"\nwrote {path}")
    results_dir = REPO_ROOT / "benchmarks" / "results"
    if results_dir.is_dir():
        (results_dir / f"bench_{name}.txt").write_text(table + "\n")


def failed(message: str) -> int:
    """Report a failed ``--check`` bar; returns the exit code 1."""
    print(f"check failed: {message}", file=sys.stderr)
    return 1


def passed(message: str) -> int:
    """Report a passed ``--check`` bar; returns the exit code 0."""
    print(f"check passed: {message}")
    return 0
