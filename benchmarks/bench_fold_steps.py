"""Fold-step size harness: how many chunks one fused step should join.

The fused engine joins consecutive small chunks into one fold step
(:func:`repro.streaming.sources.fold_steps`) so a step's fixed numpy-call cost
is paid once per span.  This script measures where that stops paying: it
evaluates the six Table I reductions over two stores in one plan, at several
chunk sizes, forcing ``k`` chunks per step and then using the engine's own
rule, and prints the median wall time of each.  Every variant returns the
same scalars (asserted ``==`` before timing is reported), and every variant
must be asked for its steps by the sweep, so the forced sizes really apply.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_fold_steps.py
    PYTHONPATH=src python benchmarks/bench_fold_steps.py --slab-rows 8 32 --repeats 3
"""

from __future__ import annotations

import argparse
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import engine
from repro.core import CompressionSettings
from repro.engine import expr
from repro.streaming import ChunkedCompressor, CompressedStore
from repro.streaming import sources

SHAPE = (4096, 512)
SETTINGS = CompressionSettings(block_shape=(4, 4), float_format="float32",
                               index_dtype="int16")
FORCED = (1, 2, 4, 8)


def forced_steps(k: int):
    """A ``fold_steps`` stand-in that joins ``k`` chunks per step."""
    def steps(stores: tuple) -> list[int]:
        n_chunks = stores[0].n_chunks
        return [min(k, n_chunks - start) for start in range(0, n_chunks, k)]
    return steps


def measure(directory: Path, slab_rows: int, repeats: int) -> dict:
    """Median seconds per variant for one chunk size."""
    rng = np.random.default_rng(0)
    paths = []
    for name, offset in (("a", 0.0), ("b", 0.1)):
        array = np.cumsum(rng.standard_normal(SHAPE), axis=0) * 0.05 + offset
        path = directory / f"{name}{slab_rows}.pblzc"
        ChunkedCompressor(SETTINGS, slab_rows=slab_rows).compress_to_store(
            array, path).close()
        paths.append(path)
    rule = sources.fold_steps
    variants = {f"k={k}": forced_steps(k) for k in FORCED}
    variants["rule"] = rule
    asked: dict[str, int] = {name: 0 for name in variants}

    def counted(name: str):
        """``variants[name]``, counting how often the sweep asks it for steps."""
        def steps(stores: tuple) -> list[int]:
            asked[name] += 1
            return variants[name](stores)
        return steps
    with CompressedStore(paths[0]) as a, CompressedStore(paths[1]) as b:
        x, y = expr.source(a), expr.source(b)
        plan = engine.plan({
            "mean": expr.mean(x), "variance": expr.variance(x),
            "l2_norm": expr.l2_norm(x), "dot": expr.dot(x, y),
            "covariance": expr.covariance(x, y),
            "cosine_similarity": expr.cosine_similarity(x, y),
        })
        times: dict[str, list[float]] = {name: [] for name in variants}
        reference = plan.execute()
        try:
            for repeat in range(repeats):
                order = list(variants) if repeat % 2 else list(variants)[::-1]
                for name in order:
                    sources.fold_steps = counted(name)
                    before = asked[name]
                    start = time.perf_counter()
                    values = plan.execute()
                    times[name].append(time.perf_counter() - start)
                    assert values == reference, name
                    # a sweep that stopped consulting fold_steps would time
                    # the same steps under every name; fail instead
                    assert asked[name] > before, f"{name}: fold steps never reached the sweep"
        finally:
            sources.fold_steps = rule
        record_kib = a._record_extent(0)[1] / 1024
        return {"coefficients": slab_rows * SHAPE[1], "record_kib": record_kib,
                "n_chunks": a.n_chunks,
                "ms": {name: statistics.median(t) * 1e3 for name, t in times.items()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slab-rows", type=int, nargs="+",
                        default=[8, 16, 32, 64, 128, 256, 1024])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    print("coefficients/chunk  record KiB  chunks  "
          + "  ".join(f"{name:>7s}" for name in (*[f"k={k}" for k in FORCED], "rule"))
          + "   (median ms)")
    with tempfile.TemporaryDirectory(prefix="fold_steps_") as tmp:
        for slab_rows in args.slab_rows:
            row = measure(Path(tmp), slab_rows, args.repeats)
            print(f"{row['coefficients']:18d}  {row['record_kib']:10.1f}  "
                  f"{row['n_chunks']:6d}  "
                  + "  ".join(f"{ms:7.1f}" for ms in row["ms"].values()),
                  flush=True)


if __name__ == "__main__":
    main()
