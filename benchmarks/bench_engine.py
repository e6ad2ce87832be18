"""Engine fusion harness: fused plan vs sequential ops, wall-clock and decode passes.

Emits a *machine-readable* record — ``BENCH_engine.json`` at the repository
root — tracking what the lazy plan engine (:mod:`repro.engine`) buys over
op-by-op :mod:`repro.streaming.ops` calls on the six-reduction workload the
acceptance bar centres on: ``mean``, ``variance``, ``l2_norm``, ``dot``,
``covariance`` and ``cosine_similarity`` over two identically chunked stores.
Sequential evaluation sweeps the stores once per op (12 decode passes across
the pair; the two-pass statistics sweep twice); the fused plan schedules the
same folds into exactly 2 passes per store and produces bit-identical scalars
(verified per run).  A formatted table is printed to stdout and mirrored to
``benchmarks/results/bench_engine.txt``.

Each workload also times the *compiled* fused path (``Plan.execute(backend=…)``,
:mod:`repro.engine.compile`) for every available fused-pass-capable backend:
one warm-up execution pays the kernel compile (reported separately as
``compile_seconds``/``warmup_seconds``), then the recorded ``compiled_seconds``
is warm — kernels come from the signature-keyed cache.  Compiled means are
verified bit-identical to reference and every scalar within 1e-9 relative
(far inside the documented ``fused_fold_tolerance``).

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # small stores only
    PYTHONPATH=src python benchmarks/bench_engine.py --check    # enforce both bars

The acceptance bars (enforced by ``--check``): fused wall-clock ≤ 0.6× the
sequential wall-clock on the 2-D headline workload, and best warm compiled
wall-clock ≤ 0.7× the interpreted fused wall-clock on the 256³ workload.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import engine
from repro.core import CompressionSettings
from repro.engine import expr
from repro.kernels import backend_is_available
from repro.streaming import ChunkedCompressor
from repro.streaming import ops as stream_ops

import report

#: (label, shape, slab_rows, quick)
WORKLOADS = [
    ("128x64 f32 slab16", (128, 64), 16, True),
    ("512x192 f32 slab32", (512, 192), 32, True),
    ("1024x384 f32 slab16", (1024, 384), 16, False),
    ("256x256x256 f32 slab32", (256, 256, 256), 32, False),
]

#: The acceptance workloads and bars checked by ``--check``.
HEADLINE = "1024x384 f32 slab16"
MAX_FUSED_RATIO = 0.6
COMPILED_HEADLINE = "256x256x256 f32 slab32"
MAX_COMPILED_RATIO = 0.7

#: Backends asked for a compiled fused-pass kernel (reference never compiles).
COMPILED_BACKENDS = ("gemm", "numba")

#: The six-reduction acceptance workload.
SIX_OPS = ("mean", "variance", "l2_norm", "dot", "covariance", "cosine_similarity")


def _store_pair(workdir: Path, shape: tuple[int, ...], slab_rows: int):
    """Two deterministic, identically chunked stores for one workload."""
    rng = np.random.default_rng(2023)
    settings = CompressionSettings(
        block_shape=(4,) * len(shape), float_format="float32", index_dtype="int16"
    )
    # gemm-backed *compression* only speeds store creation (untimed); the
    # reopened stores carry reference settings, so every timed sweep below
    # still reads the same bits regardless of this choice.
    chunked = ChunkedCompressor(settings, slab_rows=slab_rows, backend="gemm")
    a = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    b = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    return (
        chunked.compress_to_store(a, workdir / "a.pblzc"),
        chunked.compress_to_store(b, workdir / "b.pblzc"),
    )


def _sequential(store_a, store_b) -> dict:
    """The six reductions as independent streaming.ops calls (one sweep each)."""
    return {
        "mean": stream_ops.mean(store_a),
        "variance": stream_ops.variance(store_a),
        "l2_norm": stream_ops.l2_norm(store_a),
        "dot": stream_ops.dot(store_a, store_b),
        "covariance": stream_ops.covariance(store_a, store_b),
        "cosine_similarity": stream_ops.cosine_similarity(store_a, store_b),
    }


def _fused_plan(store_a, store_b):
    """The same six reductions as one fused engine plan."""
    x, y = expr.source(store_a), expr.source(store_b)
    return engine.plan({
        "mean": expr.mean(x),
        "variance": expr.variance(x),
        "l2_norm": expr.l2_norm(x),
        "dot": expr.dot(x, y),
        "covariance": expr.covariance(x, y),
        "cosine_similarity": expr.cosine_similarity(x, y),
    })


def bench_workload(label: str, shape: tuple[int, ...], slab_rows: int,
                   repeats: int) -> dict:
    """Time sequential vs fused on one store pair; verify bit-identity."""
    with tempfile.TemporaryDirectory(prefix="bench_engine_") as tmp:
        workdir = Path(tmp)
        store_a, store_b = _store_pair(workdir, shape, slab_rows)
        with store_a, store_b:
            plan = _fused_plan(store_a, store_b)

            # decode-pass accounting straight off the stores' read counters
            before = (store_a.chunks_read, store_b.chunks_read)
            sequential_values = _sequential(store_a, store_b)
            sequential_passes = (
                (store_a.chunks_read - before[0]) // store_a.n_chunks,
                (store_b.chunks_read - before[1]) // store_b.n_chunks,
            )
            before = (store_a.chunks_read, store_b.chunks_read)
            fused_values = plan.execute()
            fused_passes = (
                (store_a.chunks_read - before[0]) // store_a.n_chunks,
                (store_b.chunks_read - before[1]) // store_b.n_chunks,
            )
            mismatched = [op for op in SIX_OPS
                          if sequential_values[op] != fused_values[op]]
            if mismatched:
                raise AssertionError(
                    f"fused results diverged from sequential on {mismatched}"
                )

            sequential_seconds, _ = report.best_of(
                repeats, lambda: report.timed(_sequential, store_a, store_b)
            )
            fused_seconds, _ = report.best_of(
                repeats, lambda: report.timed(plan.execute))
            compiled = [
                _bench_compiled(name, plan, fused_values, fused_seconds, repeats)
                for name in COMPILED_BACKENDS
            ]
            return {
                "workload": label,
                "shape": list(shape),
                "slab_rows": slab_rows,
                "n_chunks": store_a.n_chunks,
                "operations": list(SIX_OPS),
                "sequential_seconds": sequential_seconds,
                "fused_seconds": fused_seconds,
                "fused_over_sequential": fused_seconds / sequential_seconds,
                "sequential_decode_passes": list(sequential_passes),
                "fused_decode_passes": list(fused_passes),
                "plan_passes": plan.n_passes,
                "bit_identical": True,
                "compiled": compiled,
            }


def _bench_compiled(name: str, plan, reference_values: dict,
                    fused_seconds: float, repeats: int) -> dict:
    """Warm then time one compiled backend; verify it against reference.

    The first ``execute(backend=name)`` pays kernel compilation — its wall
    time and the kernels' own ``compile_seconds`` are recorded separately and
    **excluded** from ``compiled_seconds``, which times only warm (cached)
    executions, matching the warm-up contract in ``docs/engine.md``.
    """
    if not backend_is_available(name):
        return {"backend": name, "available": False,
                "reason": "backend not importable in this environment"}
    warmup_seconds, compiled_values = report.timed(plan.execute, backend=name)
    stats = dict(plan.last_execution)
    max_rel = max(
        abs(compiled_values[op] - reference_values[op])
        / max(abs(reference_values[op]), 1e-300)
        for op in SIX_OPS
    )
    if max_rel > 1e-9:
        raise AssertionError(
            f"{name} compiled results drifted {max_rel:.3e} from reference"
        )
    if compiled_values["mean"] != reference_values["mean"]:
        raise AssertionError(f"{name} compiled mean is not bit-identical")
    compiled_seconds, _ = report.best_of(
        repeats, lambda: report.timed(plan.execute, backend=name))
    return {
        "backend": name,
        "available": True,
        "compiled_seconds": compiled_seconds,
        "compiled_over_fused": compiled_seconds / fused_seconds,
        "warmup_seconds": warmup_seconds,
        "compile_seconds": stats["compile_seconds"],
        "compiled_groups": stats["compiled_groups"],
        "interpreted_groups": stats["interpreted_groups"],
        "max_rel_vs_reference": max_rel,
        "mean_bit_identical": True,
    }


def format_table(results: list[dict]) -> str:
    header = (
        f"{'workload':22s} {'chunks':>6s} {'sequential s':>13s} {'fused s':>9s} "
        f"{'ratio':>6s} {'decode passes (a,b)':>21s}"
    )
    lines = [header, "-" * len(header)]
    for record in results:
        passes = (f"{record['sequential_decode_passes']}"
                  f"->{record['fused_decode_passes']}")
        lines.append(
            f"{record['workload']:22s} {record['n_chunks']:6d} "
            f"{record['sequential_seconds']:13.4f} {record['fused_seconds']:9.4f} "
            f"{record['fused_over_sequential']:6.2f} {passes:>21s}"
        )
        for row in record.get("compiled", ()):
            if not row.get("available"):
                lines.append(f"  compiled[{row['backend']}]: unavailable "
                             f"({row['reason']})")
                continue
            lines.append(
                f"  compiled[{row['backend']}]: {row['compiled_seconds']:.4f}s "
                f"({row['compiled_over_fused']:.2f}x fused; compile "
                f"{row['compile_seconds'] * 1e3:.2f}ms excluded, warm-up "
                f"{row['warmup_seconds']:.4f}s)"
            )
    return "\n".join(lines)


def check(results: list[dict]) -> int:
    """The ``--check`` bars: fused ≤ MAX_FUSED_RATIO× sequential on HEADLINE,
    then best compiled ≤ MAX_COMPILED_RATIO× fused on COMPILED_HEADLINE."""
    headline = [r for r in results if r["workload"] == HEADLINE]
    if not headline:
        return report.failed(f"headline workload {HEADLINE!r} was not run "
                             "(did you pass --quick?)")
    ratio = headline[0]["fused_over_sequential"]
    if ratio > MAX_FUSED_RATIO:
        return report.failed(f"fused/sequential {ratio:.2f} > {MAX_FUSED_RATIO}")
    report.passed(f"fused/sequential {ratio:.2f} ≤ {MAX_FUSED_RATIO}")

    compiled_headline = [r for r in results
                         if r["workload"] == COMPILED_HEADLINE]
    if not compiled_headline:
        return report.failed(f"compiled headline workload "
                             f"{COMPILED_HEADLINE!r} was not run (did you pass --quick?)")
    available = [row for row in compiled_headline[0]["compiled"]
                 if row.get("available")]
    if not available:
        return report.failed("no compiled fused-pass backend was available")
    best = min(available, key=lambda row: row["compiled_over_fused"])
    if best["compiled_over_fused"] > MAX_COMPILED_RATIO:
        return report.failed(f"compiled/fused "
                             f"{best['compiled_over_fused']:.2f} ({best['backend']}) > "
                             f"{MAX_COMPILED_RATIO}")
    return report.passed(f"compiled/fused {best['compiled_over_fused']:.2f} "
                         f"({best['backend']}) ≤ {MAX_COMPILED_RATIO}")


def main(argv: list[str] | None = None) -> int:
    parser = report.parser(
        "engine", __doc__,
        quick="small stores only (for CI smoke; skips the headline workload)",
        check=f"fail unless fused wall-clock ≤ {MAX_FUSED_RATIO}x "
              f"sequential on the 6-op headline workload AND the "
              f"best warm compiled wall-clock ≤ {MAX_COMPILED_RATIO}x "
              f"interpreted fused on {COMPILED_HEADLINE!r}")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per timing; the best is recorded (default 3)")
    args = parser.parse_args(argv)

    results: list[dict] = []
    for label, shape, slab_rows, quick in WORKLOADS:
        if args.quick and not quick:
            continue
        print(f"benchmarking {label} ...", flush=True)
        results.append(bench_workload(label, shape, slab_rows, args.repeats))

    report.publish(
        "engine", args.output,
        units={"seconds": "best of --repeats wall-clock",
               "decode_passes": "store sweeps per (store_a, store_b)"},
        results=results, table=format_table(results))
    return check(results) if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
