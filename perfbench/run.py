"""End-to-end benchmark of the PyBlaz compressed-array stack, with a traced
per-layer breakdown.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload scan-warm --seed 1 --seconds 15 --trace 0

Workloads (sizes and rationale in ``perfbench/workloads.json``):

* ``scan-warm`` — ``engine.evaluate`` of the six Table I reductions over two
  chunked stores in the page cache: the per-chunk read → decode → fold cost.
* ``scan-cold`` — the same op with every chunk-record read delayed through the
  fault harness's ``latency`` rule, standing in for uncached storage; the one
  workload where readahead has latency to hide.
* ``ingest`` — ``append_shard`` of a new slab to a sharded store, then a
  fresh open answering mean and l2_norm from persisted partials.
* ``serve`` — a closed loop, in rounds, of 2 ``QueryClient`` connections
  against ``python -m repro serve`` (its own process) over a three-store
  catalog.

The program runs with its defaults throughout: reference backend, automatic
readahead depth, the default serving tick, coalescing on, the default chunk
cache.  The seed generates the input arrays; the program sees only them.

Every op is checked: its scalars must ``==`` the references that set-up
computes with ``engine.evaluate(..., prefetch=0)``, and served values must
``==`` local evaluation.  Scans also check exact work counts per op.  A
mismatch or error counts as a failed op and makes the run incorrect.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sets up a second,
traced copy of the inputs and alternates blocks of ops between the untraced
and the traced copy, with timing spans around each layer's entry points
(``perfbench/tracing.py``) during the traced blocks; it prints the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a JSON ``report`` with every metric, the
tail percentile used, the environment and where each per-layer figure came
from.  ``--smoke`` shrinks every input so the benchmark's own tests run in
seconds.

Store files and server logs live in ``.perfbench_work/`` under the checkout
and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("scan-warm", "scan-cold", "ingest", "serve")

#: End-to-end metrics printed by ``--trace 0`` (name -> unit).  All are
#: nonzero, because a regression bound is a share of the parent's median.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "compression_ratio": "x",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics printed beside the others but not bounded.  The tail
#: is the 11th-slowest op, so it jumps between modes with the count of rare
#: events in a run (on serve, clients falling out of step with the tick);
#: a correct run has ``failed_ratio`` 0; and ``max_rel_error`` is the
#: quantization noise of each seed's inputs, so it moves with ``--seed``.
UNBOUNDED = {"op_tail_ms": "ms", "failed_ratio": "ratio", "max_rel_error": "ratio"}

#: Per-layer metrics printed by ``--trace 1`` (name -> unit).  Times are a
#: mean per call, counts a mean per op; ratios are over the traced ops.
PER_LAYER = {
    "codecs.from_bytes.calls": "count",
    "codecs.from_bytes.us": "us",
    "store.read_payload.us": "us",
    "store.read_payload_span.us": "us",
    "store.preads": "count",
    "store.chunks_read": "count",
    "store.chunks_prefetched": "count",
    "store.read_retries": "count",
    "prefetch.wait.us": "us",
    "prefetch.useful_ratio": "ratio",
    "plan.build.ms": "ms",
    "plan.execute.ms": "ms",
    "plan.fold_self.ms": "ms",
    "plan.passes": "count",
    "plan.decodes_per_pass": "count",
    "plan.io_s": "s",
    "core.compress.ms": "ms",
    "kernels.transform_and_bin.ms": "ms",
    "store.writer.append.us": "us",
    "store.writer.finalize.ms": "ms",
    "sharded.append_shard.ms": "ms",
    "sharded.open.ms": "ms",
    "sharded.shards": "count",
    "plan.incremental_groups": "count",
    "serving.queue_wait.ms": "ms",
    "serving.batch_exec.ms": "ms",
    "serving.batch_size": "count",
    "serving.plans_per_request": "count",
    "serving.wire.ms": "ms",
    "cache.hit_rate": "ratio",
    "cache.evictions": "count",
    "cache.prefetch_useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer times: metric -> (span, scale to the unit, use self time).
SPAN_METRICS = {
    "codecs.from_bytes.us": ("codecs.from_bytes", 1e3, False),
    "store.read_payload.us": ("store.read_payload", 1e3, False),
    "store.read_payload_span.us": ("store.read_payload_span", 1e3, False),
    "plan.build.ms": ("plan.build", 1e6, False),
    "plan.execute.ms": ("plan.execute", 1e6, False),
    "plan.fold_self.ms": ("plan.execute", 1e6, True),
    "core.compress.ms": ("core.compress", 1e6, False),
    "kernels.transform_and_bin.ms": ("kernels.transform_and_bin", 1e6, False),
    "store.writer.append.us": ("store.writer.append", 1e3, False),
    "store.writer.finalize.ms": ("store.writer.finalize", 1e6, False),
    "sharded.append_shard.ms": ("sharded.append_shard", 1e6, False),
    "sharded.open.ms": ("sharded.open", 1e6, False),
}

#: Per-layer counts per op: metric -> (snapshot section, name).
COUNT_METRICS = {
    "codecs.from_bytes.calls": ("spans", "codecs.from_bytes"),
    "store.preads": ("stores", "preads"),
    "store.chunks_read": ("stores", "chunks_read"),
    "store.chunks_prefetched": ("stores", "chunks_prefetched"),
    "store.read_retries": ("stores", "read_retries"),
    "plan.passes": ("counts", "passes"),
    "plan.incremental_groups": ("counts", "incremental_groups"),
}

#: Per-layer ratios over the traced ops: metric -> (numerator, denominator).
RATIO_METRICS = {
    "prefetch.useful_ratio": (("stores", "chunks_read"), ("stores", "chunks_prefetched")),
    "plan.decodes_per_pass": (("counts", "decodes"), ("counts", "source_passes")),
    "plan.io_s": (("counts", "io_seconds"), ("counts", "executions")),
}

#: Input sizes: (full run, ``--smoke``).
SIZES = {
    "scan_shape": ((2048, 384), (256, 64)),
    "ingest_history": ((1024, 96), (128, 32)),
    "ingest_appends": (30, 3),
    "serve_shape": ((512, 192), (64, 32)),
    "setup_repeats": (5, 2),
}

SLAB_ROWS = 16
INGEST_SLAB_ROWS = 64
COLD_READ_DELAY_S = 0.0003
SERVE_CLIENTS = 2
SERVE_STORES = ("t", "u", "v")
START_TIMEOUT_S = 60.0

#: A traced run alternates this many blocks of ops: untraced, traced, ...
TRACE_BLOCKS = 8

#: The six Table I reductions, on both scan stores where they are unary.
SCAN_OPS = (
    ("mean_a", "mean", "a"), ("mean_b", "mean", "b"),
    ("variance_a", "variance", "a"), ("variance_b", "variance", "b"),
    ("l2_norm_a", "l2_norm", "a"), ("l2_norm_b", "l2_norm", "b"),
    ("dot", "dot", "ab"), ("covariance", "covariance", "ab"),
    ("cosine_similarity", "cosine_similarity", "ab"),
)

INGEST_OPS = (("mean", "mean", "h"), ("l2_norm", "l2_norm", "h"))

#: The serving mix: overlapping dashboard statistics over stores t, u, v.
SERVE_MIX = (
    (("mean_t", "mean", "t"), ("variance_t", "variance", "t"),
     ("l2_norm_t", "l2_norm", "t")),
    (("mean_u", "mean", "u"), ("dot_tu", "dot", "tu"),
     ("cosine_tu", "cosine_similarity", "tu")),
    (("covariance_uv", "covariance", "uv"), ("mean_v", "mean", "v")),
    (("l2_norm_v", "l2_norm", "v"), ("variance_u", "variance", "u"),
     ("mean_t", "mean", "t")),
)


# ---------------------------------------------------------------- inputs
def random_walk(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """A 2-D float32 random-walk field (steps summed along both axes)."""
    steps = rng.standard_normal(shape)
    return (np.cumsum(np.cumsum(steps, axis=0), axis=1) * 0.01).astype(np.float32)


def correlated_pair(rng, shape) -> tuple[np.ndarray, np.ndarray]:
    """Two fields where the second shares the first's walk, so covariance and
    cosine similarity are far from zero and their relative errors meaningful."""
    first = random_walk(rng, shape)
    return first, (first + random_walk(rng, shape)).astype(np.float32)


def reference_value(op: str, arrays: list[np.ndarray]) -> float:
    """``op`` in float64 numpy on the original (uncompressed) arrays."""
    x = arrays[0].astype(np.float64)
    if op == "mean":
        return float(x.mean())
    if op == "variance":
        return float(x.var())
    if op == "l2_norm":
        return float(np.sqrt(np.sum(x * x)))
    y = arrays[1].astype(np.float64)
    if op == "dot":
        return float(np.sum(x * y))
    if op == "covariance":
        return float(np.mean((x - x.mean()) * (y - y.mean())))
    if op == "cosine_similarity":
        return float(np.sum(x * y) / np.sqrt(np.sum(x * x) * np.sum(y * y)))
    raise ValueError(f"no reference for {op!r}")


def exact_values(ops, arrays: dict) -> dict:
    return {name: reference_value(op, [arrays[letter] for letter in operands])
            for name, op, operands in ops}


def build_request(ops, resolve) -> dict:
    """``{name: expr.<op>(sources...)}`` with each operand letter resolved."""
    from repro.engine import expr

    return {name: getattr(expr, op)(*(expr.source(resolve(letter))
                                      for letter in operands))
            for name, op, operands in ops}


def max_relative_error(values: dict, exact: dict) -> float:
    return max(abs(values[name] - exact[name]) / abs(exact[name]) for name in exact)


def fingerprint(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def settings():
    from repro import CompressionSettings

    return CompressionSettings(block_shape=(4, 4), float_format="float32",
                               index_dtype="int16")


def compress_stores(arrays: dict, directory: Path) -> dict:
    """Compress each array to ``directory/<name>.pblzc``; returns the paths."""
    from repro import ChunkedCompressor

    directory.mkdir(parents=True)
    paths = {}
    for name, array in arrays.items():
        paths[name] = directory / f"{name}.pblzc"
        ChunkedCompressor(settings(), slab_rows=SLAB_ROWS).compress_to_store(
            array, paths[name]).close()
    return paths


def directory_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


# ---------------------------------------------------------------- measurement
class Window:
    """Latencies, failures and side readings of the timed ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.seconds = 0.0
        self.samples: list = []  # workload-specific per-op readings
        self.cache = Counter()  # serving cache counters over the window
        self._lock = threading.Lock()

    def record(self, latency: float, problem: str | None, sample=None) -> None:
        with self._lock:
            self.latencies.append(latency)
            if sample is not None:
                self.samples.append(sample)
            if problem is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(problem)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def tail(latencies: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the sample with exactly 10 samples beyond it.

    That is the highest percentile the run can estimate with at least ten
    samples past it; below 11 samples it falls back to the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def compare(values: dict, expected: dict) -> str | None:
    """A failure description when ``values`` is not ``==`` ``expected``."""
    if values != expected:
        wrong = sorted(name for name in expected if values.get(name) != expected[name])
        return f"values differ from the prefetch=0 references: {wrong}"
    return None


# ---------------------------------------------------------------- workloads
class Workload:
    """What every workload shares; subclasses set up, check and run ops.

    ``setup(directory, traced)`` builds the inputs and warms them,
    ``oracle(state)`` computes the ``prefetch=0`` references, and
    ``run(state, references, seconds, window)`` times checked ops.
    """

    def environment(self, root: Path):
        """Process-wide conditions for the whole run (none by default)."""
        return contextlib.nullcontext()

    def layers(self, window: Window) -> dict:
        """Per-layer figures the workload measures itself, outside the tracer."""
        return {}

    def peak_rss_mb(self, state: dict) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def remote_snapshot(self, state: dict) -> dict | None:
        """Tracer totals of another process the workload drives, if any."""
        return None

    def close(self, state: dict) -> None:
        pass


class ScanWorkload(Workload):
    """``engine.evaluate`` of the Table I reductions over two chunked stores."""

    def __init__(self, seed: int, smoke: bool, cold: bool):
        self.cold = cold
        rng = np.random.default_rng(seed)
        self.arrays = dict(zip("ab", correlated_pair(rng, SIZES["scan_shape"][smoke])))
        self.exact = exact_values(SCAN_OPS, self.arrays)
        self.inputs = fingerprint(*self.arrays.values())

    @contextlib.contextmanager
    def environment(self, root: Path):
        """Scan-cold delays every chunk-record read under ``root`` by 0.3 ms."""
        if not self.cold:
            yield
            return
        from repro.reliability import faults
        from repro.reliability.faults import FaultRule

        with faults.inject(FaultRule("latency", path=str(root),
                                     delay_seconds=COLD_READ_DELAY_S,
                                     times=10 ** 12)):
            yield

    def setup(self, directory: Path, traced: bool = False) -> dict:
        from repro import CompressedStore, engine

        stores = {name: CompressedStore(path)
                  for name, path in compress_stores(self.arrays, directory).items()}
        state = {"stores": stores, "request": build_request(SCAN_OPS, stores.get)}
        engine.evaluate(state["request"])  # warm the page cache and first calls
        return state

    def oracle(self, state: dict) -> dict:
        from repro import engine

        return engine.evaluate(state["request"], prefetch=0)

    def run(self, state: dict, references: dict, seconds: float,
            window: Window) -> None:
        """Evaluate until ``seconds`` pass, checking values and work counts."""
        from repro import engine

        stores = list(state["stores"].values())
        n_chunks = stores[0].n_chunks
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            before = [(s.preads, s.chunks_read, s.chunks_prefetched) for s in stores]
            began = time.perf_counter()
            try:
                values = engine.evaluate(state["request"])
            except Exception as exc:  # noqa: BLE001 - a failed op is a measurement
                window.record(time.perf_counter() - began, repr(exc))
                continue
            latency = time.perf_counter() - began
            problem = compare(values, references)
            preads = 0
            for store, (p0, r0, f0) in zip(stores, before):
                read, fetched = store.chunks_read - r0, store.chunks_prefetched - f0
                preads += store.preads - p0
                if read != 2 * n_chunks:
                    problem = problem or f"decoded {read} chunks, not 2 x {n_chunks}"
                elif read != fetched:
                    problem = problem or (f"chunks_read {read} != chunks_prefetched "
                                          f"{fetched} after a completed sweep")
            expected = state.setdefault("preads_per_op", preads)
            if preads != expected:
                problem = problem or f"preads per op {preads} != {expected}"
            window.record(latency, problem)
        window.seconds += time.perf_counter() - start

    def compression_ratio(self, state: dict) -> float:
        raw = sum(array.nbytes for array in self.arrays.values())
        return raw / sum(directory_bytes(s.path) for s in state["stores"].values())

    def max_rel_error(self, references: dict) -> float:
        return max_relative_error(references, self.exact)

    def close(self, state: dict) -> None:
        for store in state["stores"].values():
            store.close()


class IngestWorkload(Workload):
    """Append a slab to a sharded store, then answer mean/l2_norm on a fresh open.

    One cycle is a fixed number of appends onto a freshly initialised store,
    so op cost (which grows with the shard count) repeats cycle after cycle;
    a run always measures whole cycles.
    """

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        rows, columns = SIZES["ingest_history"][smoke]
        appends = SIZES["ingest_appends"][smoke]
        field = random_walk(rng, (rows + appends * INGEST_SLAB_ROWS, columns))
        ends = [rows + (k + 1) * INGEST_SLAB_ROWS for k in range(appends)]
        self.history = field[:rows]
        self.slabs = [field[end - INGEST_SLAB_ROWS: end] for end in ends]
        self.exact = [exact_values(INGEST_OPS, {"h": field[:end]}) for end in ends]
        self.inputs = fingerprint(field)
        self.raw_bytes = field.nbytes

    def _init(self, directory: Path) -> None:
        from repro.streaming import init_sharded_store

        init_sharded_store(directory, self.history, settings(),
                           slab_rows=SLAB_ROWS).close()

    def setup(self, directory: Path, traced: bool = False) -> dict:
        from repro import engine
        from repro.streaming import ShardedStore

        self._init(directory)
        with ShardedStore(directory) as store:
            engine.evaluate(build_request(INGEST_OPS, lambda _: store))
        return {"directory": directory, "cycles": 0}

    def oracle(self, state: dict) -> list[dict]:
        """Replay one cycle in a throwaway copy, sweeping every chunk each time."""
        from repro import engine
        from repro.streaming import ShardedStore, append_shard

        directory = state["directory"].with_name(state["directory"].name + "-oracle")
        self._init(directory)
        references = []
        for slab in self.slabs:
            append_shard(directory, slab, slab_rows=SLAB_ROWS).close()
            with ShardedStore(directory, use_partials=False) as store:
                references.append(engine.evaluate(
                    build_request(INGEST_OPS, lambda _: store), prefetch=0))
        shutil.rmtree(directory)
        return references

    def run(self, state: dict, references: list, seconds: float,
            window: Window) -> None:
        """Run whole append cycles until ``seconds`` of op time pass."""
        from repro import engine, streaming

        directory = state["directory"]
        elapsed = 0.0
        while elapsed < seconds:
            if state["cycles"]:
                shutil.rmtree(directory)
                self._init(directory)
            start = time.perf_counter()
            for slab, expected in zip(self.slabs, references):
                began = time.perf_counter()
                try:
                    streaming.append_shard(directory, slab, slab_rows=SLAB_ROWS).close()
                    with streaming.ShardedStore(directory) as store:
                        values = engine.evaluate(build_request(INGEST_OPS,
                                                               lambda _: store))
                        shards = store.n_shards
                except Exception as exc:  # noqa: BLE001 - a failed op is a measurement
                    window.record(time.perf_counter() - began, repr(exc))
                    continue
                window.record(time.perf_counter() - began, compare(values, expected),
                              shards)
            elapsed += time.perf_counter() - start
            state["cycles"] += 1
            state.setdefault("stored_bytes", directory_bytes(directory))
        window.seconds += elapsed

    def layers(self, window: Window) -> dict:
        return {"sharded.shards": statistics.fmean(window.samples)} if window.samples else {}

    def compression_ratio(self, state: dict) -> float:
        return self.raw_bytes / state["stored_bytes"]

    def max_rel_error(self, references: list) -> float:
        return max(max_relative_error(values, exact)
                   for values, exact in zip(references, self.exact))


class ServeWorkload(Workload):
    """A closed loop of 2 clients against ``repro serve`` in its own process."""

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        shape = SIZES["serve_shape"][smoke]
        t, u = correlated_pair(rng, shape)
        v = (u + random_walk(rng, shape)).astype(np.float32)
        self.arrays = dict(zip(SERVE_STORES, (t, u, v)))
        self.exact = [exact_values(ops, self.arrays) for ops in SERVE_MIX]
        self.inputs = fingerprint(t, u, v)

    # -------------------------------------------------------------- server process
    def _start_server(self, directory: Path, paths: dict, traced: bool) -> dict:
        """Start ``repro serve`` (or its traced launcher) on an ephemeral port."""
        catalog = [f"{name}={path}" for name, path in paths.items()]
        snapshot = directory / "server-trace.json" if traced else None
        if traced:
            command = [sys.executable, str(HERE / "traced_server.py"), str(snapshot)]
        else:
            command = [sys.executable, "-m", "repro"]
        command += ["serve", *catalog, "--port", "0"]
        log = directory / "server.log"
        stderr = open(log, "wb")
        process = subprocess.Popen(
            command, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE if traced else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=stderr)
        server = {"process": process, "stderr": stderr, "log": log,
                  "snapshot": snapshot}
        try:
            address = self._read_line(server).split(" on ", 1)[1].split()[0]
        except Exception:
            self._stop_server(server)
            raise
        host, port = address.rsplit(":", 1)
        server["address"] = (host, int(port))
        return server

    def _read_line(self, server: dict) -> str:
        """One line of the server's stdout, failing after START_TIMEOUT_S."""
        stream = server["process"].stdout
        with selectors.DefaultSelector() as selector:
            selector.register(stream, selectors.EVENT_READ)
            if not selector.select(START_TIMEOUT_S):
                raise RuntimeError("the server did not answer in time")
        line = stream.readline().decode()
        if not line:
            log = server["log"].read_text(errors="replace")[-2000:]
            raise RuntimeError(f"the server exited early:\n{log}")
        return line

    def _stop_server(self, server: dict) -> float:
        """SIGINT the server and wait for it; returns its peak RSS in MB."""
        process = server["process"]
        peak = 0.0
        with contextlib.suppress(OSError):
            for line in Path(f"/proc/{process.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = int(line.split()[1]) / 1024.0
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for stream in (process.stdout, process.stdin, server["stderr"]):
            if stream is not None:
                stream.close()
        return peak

    # -------------------------------------------------------------- workload
    def setup(self, directory: Path, traced: bool = False) -> dict:
        from repro.serving import QueryClient

        paths = compress_stores(self.arrays, directory)
        state = {"paths": paths,
                 "server": self._start_server(directory, paths, traced)}
        try:
            with QueryClient(*state["server"]["address"]) as client:
                for ops in SERVE_MIX:  # warm: open the stores, fill the cache
                    client.evaluate(build_request(ops, str))
        except Exception:
            self.close(state)
            raise
        return state

    def oracle(self, state: dict) -> list[dict]:
        from repro import CompressedStore, engine

        stores = {name: CompressedStore(path) for name, path in state["paths"].items()}
        try:
            return [engine.evaluate(build_request(ops, stores.get), prefetch=0)
                    for ops in SERVE_MIX]
        finally:
            for store in stores.values():
                store.close()

    def run(self, state: dict, references: list, seconds: float,
            window: Window) -> None:
        """Closed loop in rounds: each round, every client sends one request
        and waits for its reply, then waits for the other clients.

        The rounds model a dashboard refresh that fires its panels' queries
        together.  Free-running clients are bistable against the serving
        tick: they lock in step (one batch of 2) or out of step (batches of
        1, each waiting out the other's), and the median op jumps between
        the two from run to run.
        """
        from repro.serving import QueryClient

        address = state["server"]["address"]
        requests = [build_request(ops, str) for ops in SERVE_MIX]
        with QueryClient(*address) as probe:
            before = probe.stats()["cache"]
        rounds = {"start": None, "go": True}
        failures = []

        def next_round() -> None:
            """Barrier action: decide once per round whether the run goes on."""
            now = time.perf_counter()
            if rounds["start"] is None:
                rounds["start"] = now
            rounds["go"] = now - rounds["start"] < seconds

        barrier = threading.Barrier(SERVE_CLIENTS, action=next_round,
                                    timeout=START_TIMEOUT_S)

        def client_loop(position: int) -> None:
            try:
                with QueryClient(*address) as client:
                    while True:
                        barrier.wait()
                        if not rounds["go"]:
                            return
                        index = position % len(requests)
                        position += 1
                        began = time.perf_counter()
                        try:
                            response = client.evaluate_full(requests[index])
                        except Exception as exc:  # noqa: BLE001 - a failed op is measured
                            window.record(time.perf_counter() - began, repr(exc))
                            continue
                        latency = time.perf_counter() - began
                        batch = response["batch"]
                        window.record(latency,
                                      compare(response["results"], references[index]),
                                      (latency, response["seconds"], batch["seconds"],
                                       batch["requests"], batch["plans"]))
            except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
                barrier.abort()
                failures.append(exc)

        threads = [threading.Thread(target=client_loop,
                                    args=(k * len(requests) // SERVE_CLIENTS,))
                   for k in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        window.seconds += time.perf_counter() - rounds["start"]
        with QueryClient(*address) as probe:
            after = probe.stats()["cache"]
        for name in ("hits", "misses", "evictions"):
            window.cache[name] += after[name] - before[name]
        for name in ("prefetch_used", "prefetch_issued"):  # since the server started
            window.cache[name] = after[name]

    def layers(self, window: Window) -> dict:
        """Serving figures from the responses, cache figures from ``stats``."""
        samples, cache = window.samples, window.cache
        layers = {}
        if samples:
            layers = {
                "serving.queue_wait.ms": statistics.fmean(s[1] - s[2] for s in samples) * 1e3,
                "serving.batch_exec.ms": statistics.fmean(s[2] for s in samples) * 1e3,
                "serving.batch_size": statistics.fmean(s[3] for s in samples),
                "serving.plans_per_request": statistics.fmean(s[4] / s[3] for s in samples),
                "serving.wire.ms": statistics.fmean(s[0] - s[1] for s in samples) * 1e3,
                "cache.evictions": cache["evictions"] / len(samples),
            }
        lookups = cache["hits"] + cache["misses"]
        if lookups:
            layers["cache.hit_rate"] = cache["hits"] / lookups
        if cache["prefetch_issued"]:
            layers["cache.prefetch_useful_ratio"] = (cache["prefetch_used"]
                                                     / cache["prefetch_issued"])
        return layers

    def compression_ratio(self, state: dict) -> float:
        raw = sum(array.nbytes for array in self.arrays.values())
        return raw / sum(directory_bytes(path) for path in state["paths"].values())

    def max_rel_error(self, references: list) -> float:
        return max(max_relative_error(values, exact)
                   for values, exact in zip(references, self.exact))

    def peak_rss_mb(self, state: dict) -> float:
        """The server's peak RSS; reading it stops the server."""
        if "peak_rss_mb" not in state:
            state["peak_rss_mb"] = self._stop_server(state["server"])
        return state["peak_rss_mb"]

    def remote_snapshot(self, state: dict) -> dict | None:
        """The traced server's cumulative totals (``None`` when untraced)."""
        server = state["server"]
        if server["snapshot"] is None:
            return None
        server["process"].stdin.write(b"snapshot\n")
        server["process"].stdin.flush()
        self._read_line(server)
        return json.loads(server["snapshot"].read_text())

    def close(self, state: dict) -> None:
        self.peak_rss_mb(state)


def make_workload(name: str, seed: int, smoke: bool):
    if name in ("scan-warm", "scan-cold"):
        return ScanWorkload(seed, smoke, cold=name == "scan-cold")
    if name == "ingest":
        return IngestWorkload(seed, smoke)
    return ServeWorkload(seed, smoke)


# ---------------------------------------------------------------- per-layer
def per_layer(window: dict, setup: dict, ops: int, workload_layers: dict,
              overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics and where each came from (``ops``, ``setup``, ``none``).

    ``window`` and ``setup`` are tracer totals over the traced ops and the
    traced set-up.  A per-call time comes from the ops when they call the
    layer, else from the set-up (e.g. compression on the scans); counts and
    ratios come from the ops only.  A layer the workload never calls reads 0.
    """
    values, sources = {}, {}
    for metric, (span, scale, use_self) in SPAN_METRICS.items():
        values[metric], sources[metric] = 0.0, "none"
        for phase, totals in (("ops", window), ("setup", setup)):
            calls, total, own = totals["spans"].get(span, (0, 0, 0))
            if calls:
                values[metric] = (own if use_self else total) / calls / scale
                sources[metric] = phase
                break
    for metric, (section, name) in COUNT_METRICS.items():
        total = window[section].get(name, 0)
        values[metric] = (total[0] if isinstance(total, list) else total) / ops
        sources[metric] = "ops"
    for metric, ((top_section, top), (bottom_section, bottom)) in RATIO_METRICS.items():
        denominator = window[bottom_section].get(bottom, 0)
        values[metric] = (window[top_section].get(top, 0) / denominator
                          if denominator else 0.0)
        sources[metric] = "ops" if denominator else "none"
    # the readahead wait is the self time of the readahead iterator's next()
    chunks = window["counts"].get("prefetch.chunks", 0)
    values["prefetch.wait.us"] = (window["spans"]["prefetch.next"][2] / chunks / 1e3
                                  if chunks else 0.0)
    sources["prefetch.wait.us"] = "ops" if chunks else "none"
    for metric in PER_LAYER:
        if metric not in values:
            values[metric] = workload_layers.get(metric, 0.0)
            sources[metric] = "ops" if metric in workload_layers else "none"
    values["trace.overhead_ratio"] = overhead
    sources["trace.overhead_ratio"] = "ops"
    return values, sources


# ---------------------------------------------------------------- command line
def machine() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "numba": importlib.util.find_spec("numba") is not None}


def traced_blocks(workload, states: list, references, seconds: float,
                  root: Path) -> tuple[Window, Window, dict, dict]:
    """Set up a traced copy, then alternate op blocks: untraced, traced, ...

    Alternating blocks expose both copies to the same machine conditions, so
    the traced/untraced latency ratio measures the tracing overhead.  Returns
    the two windows and the tracer totals of the traced set-up and ops.
    """
    from tracing import EMPTY, Tracer, combine, difference

    tracer = Tracer()
    with tracer:
        states.append(workload.setup(root / "traced", traced=True))
        again = workload.oracle(states[-1])
        local = tracer.snapshot()
        remote = workload.remote_snapshot(states[-1]) or EMPTY
    untraced, traced = Window(), Window()
    if again != references:
        traced.record(0.0, "the traced set-up computed different references")
    for block in range(TRACE_BLOCKS):
        if block % 2 == 0:
            workload.run(states[0], references, seconds / TRACE_BLOCKS, untraced)
            continue
        with tracer:
            workload.run(states[-1], references, seconds / TRACE_BLOCKS, traced)
    ops = combine(difference(tracer.snapshot(), local),
                  difference(workload.remote_snapshot(states[-1]) or EMPTY, remote))
    return untraced, traced, combine(local, remote), ops


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            root: Path) -> tuple[dict, dict]:
    """Run one workload; returns ``(result line, report)``."""
    workload = make_workload(name, seed, smoke)
    report = {"workload": name, "seed": seed, "inputs": workload.inputs,
              "environment": machine()}
    states: list = []
    try:
        with workload.environment(root):
            setup_times = []
            for repeat in range(SIZES["setup_repeats"][smoke]):
                if states:
                    workload.close(states.pop())
                began = time.perf_counter()
                states.append(workload.setup(root / f"setup-{repeat}"))
                setup_times.append(time.perf_counter() - began)
            references = workload.oracle(states[0])
            if trace:
                untraced, window, setup_totals, ops_totals = traced_blocks(
                    workload, states, references, seconds, root)
                windows = [untraced, window]
            else:
                window = Window()
                workload.run(states[0], references, seconds, window)
                windows = [window]
                ratio = workload.compression_ratio(states[0])
                rss = workload.peak_rss_mb(states[0])
    finally:
        for state in states:
            workload.close(state)
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    errors = [error for w in windows for error in w.errors]
    report["setup_runs_s"] = setup_times
    if errors:
        report["errors"] = errors
    if trace:
        overhead = (statistics.median(window.latencies)
                    / statistics.median(untraced.latencies))
        measured, report["per_layer_source"] = per_layer(
            ops_totals, setup_totals, max(1, window.attempted),
            workload.layers(window), overhead)
        report["traced_ops"] = window.attempted
        units = PER_LAYER
    else:
        value, percentile = tail(window.latencies)
        measured = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": statistics.median(window.latencies) * 1e3,
            "op_tail_ms": value * 1e3,
            "ops_per_s": window.attempted / window.seconds,
            "compression_ratio": ratio,
            "peak_rss_mb": rss,
        }
        report["op_tail"] = {"percentile": percentile, "samples": window.attempted}
        units = END_TO_END
    measured["failed_ratio"] = failed / attempted if attempted else 1.0
    measured["max_rel_error"] = workload.max_rel_error(references)
    report["metrics"] = {metric: {"value": measured[metric], "unit": unit}
                         for metric, unit in {**units, **UNBOUNDED}.items()
                         if metric in measured}
    metrics = {metric: report["metrics"][metric] for metric in units}
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    root = WORK / f"{os.getpid()}-{args.workload}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        result, report = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.smoke, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for metric, entry in report["metrics"].items():
        print(f"{args.workload} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
