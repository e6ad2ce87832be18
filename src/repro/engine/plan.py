"""The fusing planner: many compressed-domain reductions, one sweep per pass.

:func:`plan` compiles a set of reduction expressions (:mod:`repro.engine.expr`)
into a :class:`Plan` whose execution decodes every chunk of every source
**once per pass**, however many reductions consume it.  Planning happens in
three steps:

1. **Collect** — each requested reduction is decomposed into the fold *terms*
   it needs, straight from the declarative :data:`repro.core.ops.folds.FOLD_SPECS`:
   ``mean(x)`` needs ``dc(x)``; ``dot(x, y)`` needs ``product(x, y)``;
   ``cosine_similarity(x, y)`` needs ``product(x, y)``, ``square(x)`` and
   ``square(y)``; ``variance(x)`` needs ``dc(x)`` in pass 1 and
   ``centered_square(x)`` in pass 2; ``covariance(x, y)`` needs ``dc`` of both
   operands in pass 1 and ``centered_product(x, y)`` in pass 2.
2. **Deduplicate** — terms are keyed by ``(fold name, operand nodes)``, so the
   dot and the cosine similarity of the same pair share one product sum, the
   l2 norm and the cosine share one square sum, and the mean, variance and
   covariance of the same source share one DC sum (variance's pass-1 mean *is*
   covariance's).  Structural nodes (``add``/``scale``/…) deduplicate the same
   way through their structural keys.
3. **Schedule** — pass 1 holds every uncentered term, pass 2 (present exactly
   when a two-pass reduction was requested) holds the centered terms, whose
   extra arguments (global DC means) are finalized from pass 1's ``dc`` states.
   Within a pass, terms are grouped by source so each aligned chunk tuple is
   decoded once and feeds every partial that wants it; decoded chunks shared by
   two or more coefficient-touching folds get a primed ``coefficients_cache``
   (one dense materialisation, bitwise-identical copies per fold).

**Pass-count guarantee**: ``plan.n_passes`` is 1 when no requested reduction is
two-pass, else 2; a source is decoded only in the passes whose terms reference
it (``plan.decode_passes``), at exactly one decode per chunk per pass.

**Bit-identity guarantee**: every fused scalar equals the corresponding
sequential :mod:`repro.streaming.ops` call bit for bit — the per-block partial
sums are computed by the same partials on the same chunk bits, and
:func:`repro.core.ops.folds.total` finalizes with the correctly rounded sum
(``math.fsum``'s result) of the same per-chunk vectors.  Each term's total is
computed once per execution, however many outputs share the term.

**Compiled execution**: ``Plan.execute(backend=...)`` routes lowered pass
groups through one compiled fused-pass kernel per plan signature
(:mod:`repro.engine.compile`) — ``gemm`` vectorizes the whole step over the
flattened kept-coefficient matrices, ``numba`` JIT-compiles a generated
per-block loop.  The ``reference`` default keeps the interpreted, bit-exact
path above; compiled means stay bit-identical and summing folds agree within
the backend's ``fused_fold_tolerance`` (see ``docs/engine.md``).

Executor fan-out: with an ``executor`` (any :class:`repro.parallel.BlockExecutor`)
and store-only sources, each pass dispatches one *batched multi-partial job*
per chunk through :meth:`BlockExecutor.map_jobs` — the worker decodes the
chunk tuple once and returns every fused partial's state — and states combine
in chunk order, keeping results identical to the serial sweep.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from functools import lru_cache
from typing import Mapping

from ..core import ops as core_ops
from ..core.ops import folds
from ..kernels import DEFAULT_BACKEND
from ..reliability import faults
from ..streaming.sharded import ShardedStore, open_store
from ..streaming.sources import (STORE_TYPES, aligned_chunks, check_stores,
                                 require_pyblaz)
from ..streaming.store import CompressedStore
from . import compile as plan_compile
from .expr import ArrayExpr, Expr, Reduction, Source, TWO_PASS_OPS

__all__ = ["Plan", "PlanPass", "PassGroup", "plan", "evaluate"]


# ------------------------------------------------------------------ chunk programs
def _node_inputs(entry: tuple) -> tuple:
    """The node slots one program entry reads (its structural operands)."""
    kind = entry[0]
    if kind == "source":
        return ()
    if kind in ("add", "subtract"):
        return entry[1:3]
    return (entry[1],)  # scale, negate


def _needed_slots(program: tuple, terms: tuple) -> set[int]:
    """Transitive closure of node slots the given terms read."""
    needed: set[int] = set()
    stack = [slot for _, slots in terms for slot in slots]
    while stack:
        slot = stack.pop()
        if slot in needed:
            continue
        needed.add(slot)
        stack.extend(_node_inputs(program[slot]))
    return needed


@lru_cache(maxsize=256)
def _step_layout(program: tuple, terms: tuple) -> tuple[tuple, tuple]:
    """What every chunk step of ``terms`` does besides the partials, derived once.

    Returns the node slots the step reads, in slot (topological) order, and
    the slots feeding two or more coefficient-touching folds — the chunks
    worth a primed ``coefficients_cache``.
    """
    uses: Counter = Counter()
    for name, slots in terms:
        if folds.FOLD_SPECS[name].touches_coefficients:
            uses.update(slots)
    return (tuple(sorted(_needed_slots(program, terms))),
            tuple(slot for slot, count in uses.items() if count >= 2))


def _evaluate_chunk_terms(program: tuple, values: dict, terms: tuple,
                          extras: tuple) -> list[folds.FoldState]:
    """One fused chunk step: structural nodes, shared caches, every term's partial.

    ``values`` arrives holding the decoded source chunks for this step (slot →
    :class:`CompressedArray`); structural slots are filled by the in-memory
    :mod:`repro.core.ops` operations in slot (topological) order.  Chunks that
    feed two or more coefficient-touching folds get a primed
    ``coefficients_cache`` so the dense coefficient array is materialised once
    and copied per fold (bitwise identical — see
    :func:`repro.core.ops.coefficients.specified_coefficients`).
    """
    structural, shared = _step_layout(program, terms)
    for slot in structural:
        if slot in values:
            continue
        entry = program[slot]
        kind = entry[0]
        if kind == "add":
            values[slot] = core_ops.add(values[entry[1]], values[entry[2]])
        elif kind == "subtract":
            values[slot] = core_ops.subtract(values[entry[1]], values[entry[2]])
        elif kind == "scale":
            values[slot] = core_ops.multiply_scalar(values[entry[1]], entry[2])
        elif kind == "negate":
            values[slot] = core_ops.negate(values[entry[1]])
        else:  # pragma: no cover - compilation always seeds source slots
            raise ValueError(f"source chunk for slot {slot} was not decoded")

    primed = []
    for slot in shared:
        chunk = values[slot]
        chunk.coefficients_cache = chunk.specified_coefficients()
        primed.append(chunk)

    try:
        states = []
        for (name, slots), extra in zip(terms, extras):
            partial = folds.FOLD_SPECS[name].partial
            states.append(partial(*(values[slot] for slot in slots), *extra))
    finally:
        # the cache is strictly step-scoped: chunk objects may be caller-owned
        # (sequence sources) and must neither retain dense coefficients nor
        # serve stale bits to later operations if mutated
        for chunk in primed:
            del chunk.coefficients_cache
    return states


def _plan_pass_job(program: tuple, paths: tuple, terms: tuple, extras: tuple,
                   index: int,
                   backend: str = DEFAULT_BACKEND) -> list[folds.FoldState]:
    """Picklable batched multi-partial job: one chunk decode feeds every fused fold.

    Workers (possibly in other processes) reopen each needed store by path,
    decode only chunk ``index`` of each — one decode per source per job — and
    return the full list of fold partial states for this chunk, orders of
    magnitude smaller than the chunk itself.  Under a non-default ``backend``
    the step runs through the compiled fused-pass kernel when the group
    lowers (cached per worker process — one compile serves every job with
    this plan signature), interpreting otherwise.
    """
    values = {}
    for slot, path in paths:
        with open_store(path) as store:
            values[slot] = store.read_chunk(index)
    if backend != DEFAULT_BACKEND:
        slots = tuple(slot for slot, _ in paths)
        lowering = plan_compile.lower_terms(program, terms, slots)
        if lowering is not None:
            chunks = tuple(values[slot] for slot in slots)
            signature = plan_compile.signature_for(lowering, chunks[0].settings)
            if signature is not None:
                kernel, _ = plan_compile.get_pass_kernel(backend, signature)
                if kernel is not None:
                    try:
                        return plan_compile.run_compiled_step(kernel, lowering,
                                                              chunks, extras)
                    except Exception:
                        # a kernel runtime failure degrades this job to the
                        # interpreted path — the decoded chunks are untouched
                        pass
    return _evaluate_chunk_terms(program, values, terms, extras)


# ------------------------------------------------------------------ the plan
class PassGroup:
    """One aligned sweep within a pass: terms over one connected source set.

    Terms that share no source decode independently — fusing ``mean(a)`` with
    ``mean(b)`` must not force ``a`` and ``b`` into one lockstep iteration
    (they may be shaped or chunked differently).  The planner therefore
    partitions each pass's terms into connected components over their source
    sets; geometry checks (`check_stores`) and chunk alignment apply *within*
    a group only.
    """

    def __init__(self, terms: tuple, source_slots: tuple, source_indices: tuple):
        self.terms = terms
        self.source_slots = source_slots
        self.source_indices = source_indices

    def __repr__(self) -> str:
        names = ", ".join(f"{name}{slots}" for name, slots in self.terms)
        return f"PassGroup(sources={self.source_indices}, terms=[{names}])"


class PlanPass:
    """One scheduling pass: every term folded during it, grouped by source set.

    Attributes
    ----------
    index:
        1-based pass number (pass 2 exists only for two-pass reductions).
    terms:
        ``(fold name, operand slots)`` keys folded during this pass, in a
        deterministic collection order.
    groups:
        The :class:`PassGroup` sweeps — one aligned chunk iteration per
        connected source set; each group's sources are decoded exactly once
        per chunk during its sweep.
    source_slots:
        Node slots of every leaf source this pass decodes (union over groups,
        aligned with ``source_indices``).
    source_indices:
        Indices into :attr:`Plan.sources` of the sources this pass decodes.
    """

    def __init__(self, index: int, terms: tuple, groups: tuple):
        self.index = index
        self.terms = terms
        self.groups = groups
        self.source_slots = tuple(slot for group in groups
                                  for slot in group.source_slots)
        self.source_indices = tuple(source for group in groups
                                    for source in group.source_indices)

    def __repr__(self) -> str:
        names = ", ".join(f"{name}{slots}" for name, slots in self.terms)
        return f"PlanPass({self.index}, sources={self.source_indices}, terms=[{names}])"


class Plan:
    """A compiled, introspectable fusion of reduction expressions.

    Build with :func:`plan`; run with :meth:`execute`.  The plan is reusable —
    executing twice re-sweeps the sources (stores re-read from disk; plain
    chunk sequences re-iterated).

    Attributes
    ----------
    sources:
        The deduplicated leaf sources, in first-appearance order.
    passes:
        The scheduled :class:`PlanPass` sweeps (length = :attr:`n_passes`).
    default_backend:
        Kernel backend :meth:`execute` uses when called without ``backend=``
        (``None`` → resolve from source settings, else ``reference``).
    last_execution:
        After :meth:`execute`: a dict recording the resolved ``backend``, any
        ``fallback_reason`` (backend unavailable at resolve time, or a
        compiled kernel failing at runtime mid-sweep), per-mode group counts
        (``compiled_groups``/``interpreted_groups``/``incremental_groups`` —
        the last counts sweep groups answered entirely from a sharded store's
        persisted fold partials, decoding nothing), the number of
        ``runtime_fallbacks`` (compiled groups that degraded to the
        interpreter mid-run — the interpreted path resumed the same decoded
        chunks, so the scalars are still correct) and the JIT
        ``compile_seconds`` spent this run (0.0 on warm kernel-cache hits).
        ``None`` before the first execution.
    """

    def __init__(self, outputs: dict, program: tuple, sources: list,
                 passes: list[PlanPass], shape: str,
                 default_backend: str | None = None):
        self._outputs = outputs
        self._program = program
        self.sources = tuple(sources)
        self.passes = tuple(passes)
        self._shape = shape
        self.default_backend = default_backend
        self.last_execution: dict | None = None

    # -------------------------------------------------------------- introspection
    @property
    def n_passes(self) -> int:
        """Number of fused sweeps: 1, or 2 when any two-pass reduction is present."""
        return len(self.passes)

    @property
    def output_keys(self) -> tuple:
        """Keys of the requested outputs, in request order."""
        return tuple(self._outputs)

    @property
    def decode_passes(self) -> tuple[int, ...]:
        """Per source (aligned with :attr:`sources`): how many passes decode it."""
        counts = [0] * len(self.sources)
        for pass_ in self.passes:
            for source_index in pass_.source_indices:
                counts[source_index] += 1
        return tuple(counts)

    def describe(self) -> str:
        """Human-readable plan: backend, sources, per-pass fused terms, outputs.

        The backend line reflects the *executing* backend: what the last
        :meth:`execute` actually ran (including any availability fallback), or
        what the next default execution would resolve to before the first run.
        """
        executed = self.last_execution
        if executed is not None:
            backend = executed["backend"]
        else:
            backend, _ = plan_compile.resolve_backend(self.default_backend,
                                                      self.sources)
        lines = [f"plan: {self.n_passes} pass(es) over {len(self.sources)} source(s), "
                 f"{len(self._outputs)} output(s), backend={backend}"]
        for index, source in enumerate(self.sources):
            label = type(source).__name__
            if isinstance(source, STORE_TYPES):
                label = f"{type(source).__name__}({source.path})"
            lines.append(f"  source s{index}: {label}")
        for pass_ in self.passes:
            lines.append(f"  pass {pass_.index}: {len(pass_.terms)} term(s) in "
                         f"{len(pass_.groups)} group(s)")
            for group in pass_.groups:
                terms = ", ".join(f"{name}{slots}" for name, slots in group.terms)
                decoded = ", ".join(f"s{i}" for i in group.source_indices)
                lines.append(f"    decode [{decoded}] once per chunk; "
                             f"fold {terms}")
        for key, (op, slots, _) in self._outputs.items():
            lines.append(f"  output {key!r}: {op}{slots}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Plan(outputs={list(self._outputs)}, passes={self.n_passes}, "
                f"sources={len(self.sources)})")

    # -------------------------------------------------------------- validation
    def _validate_sources(self) -> None:
        """Upfront checks: pyblaz stores, per-group geometry, DC availability,
        re-iterability.

        Geometry (shape and chunking) must match only *within* a sweep group —
        unrelated reductions fuse across differently shaped or chunked sources.
        DC-requiring folds (``FoldSpec.requires_dc``) fail fast when a store
        source's pruning mask dropped the first coefficient, instead of deep in
        the first sweep.
        """
        for source in self.sources:
            if isinstance(source, STORE_TYPES):
                require_pyblaz(source)
        for pass_ in self.passes:
            for group in pass_.groups:
                check_stores([self.sources[index]
                              for index in group.source_indices])
            for name, slots in pass_.terms:
                if not folds.FOLD_SPECS[name].requires_dc:
                    continue
                for slot in sorted(_needed_slots(self._program, ((name, slots),))):
                    if self._program[slot][0] != "source":
                        continue
                    source = self.sources[self._program[slot][1]]
                    settings = (source.settings
                                if isinstance(source, STORE_TYPES) else None)
                    if settings is not None and not settings.first_coefficient_kept:
                        raise ValueError(
                            f"{name} requires the first coefficient of each "
                            "block to be unpruned"
                        )
        multi_pass = [index for index, count in enumerate(self.decode_passes)
                      if count >= 2]
        if not multi_pass:
            return
        two_pass_ops = sorted({op for op, _, _ in self._outputs.values()
                               if op in TWO_PASS_OPS})
        name = ", ".join(two_pass_ops) or "the plan"
        for index in multi_pass:
            source = self.sources[index]
            if not isinstance(source, STORE_TYPES) and iter(source) is source:
                raise ValueError(
                    f"{name} folds over its source twice (mean pass + centered "
                    "pass); pass a CompressedStore or a re-iterable sequence of "
                    "chunks, not a single-shot generator"
                )

    # -------------------------------------------------------------- execution
    def _extras(self, terms: tuple, means: Mapping[int, float]) -> tuple:
        """Resolve each term's extra arguments (DC means for centered folds)."""
        resolved = []
        for name, slots in terms:
            if folds.FOLD_SPECS[name].centered:
                resolved.append(tuple(means[slot] for slot in slots))
            else:
                resolved.append(())
        return tuple(resolved)

    def _serve_group_from_partials(self, group: PassGroup, extras: tuple
                                   ) -> "dict | None":
        """Answer one sweep group from persisted shard partials, or ``None``.

        A group is servable — no chunk is decoded at all — when **every** term
        is an uncentered leaf-source fold a :class:`ShardedStore` persists:
        ``dc(s)``, ``square(s)``, or ``product(s, s)`` with both operands the
        same slot (per-block arithmetic identical to ``square``, served from
        the same vectors relabeled).  The slot must map straight to a sharded
        source with fresh partials (:meth:`ShardedStore.fold_state` applies
        the staleness checks); any structural node (``scale``/``add``/...),
        non-sharded source, centered fold, or stale shard makes the whole
        group fall back to the ordinary sweep.  Served states are
        bit-identical to swept ones: the persisted vectors are the sweep's own
        per-chunk partials, concatenated in chunk order, so the exact sum sees the
        same float64 values in the same order.
        """
        states: dict = {}
        for term, extra in zip(group.terms, extras):
            if extra:
                return None
            name, slots = term
            if name == "dc" and len(slots) == 1:
                fold, rename = "dc", None
            elif name == "square" and len(slots) == 1:
                fold, rename = "square", None
            elif name == "product" and len(slots) == 2 and slots[0] == slots[1]:
                fold, rename = "square", "product"
            else:
                return None
            node = self._program[slots[0]]
            if node[0] != "source":
                return None
            source = self.sources[node[1]]
            if not isinstance(source, ShardedStore):
                return None
            state = source.fold_state(fold, rename=rename)
            if state is None:
                return None
            states[term] = state
        return states

    def _run_pass(self, pass_: PlanPass, extras: tuple, executor,
                  backend: str, run_stats: dict,
                  prefetch: int | None = None) -> list:
        """Execute one pass; return the combined state per term (pass order).

        Each :class:`PassGroup` runs its own aligned sweep over its connected
        source set.  Serial (``executor=None`` or non-store sources): chunk
        tuples stream through one at a time, so peak memory is one chunk per
        decoded source plus any structural intermediates.  With an executor
        and store-only group sources, one batched multi-partial job per chunk
        fans out via ``map_jobs`` and states combine in chunk order —
        deterministic and bit-identical to the serial sweep because the
        combine is exact.

        Under a non-default ``backend``, each group that *lowers*
        (:func:`repro.engine.compile.lower_terms` — all-leaf-source terms
        only) runs its chunk steps through one compiled fused-pass kernel,
        fetched once per group from the signature-keyed cache; groups that do
        not lower, and backends that decline, interpret exactly as the
        default path.  ``run_stats`` accumulates the per-group mode counts
        and JIT compile seconds reported via :attr:`last_execution`.

        ``prefetch`` passes through to the serial path's aligned iterator
        (:func:`repro.streaming.sources.aligned_chunks`): store sources read
        ahead through the pipelined prefetcher, and the time this sweep still
        spends *blocked* waiting on chunks accumulates into
        ``run_stats["io_seconds"]`` — with readahead working, that approaches
        zero even though the same records were read.
        """
        extra_by_term = dict(zip(pass_.terms, extras))
        state_by_term: dict = {}
        for group in pass_.groups:
            group_extras = tuple(extra_by_term[term] for term in group.terms)
            served = self._serve_group_from_partials(group, group_extras)
            if served is not None:
                state_by_term.update(served)
                run_stats["incremental_groups"] += 1
                continue
            source_items = [(slot, self.sources[src_index])
                            for slot, src_index in zip(group.source_slots,
                                                       group.source_indices)]
            lowering = None
            if backend != DEFAULT_BACKEND:
                lowering = plan_compile.lower_terms(
                    self._program, group.terms, group.source_slots
                )
            pooled = executor is not None and all(
                isinstance(source, STORE_TYPES) for _, source in source_items
            )
            if pooled:
                # resolve the kernel parent-side from the stores' settings so
                # the group's mode is known (and, for thread pools, the kernel
                # is already warm); process workers compile their own copy via
                # the same per-process cache, once per plan signature
                job_backend = DEFAULT_BACKEND
                if lowering is not None:
                    signature = plan_compile.signature_for(
                        lowering, source_items[0][1].settings
                    )
                    if signature is not None:
                        kernel, seconds = plan_compile.get_pass_kernel(
                            backend, signature
                        )
                        run_stats["compile_seconds"] += seconds
                        if kernel is not None:
                            job_backend = backend
                run_stats["compiled_groups" if job_backend != DEFAULT_BACKEND
                          else "interpreted_groups"] += 1
                paths = tuple((slot, str(source.path))
                              for slot, source in source_items)
                n_chunks = source_items[0][1].n_chunks
                jobs = [(self._program, paths, group.terms, group_extras,
                         index, job_backend)
                        for index in range(n_chunks)]
                per_chunk = executor.map_jobs(_plan_pass_job, jobs)
                collected = [list(states) for states in zip(*per_chunk)]
                if not collected:
                    collected = [[] for _ in group.terms]
            else:
                collected = [[] for _ in group.terms]
                sources = tuple(source for _, source in source_items)
                slots = tuple(slot for slot, _ in source_items)
                kernel = None
                kernel_resolved = False
                iterator = aligned_chunks(sources, prefetch=prefetch)
                sentinel = object()
                try:
                    while True:
                        fetch_start = time.perf_counter()
                        chunks = next(iterator, sentinel)
                        run_stats["io_seconds"] += time.perf_counter() - fetch_start
                        if chunks is sentinel:
                            break
                        if lowering is not None and not kernel_resolved:
                            kernel_resolved = True
                            signature = plan_compile.signature_for(
                                lowering, chunks[0].settings
                            )
                            if signature is not None:
                                kernel, seconds = plan_compile.get_pass_kernel(
                                    backend, signature
                                )
                                run_stats["compile_seconds"] += seconds
                        states = None
                        if kernel is not None:
                            try:
                                fault = faults.active_plan()
                                if fault is not None:
                                    fault.check_compiled_kernel()
                                states = plan_compile.run_compiled_step(
                                    kernel, lowering, chunks, group_extras
                                )
                            except Exception as exc:
                                # degrade, don't fail: the decoded chunks are
                                # untouched, so the interpreted path below
                                # resumes this chunk and finishes the group
                                # bit-exactly
                                kernel = None
                                run_stats["runtime_fallbacks"] += 1
                                run_stats["fallback_reason"] = (
                                    f"compiled {backend} kernel failed at "
                                    f"runtime ({exc}); interpreting the rest "
                                    "of this group"
                                )
                        if states is None:
                            values = dict(zip(slots, chunks))
                            chunks = None  # the step owns the chunks now
                            states = _evaluate_chunk_terms(self._program, values,
                                                           group.terms,
                                                           group_extras)
                            values = None  # drop coefficients before the next decode
                        else:
                            chunks = None
                        for bucket, state in zip(collected, states):
                            bucket.append(state)
                finally:
                    # closing the aligned iterator shuts any prefetch pools
                    # down promptly, even when a fold error aborts the sweep
                    iterator.close()
                run_stats["compiled_groups" if kernel is not None
                          else "interpreted_groups"] += 1
            for term, bucket in zip(group.terms, collected):
                combined = folds.combine_all(bucket)
                if combined is None:
                    raise ValueError("cannot reduce an empty chunk stream")
                state_by_term[term] = combined
        return [state_by_term[term] for term in pass_.terms]

    def execute(self, *, executor=None, backend=None, prefetch=None):
        """Run every pass and finalize the requested scalars.

        Returns a dict keyed like the request, a list for a sequence request,
        or the bare scalar for a single-expression request.

        ``prefetch`` controls the pipelined chunk readahead on serial sweeps
        (``docs/performance.md``): ``None`` auto-enables it, ``0`` keeps the
        strictly serial read→decode loop, a positive integer sets the
        in-flight span window.  Results are bit-identical either way.
        :attr:`last_execution` reports the resolved ``prefetch_depth`` and
        ``io_seconds`` — the wall time sweeps spent blocked waiting on chunk
        fetches.

        ``backend`` selects the kernel backend executing the fused chunk
        steps (registry names — see ``repro backends``): the default
        ``reference`` path is bit-exact and identical to previous releases;
        fast backends (``gemm``, ``numba``) run lowered groups through one
        compiled kernel per pass signature within the backend's
        ``fused_fold_tolerance``, falling back per group to the interpreter
        when lowering is impossible and falling back entirely to
        ``reference`` when the backend is unavailable.  When omitted, the
        plan's :attr:`default_backend` (then the sources' settings consensus,
        then ``reference``) applies; unknown names raise
        :class:`repro.codecs.CodecError`.  :attr:`last_execution` records
        what actually ran.
        """
        self._validate_sources()
        from ..streaming.prefetch import resolve_depth

        requested = backend if backend is not None else self.default_backend
        resolved, fallback = plan_compile.resolve_backend(requested, self.sources)
        run_stats = {
            "backend": resolved,
            "requested_backend": requested,
            "fallback_reason": fallback,
            "compiled_groups": 0,
            "interpreted_groups": 0,
            "incremental_groups": 0,
            "runtime_fallbacks": 0,
            "compile_seconds": 0.0,
            "io_seconds": 0.0,
            "prefetch_depth": resolve_depth(prefetch),
        }
        states: dict = {}
        means: dict[int, float] = {}
        for pass_ in self.passes:
            extras = self._extras(pass_.terms, means)
            for term, state in zip(pass_.terms,
                                   self._run_pass(pass_, extras, executor,
                                                  resolved, run_stats,
                                                  prefetch)):
                states[term] = state
            if pass_.index == 1 and self.n_passes == 2:
                for name, slots in self.passes[1].terms:
                    if folds.FOLD_SPECS[name].centered:
                        for slot in slots:
                            if slot not in means:
                                means[slot] = folds.dc_grand_mean(
                                    states[("dc", (slot,))]
                                )
        self.last_execution = run_stats
        results = {key: self._finalize_output(spec, states)
                   for key, spec in self._outputs.items()}
        if self._shape == "single":
            return next(iter(results.values()))
        if self._shape == "sequence":
            return list(results.values())
        return results

    def _finalize_output(self, spec: tuple, states: Mapping) -> float:
        """Turn accumulated term states into one requested scalar."""
        op, slots, options = spec
        if op == "mean":
            return folds.finalize_mean(states[("dc", slots)], **options)
        if op == "l2_norm":
            return folds.finalize_l2_norm(states[("square", slots)])
        if op == "dot":
            return folds.finalize_dot(states[("product", slots)])
        if op == "euclidean_distance":
            return folds.finalize_euclidean_distance(states[("diff_square", slots)])
        if op == "variance":
            return folds.finalize_variance(states[("centered_square", slots)])
        if op == "standard_deviation":
            return float(math.sqrt(
                folds.finalize_variance(states[("centered_square", slots)])
            ))
        if op == "covariance":
            return folds.finalize_covariance(states[("centered_product", slots)])
        if op == "cosine_similarity":
            # the product and square states are shared with dot / l2_norm
            # outputs; total() memoizes per state, so each is summed once
            return folds.cosine_similarity_from_totals(
                folds.total(states[("product", slots)], "product"),
                folds.total(states[("square", (slots[0],))], "square"),
                folds.total(states[("square", (slots[1],))], "square"),
            )
        raise ValueError(f"unknown reduction {op!r}")  # pragma: no cover


# ------------------------------------------------------------------ compilation
#: Decomposition of each reduction into (pass number, fold name, operand picker);
#: the picker maps the reduction's operand slots to the term's operand slots.
_TERM_RECIPES: dict[str, tuple] = {
    "mean": ((1, "dc", lambda s: s),),
    "l2_norm": ((1, "square", lambda s: s),),
    "dot": ((1, "product", lambda s: s),),
    "euclidean_distance": ((1, "diff_square", lambda s: s),),
    "cosine_similarity": (
        (1, "product", lambda s: s),
        (1, "square", lambda s: (s[0],)),
        (1, "square", lambda s: (s[1],)),
    ),
    "variance": (
        (1, "dc", lambda s: s),
        (2, "centered_square", lambda s: s),
    ),
    "standard_deviation": (
        (1, "dc", lambda s: s),
        (2, "centered_square", lambda s: s),
    ),
    "covariance": (
        (1, "dc", lambda s: (s[0],)),
        (1, "dc", lambda s: (s[1],)),
        (2, "centered_product", lambda s: s),
    ),
}


def _normalize_request(request) -> tuple[dict, str]:
    """Coerce the request into an ordered ``key -> Reduction`` mapping + shape."""
    if isinstance(request, Expr):
        return {"result": request}, "single"
    if isinstance(request, Mapping):
        return dict(request), "mapping"
    if isinstance(request, (list, tuple)):
        return {index: expression for index, expression in enumerate(request)}, \
            "sequence"
    raise TypeError(
        f"plan() takes an expression, a mapping or a sequence of expressions, "
        f"got {type(request).__name__}"
    )


def plan(request, *, backend: str | None = None) -> Plan:
    """Compile reduction expressions into a fused, introspectable :class:`Plan`.

    ``request`` may be a single :class:`~repro.engine.expr.Reduction`, a
    mapping of names to reductions, or a sequence of reductions;
    :meth:`Plan.execute` returns results in the matching shape.  ``backend``
    sets the plan's default kernel backend (see :meth:`Plan.execute`; unknown
    names raise :class:`repro.codecs.CodecError` here, at planning time).
    Raises ``TypeError`` for array-valued expressions (materialise those with
    :mod:`repro.streaming.ops`) and ``ValueError`` for an empty request.
    """
    if backend is not None:
        from ..kernels import get_backend_class
        get_backend_class(str(backend).lower())
    requested, shape = _normalize_request(request)
    if not requested:
        raise ValueError("cannot plan an empty set of expressions")

    program: list[tuple] = []
    sources: list = []
    slot_by_key: dict = {}
    source_slot_by_id: dict[int, int] = {}

    def intern(node: ArrayExpr) -> int:
        """Intern one array node (and its operands) into the chunk program."""
        key = node.key
        if key in slot_by_key:
            return slot_by_key[key]
        if isinstance(node, Source):
            source_index = source_slot_by_id.get(id(node.wrapped))
            if source_index is None:
                source_index = len(sources)
                sources.append(node.wrapped)
                source_slot_by_id[id(node.wrapped)] = source_index
            entry: tuple = ("source", source_index)
        else:
            operand_slots = tuple(intern(operand) for operand in node.operands)
            if node.kind == "scale":
                entry = ("scale", operand_slots[0], node.factor)
            elif node.kind == "negate":
                entry = ("negate", operand_slots[0])
            else:
                entry = (node.kind,) + operand_slots
        program.append(entry)
        slot = len(program) - 1
        slot_by_key[key] = slot
        return slot

    pass_terms: dict[int, dict] = {1: {}, 2: {}}
    outputs: dict = {}
    for key, expression in requested.items():
        if not isinstance(expression, Reduction):
            hint = (" (array-valued expressions are materialised by "
                    "repro.streaming.ops, not planned)") \
                if isinstance(expression, ArrayExpr) else ""
            raise TypeError(
                f"plan() fuses scalar reductions; output {key!r} is "
                f"{type(expression).__name__}{hint}"
            )
        recipe = _TERM_RECIPES.get(expression.op)
        if recipe is None:
            raise ValueError(
                f"unknown reduction {expression.op!r}; valid reductions: "
                f"{sorted(_TERM_RECIPES)}"
            )
        operand_slots = tuple(intern(operand) for operand in expression.operands)
        for pass_index, fold_name, pick in recipe:
            term = (fold_name, pick(operand_slots))
            pass_terms[pass_index].setdefault(term, None)
        outputs[key] = (expression.op, operand_slots, dict(expression.options))

    frozen_program = tuple(program)
    passes: list[PlanPass] = []
    for pass_index in (1, 2):
        terms = tuple(pass_terms[pass_index])
        if not terms:
            continue
        passes.append(PlanPass(len(passes) + 1, terms,
                               _group_terms(frozen_program, terms)))

    return Plan(outputs, frozen_program, sources, passes, shape,
                default_backend=backend)


def _group_terms(program: tuple, terms: tuple) -> tuple:
    """Partition a pass's terms into connected components over their sources.

    Terms sharing any source must fold from one aligned sweep (the shared
    chunk is decoded once for all of them); terms over disjoint sources sweep
    independently, so unrelated reductions fuse even when their sources have
    different shapes or chunkings.  Groups and their terms keep first-seen
    order, so execution stays deterministic.
    """
    term_sources = {
        term: tuple(sorted(
            slot for slot in _needed_slots(program, (term,))
            if program[slot][0] == "source"
        ))
        for term in terms
    }
    parent: dict[int, int] = {}

    def find(slot: int) -> int:
        """Union-find root with path compression."""
        root = parent.setdefault(slot, slot)
        while root != parent[root]:
            root = parent[root]
        while parent[slot] != root:
            parent[slot], slot = root, parent[slot]
        return root

    for slots in term_sources.values():
        first = find(slots[0])
        for slot in slots[1:]:
            parent[find(slot)] = first

    grouped: dict[int, list] = {}
    for term in terms:
        grouped.setdefault(find(term_sources[term][0]), []).append(term)
    groups = []
    for members in grouped.values():
        source_slots = tuple(sorted(
            {slot for term in members for slot in term_sources[term]}
        ))
        source_indices = tuple(program[slot][1] for slot in source_slots)
        groups.append(PassGroup(tuple(members), source_slots, source_indices))
    return tuple(groups)


def evaluate(request, *, executor=None, backend=None, prefetch=None):
    """Compile and run in one call: ``plan(request).execute(...)``.

    ``backend`` and ``prefetch`` pass straight through to
    :meth:`Plan.execute` — ``None`` keeps the bit-exact ``reference`` default
    (or the sources' settings consensus) and the auto readahead depth.
    """
    return plan(request).execute(executor=executor, backend=backend,
                                 prefetch=prefetch)
