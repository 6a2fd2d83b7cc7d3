"""The run skeleton shared by every workload: passes, medians, tracing.

A run sets up and measures several passes, each on a fresh set-up and its
own inputs (pass ``k`` of seed ``s`` uses the generator seed ``100·s + k``).
Every timing is the median over the passes, which keeps a pass slowed or
stalled by the host from moving it; the quality metrics pool every pass's
requests, so they rest on more inputs.

Untraced passes wrap nothing.  A traced run then sets up pass 0 again,
wraps the layers (see :mod:`spans`) and measures it once more: the
throughput it loses against the untraced median is
``trace.overhead_share``, and on the replays its decisions must equal the
untraced pass 0's.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from oracle import Oracle
from spans import SpanRecorder

from repro.core.cache import MeanCache
from repro.embeddings.model import SiameseEncoder
from repro.embeddings.zoo import load_encoder
from repro.llm.service import SimulatedLLMService

ENCODER = "albert-sim"
#: latency limit behind ``slo_share``: per request on the live server, per
#: flush on the replays
SLO_MS = 25.0


@dataclass
class Report:
    """What one run measured, ready for printing."""

    correct: bool
    attempted: int
    failed: int
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    traits: Dict[str, object] = field(default_factory=dict)
    #: per-layer metrics this workload cannot measure from outside, and why
    not_measured: Dict[str, str] = field(default_factory=dict)
    #: whether the traced replay decided exactly as its untraced pass
    same_decisions: bool = True


@dataclass
class Pass:
    """One measured pass over one set of requests."""

    oracle: Oracle
    attempted: int
    failed: int
    #: per-request latency in ms (``inf`` for a failed request), by rate
    latency_ms: Dict[str, List[float]]
    throughput_rps: float
    hits: int
    cost_usd: float
    wall_s: float
    flushes: int
    #: per-layer rows only the workload can fill (server state, generator)
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Workload:
    """How one workload sets up, measures and describes a pass."""

    name: str
    passes: int
    #: ``setup(k, encoder, recorder)`` builds pass ``k``'s serving objects
    setup: Callable[[int, SiameseEncoder, Optional[SpanRecorder]], object]
    measure: Callable[[object, int, Optional[SpanRecorder]], Pass]
    traits: Callable[[object, Pass], Dict[str, object]]
    not_measured: Dict[str, str]
    #: stops what ``setup`` started
    release: Callable[[object], None] = lambda stack: None
    #: extra set-ups, built and released unmeasured, to steady a
    #: millisecond-scale ``setup_s``
    setup_only: int = 0
    #: whether two passes over the same requests must decide identically
    deterministic: bool = True


def pass_seed(seed: int, k: int) -> int:
    """The generator seed of pass ``k`` of a run seeded ``seed``."""
    return 100 * seed + k


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (an observed value, not an interpolation)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """The process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Layer instrumentation (traced passes only)
# --------------------------------------------------------------------------- #
def _texts(args: tuple, kwargs: dict) -> int:
    texts = args[0] if args else kwargs["texts"]
    return 1 if isinstance(texts, str) else len(texts)


def instrument_encoder(rec: SpanRecorder, encoder) -> None:
    """``encoder.encode``: calls, texts, and texts embedded as context."""

    def count(args, kwargs, result) -> None:
        n = _texts(args, kwargs)
        rec.counts["encoder.texts"] += n
        if rec.inside("cache.insert", "cache.verify"):
            rec.counts["encoder.context_texts"] += n

    rec.wrap(encoder, "encode", "encoder.encode", count)


def instrument_cache(rec: SpanRecorder, cache: MeanCache) -> MeanCache:
    """The cache's lookup, enrolment and context check, and its index."""
    index = cache.index

    def count_search(args, kwargs, result) -> None:
        queries = len(result)
        rec.counts["index.queries"] += queries
        rec.counts["index.rows_scanned"] += queries * len(index)

    def count_lookup(args, kwargs, result) -> None:
        rec.counts["cache.probes"] += len(result)

    def count_match(args, kwargs, result) -> None:
        rec.counts["cache.verify_attempts"] += 1
        rec.counts["cache.verify_passes"] += int(bool(result))

    rec.wrap(index, "search", "index.search", count_search)
    rec.wrap(index, "add", "index.add")
    rec.wrap(cache, "lookup_batch", "cache.lookup", count_lookup)
    rec.wrap(cache.pipeline.enroll, "enroll", "cache.insert")
    verify = cache.pipeline.context_verify
    rec.wrap(verify, "embed_probe_context", "cache.verify")
    rec.wrap(verify, "matches", "cache.verify", count_match)
    return cache


def instrument_service(rec: SpanRecorder, service: SimulatedLLMService) -> None:
    """``service.query``: calls and prompt tokens."""

    def count(args, kwargs, result) -> None:
        rec.counts["llm.prompt_tokens"] += result.prompt_tokens

    rec.wrap(service, "query", "llm.query", count)


def layer_metrics(rec: SpanRecorder, run: Pass) -> Dict[str, float]:
    """Per-layer metrics of a traced pass, before the workload's own rows."""
    calls, counts = rec.calls, rec.counts
    ms = 1e-6
    enc_calls = calls["encoder.encode"]
    attempts = counts["cache.verify_attempts"]
    return {
        "encoder.calls": enc_calls,
        "encoder.texts": counts["encoder.texts"],
        "encoder.texts_per_call": counts["encoder.texts"] / enc_calls if enc_calls else 0.0,
        "encoder.calls_per_flush": enc_calls / run.flushes if run.flushes else 0.0,
        "encoder.context_texts": counts["encoder.context_texts"],
        "encoder.busy_ms": rec.total_ns["encoder.encode"] * ms,
        "index.search_calls": calls["index.search"],
        "index.queries": counts["index.queries"],
        "index.rows_scanned": counts["index.rows_scanned"],
        "index.search_ms": rec.total_ns["index.search"] * ms,
        "index.add_calls": calls["index.add"],
        "index.add_ms": rec.total_ns["index.add"] * ms,
        "cache.lookup_calls": calls["cache.lookup"],
        "cache.probes": counts["cache.probes"],
        "cache.lookup_self_ms": rec.self_ns["cache.lookup"] * ms,
        "cache.insert_calls": calls["cache.insert"],
        "cache.insert_self_ms": rec.self_ns["cache.insert"] * ms,
        "cache.verify_attempts": attempts,
        "cache.verify_pass_share": counts["cache.verify_passes"] / attempts if attempts else 0.0,
        "llm.calls": calls["llm.query"],
        "llm.busy_ms": rec.total_ns["llm.query"] * ms,
        "llm.prompt_tokens": counts["llm.prompt_tokens"],
        "executor.calls": calls["executor.execute"],
        "executor.events": counts["executor.events"],
        "executor.self_ms": rec.self_ns["executor.execute"] * ms,
        "server.unattributed_ms": run.wall_s * 1e3 - rec.attributed_ns() * ms,
        "gc.collections": rec.gc.collections,
        "gc.pause_total_ms": rec.gc.pause_total_ns * ms,
        "gc.pause_max_ms": rec.gc.pause_max_ns * ms,
    }


# --------------------------------------------------------------------------- #
# End-to-end metrics
# --------------------------------------------------------------------------- #
def latency_metrics(run: Pass) -> Dict[str, float]:
    """Latency percentiles and the SLO share of one pass."""
    low, high = run.latency_ms["low"], run.latency_ms["high"]
    return {
        "latency_p50_ms": percentile(low, 50),
        "latency_p99_ms": percentile(low, 99),
        "latency_p50_ms.high": percentile(high, 50),
        "latency_p99_ms.high": percentile(high, 99),
        "slo_share": sum(v <= SLO_MS for v in low) / len(low),
    }


def e2e_metrics(passes: Sequence[Pass]) -> Dict[str, float]:
    """End-to-end metrics over every pass (all but set-up and RSS).

    Timings are the median over passes; the quality metrics pool every
    pass's requests.
    """
    per_pass = [{"throughput_rps": run.throughput_rps, **latency_metrics(run)} for run in passes]
    attempted = sum(run.attempted for run in passes)
    hits = sum(run.oracle.hits for run in passes)
    false_hits = sum(run.oracle.false_hits for run in passes)
    return {
        **{key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]},
        "hit_rate": sum(run.hits for run in passes) / attempted,
        "hit_precision": 1.0 - false_hits / hits if hits else 1.0,
        "llm_cost_usd_per_1k": sum(run.cost_usd for run in passes) / attempted * 1e3,
        # a trait, not a gated metric: too rare on serve-open to be steady
        "false_hit_rate": false_hits / attempted,
    }


def run_workload(workload: Workload, seed: int, traced: bool, out_dir: Path) -> Report:
    """Set up and measure every pass, then (traced) the wrapped pass 0.

    The encoder is loaded (and pretrained) once, outside every timed region:
    it stands in for a published checkpoint that every set-up shares.
    """
    encoder = load_encoder(ENCODER)
    setup_times: List[float] = []

    def timed_setup(k: int) -> object:
        start = time.perf_counter()
        stack = workload.setup(k, encoder, None)
        setup_times.append(time.perf_counter() - start)
        return stack

    for _ in range(workload.setup_only):
        workload.release(timed_setup(0))
    passes: List[Pass] = []
    for k in range(workload.passes):
        stack = timed_setup(k)
        try:
            passes.append(workload.measure(stack, k, None))
            if k == 0:
                traits = workload.traits(stack, passes[0])
        finally:
            workload.release(stack)
    e2e = e2e_metrics(passes)
    traits["false_hit_rate"] = e2e.pop("false_hit_rate")
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = peak_rss_mb()

    layers: Dict[str, float] = {}
    same_decisions = True
    if traced:
        rec = SpanRecorder()
        # a fresh encoder, so the wrappers never reach an untraced pass
        stack = workload.setup(0, load_encoder(ENCODER), rec)
        try:
            with rec.gc:
                run = workload.measure(stack, 0, rec)
        finally:
            workload.release(stack)
        passes.append(run)
        if workload.deterministic:
            same_decisions = run.oracle.digest() == passes[0].oracle.digest()
        layers = layer_metrics(rec, run)
        layers.update(run.extra)
        layers["trace.overhead_share"] = 1.0 - run.throughput_rps / e2e["throughput_rps"]
        for key in workload.not_measured:
            layers.setdefault(key, 0.0)
        rec.dump(out_dir / f"{workload.name}-seed{seed}.jsonl")
    failed = sum(run.failed for run in passes)
    return Report(
        correct=failed == 0 and same_decisions,
        attempted=sum(run.attempted for run in passes),
        failed=failed,
        e2e=e2e,
        layers=layers,
        traits={"seed": seed, "passes": workload.passes, **traits},
        not_measured=workload.not_measured,
        same_decisions=same_decisions,
    )
