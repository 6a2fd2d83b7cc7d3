"""The three workloads: their inputs, set-up and measurement.

Inputs come only from the seed (through the program's own
``WorkloadGenerator``) and their amount from ``--seconds``; the program
receives the generated requests and never learns which workload it serves.
Every response is checked by the :class:`~oracle.Oracle` after the timed
region.  See README.md for why each workload exists.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import gc
import math
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
from harness import (
    Pass,
    Workload,
    instrument_cache,
    instrument_encoder,
    instrument_service,
    pass_seed,
    percentile,
)
from oracle import Oracle
from spans import SpanRecorder

from repro.core.cache import MeanCache, MeanCacheConfig
from repro.embeddings.model import SiameseEncoder
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.fleet import FleetSimulator
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import Trace, WorkloadConfig, WorkloadEvent, WorkloadGenerator

#: virtual batching window of both replays (the simulator's default)
WINDOW_S = 0.25
#: the replays' second half comes in flushes this many times bigger
HIGH_FLUSH_FACTOR = 4

# serve-open: open-loop rates (requests/s) and phase lengths (share of a pass)
LOW_RPS, LOW_SHARE = 250.0, 0.6
HIGH_RPS, HIGH_SHARE = 500.0, 0.3
#: saturating phase: one burst of this many requests per second of a pass,
#: capped at the server's admission bound so that none is shed
SATURATE_PER_S = 300
#: a request not answered this long after it was sent has timed out
REQUEST_TIMEOUT_S = 60.0

_NO_EXECUTOR = "the server's shard executors are private"
_NO_GENERATOR = "a replay has no load generator"


def _event_traits(events: Sequence[WorkloadEvent]) -> Dict[str, float]:
    n = len(events)
    return {
        "requests_per_pass": n,
        "followup_share": sum(bool(e.context) for e in events) / n,
        "duplicate_share": sum(e.kind == "duplicate" for e in events) / n,
    }


def _entry_traits(caches: Sequence[MeanCache]) -> Dict[str, float]:
    sizes = [len(c) for c in caches]
    return {"cache_entries_mean": statistics.fmean(sizes), "cache_entries_max": max(sizes)}


# --------------------------------------------------------------------------- #
# Replays: window by window; a window's wall time is its requests' latency
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class ReplayInput:
    """One pass's requests, cut into the flushes the program will run."""

    events: List[WorkloadEvent]
    windows: List[List[WorkloadEvent]]
    #: the first ``n_low`` windows are the low rate, the rest the high rate
    n_low: int


def replay_input(events: List[WorkloadEvent], flush_size: int) -> ReplayInput:
    """Cut ``events`` (in arrival order) into fixed-size flushes.

    The first half goes in flushes of ``flush_size`` requests, the second
    half in flushes HIGH_FLUSH_FACTOR times bigger, as if it arrived that
    many times faster.  Fixed sizes keep the tail of the flush latencies
    from resting on how bursty one seed's arrivals happen to be.  Each
    flush is re-timed to its own virtual second, so the program's
    ``WINDOW_S`` batching makes exactly these flushes.
    """
    half = len(events) // 2
    big = flush_size * HIGH_FLUSH_FACTOR
    cuts = [events[i : min(i + flush_size, half)] for i in range(0, half, flush_size)]
    n_low = len(cuts)
    cuts += [events[i : i + big] for i in range(half, len(events), big)]
    windows = [
        [dataclasses.replace(e, time_s=w + j * 1e-3) for j, e in enumerate(window)]
        for w, window in enumerate(cuts)
    ]
    return ReplayInput([e for w in windows for e in w], windows, n_low)


def replay_windows(
    replay: ReplayInput,
    run_window: Callable[[List[WorkloadEvent]], list],
    oracle: Oracle,
    flush_id: List[int],
) -> Pass:
    """Hand the program one window (one flush) at a time and time each."""
    latency: Dict[str, List[float]] = {"low": [], "high": []}
    results = []
    start = time.perf_counter()
    for i, window in enumerate(replay.windows):
        flush_id[0] = i
        t0 = time.perf_counter()
        outcomes = run_window(window)
        ms = (time.perf_counter() - t0) * 1e3
        rate = "low" if i < replay.n_low else "high"
        latency[rate].extend([ms] * len(window))
        results.append((window, outcomes))
    wall = time.perf_counter() - start
    hits = failed = 0
    cost = 0.0
    for window, outcomes in results:
        failed += len(window) - len(outcomes)
        for event, outcome in zip(window, outcomes):
            ok = outcome.event.query == event.query and oracle.check(
                event.user_id, event.query, event.intent_key, outcome.hit, outcome.response
            )
            failed += int(not ok)
            hits += int(outcome.hit)
            cost += outcome.cost_usd
    return Pass(
        oracle=oracle,
        attempted=len(replay.events),
        failed=failed,
        latency_ms=latency,
        throughput_rps=len(replay.events) / wall,
        hits=hits,
        cost_usd=cost,
        wall_s=wall,
        flushes=len(replay.windows),
    )


def replay_chat(seed: int, seconds: int) -> Workload:
    """Follow-up-heavy conversations through ``CacheServer.replay``.

    Many users with short conversational histories: indexes stay small
    while ~60% of requests carry a context chain (embedded again on
    enrolment and on verification) and ~60% re-ask an earlier intent.
    """
    passes = 5
    n_users = max(1, round(10 * seconds / passes))
    inputs = [
        replay_input(
            WorkloadGenerator(
                WorkloadConfig(
                    n_users=n_users, queries_per_user=60, duplicate_rate=0.6, followup_rate=0.6
                ),
                seed=pass_seed(seed, k),
            )
            .generate()
            .events,
            flush_size=5,
        )
        for k in range(passes)
    ]
    users = [sorted({e.user_id for e in replay.events}) for replay in inputs]
    llm_config = LLMServiceConfig(seed=seed)
    flush_id = [0]

    def setup(k: int, encoder: SiameseEncoder, rec: Optional[SpanRecorder]) -> CacheServer:
        service = SimulatedLLMService(llm_config)
        cache_config = MeanCacheConfig()
        if rec is not None:
            rec.tag = lambda: flush_id[0]
            instrument_encoder(rec, encoder)
            instrument_service(rec, service)

        def factory(user_id: str) -> MeanCache:
            cache = MeanCache(encoder, cache_config)
            return instrument_cache(rec, cache) if rec is not None else cache

        server = CacheServer(
            factory,
            service=service,
            config=ServerConfig(deterministic=True, max_queue_depth=1 << 16),
            encoder=encoder,
        )
        for user in users[k]:
            server.cache_for(user)  # every user's (empty) cache is ready
        return server

    def measure(server: CacheServer, k: int, rec: Optional[SpanRecorder]) -> Pass:
        def run_window(window: List[WorkloadEvent]) -> list:
            trace = Trace(events=window, n_users=n_users, seed=seed)
            return server.replay(trace, WINDOW_S, collect_outcomes=True).outcomes

        run = replay_windows(inputs[k], run_window, Oracle(llm_config), flush_id)
        metrics = server.metrics
        run.flushes = metrics.flushes
        run.extra = {
            "server.flushes": metrics.flushes,
            "server.mean_batch_size": metrics.mean_batch_size,
            "server.shed": metrics.shed,
        }
        return run

    def traits(server: CacheServer, run: Pass) -> Dict[str, object]:
        return {
            **_event_traits(inputs[0].events),
            **_entry_traits([server.cache_for(u) for u in users[0]]),
            "hit_share": run.hits / run.attempted,
            "mean_flush_size": server.metrics.mean_batch_size,
        }

    return Workload(
        name="replay-chat",
        passes=passes,
        setup=setup,
        measure=measure,
        traits=traits,
        not_measured={
            "executor.calls": _NO_EXECUTOR,
            "executor.events": _NO_EXECUTOR,
            "executor.self_ms": _NO_EXECUTOR,
            "server.queue_wait_p50_ms": "replay enqueues and drains at one virtual time",
            "server.queue_wait_p99_ms": "replay enqueues and drains at one virtual time",
            "server.max_queue_depth": "replay admits through no live queue",
            "loadgen.late_p99_ms": _NO_GENERATOR,
        },
        setup_only=20,
    )


def replay_warm(seed: int, seconds: int) -> Workload:
    """Mostly repeat traffic of a few heavy users over pre-warmed caches.

    Set-up fills each user's cache from that user's own history to
    thousands of entries; the timed part re-asks that history, so index
    scans over large caches do the work and few requests reach the LLM.
    """
    passes, n_users, prewarm = 3, 4, 2000
    timed = max(1, round(110 * seconds / passes))
    llm_config = LLMServiceConfig(seed=seed)
    answers = Oracle(llm_config)
    histories: List[Dict[str, List[WorkloadEvent]]] = []
    inputs: List[ReplayInput] = []
    for k in range(passes):
        trace = WorkloadGenerator(
            WorkloadConfig(
                n_users=n_users,
                queries_per_user=prewarm + timed,
                duplicate_rate=0.9,
                followup_rate=0.1,
            ),
            seed=pass_seed(seed, k),
        ).generate()
        history: Dict[str, List[WorkloadEvent]] = {}
        replayed: List[WorkloadEvent] = []
        for event in trace.events:
            mine = history.setdefault(event.user_id, [])
            (mine if len(mine) < prewarm else replayed).append(event)
        histories.append(history)
        inputs.append(replay_input(replayed, flush_size=4))
    prewarm_answers = [
        {user: [answers.answer(e.query) for e in evs] for user, evs in history.items()}
        for history in histories
    ]
    flush_id = [0]

    def setup(k: int, encoder: SiameseEncoder, rec: Optional[SpanRecorder]) -> FleetSimulator:
        caches: Dict[str, MeanCache] = {}
        for user, evs in histories[k].items():
            cache = MeanCache(encoder, MeanCacheConfig())
            cache.populate(
                [e.query for e in evs], prewarm_answers[k][user], [e.context for e in evs]
            )
            caches[user] = cache
        service = SimulatedLLMService(llm_config)
        sim = FleetSimulator(caches.__getitem__, service=service)
        if rec is not None:
            rec.tag = lambda: flush_id[0]
            instrument_encoder(rec, encoder)
            instrument_service(rec, service)
            for cache in caches.values():
                instrument_cache(rec, cache)

            def count(args, kwargs, result) -> None:
                rec.counts["executor.events"] += len(result)

            rec.wrap(sim.executor, "execute", "executor.execute", count)
        return sim

    def measure(sim: FleetSimulator, k: int, rec: Optional[SpanRecorder]) -> Pass:
        oracle = Oracle(llm_config)
        for user, evs in histories[k].items():
            for e in evs:
                oracle.enroll(user, e.query, e.intent_key)

        def run_window(window: List[WorkloadEvent]) -> list:
            trace = Trace(events=window, n_users=n_users, seed=seed)
            return sim.run(trace, collect_outcomes=True).outcomes

        run = replay_windows(inputs[k], run_window, oracle, flush_id)
        run.extra = {
            "server.flushes": run.flushes,
            "server.mean_batch_size": run.attempted / run.flushes,
            "server.shed": 0,
        }
        return run

    def traits(sim: FleetSimulator, run: Pass) -> Dict[str, object]:
        return {
            **_event_traits(inputs[0].events),
            **_entry_traits([a.cache for a in sim.caches.values()]),
            "hit_share": run.hits / run.attempted,
            "mean_flush_size": run.attempted / run.flushes,
        }

    no_queue = "FleetSimulator has no admission queue"
    return Workload(
        name="replay-warm",
        passes=passes,
        setup=setup,
        measure=measure,
        traits=traits,
        not_measured={
            "server.queue_wait_p50_ms": no_queue,
            "server.queue_wait_p99_ms": no_queue,
            "server.max_queue_depth": no_queue,
            "loadgen.late_p99_ms": _NO_GENERATOR,
        },
    )


# --------------------------------------------------------------------------- #
# serve-open: a live server under one open-loop generator thread
# --------------------------------------------------------------------------- #
class _Phase:
    """The generator's bookkeeping for one phase of one pass."""

    def __init__(self, server: CacheServer, events: Sequence[WorkloadEvent]) -> None:
        self.server = server
        self.events = events
        n = len(events)
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.done = [0.0] * n
        self.futures: List[concurrent.futures.Future] = []

    def _finished(self, i: int, _future) -> None:
        self.done[i] = time.perf_counter()

    def run(self, offsets: np.ndarray) -> float:
        """Send event ``i`` ``offsets[i]`` seconds after the phase starts;
        returns the wall time from the first send to the last answer."""
        start = time.perf_counter() + 0.005
        for i, event in enumerate(self.events):
            due = start + float(offsets[i])
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            self.due[i] = due
            self.sent[i] = time.perf_counter()
            future = self.server.submit_threadsafe(event.user_id, event.query, event.context)
            future.add_done_callback(functools.partial(self._finished, i))
            self.futures.append(future)
        concurrent.futures.wait(self.futures, timeout=REQUEST_TIMEOUT_S)
        return max(self.done) - min(self.sent)


def _settle_heap(rec: Optional[SpanRecorder]) -> None:
    """Collect, then freeze the survivors before a phase starts.

    A phase's full collections then scan only what the phase itself
    allocated, so whether one lands in a phase, and how long it stalls the
    server, depends on that phase and not on how close the heap happened to
    be to the collector's threshold when it began.
    """
    gc.unfreeze()
    if rec is None:
        gc.collect()
    else:
        rec.gc.collect()
    gc.freeze()


def serve_open(seed: int, seconds: int) -> Workload:
    """A live ``CacheServer`` under one open-loop generator thread.

    Users send two queries each and no follow-ups: most requests miss and
    enrol into a cache of at most two entries, so admission, micro-batching,
    the flush-wide encoder call, the LLM and collector pauses do the work
    and index scans almost none.  Each pass has three phases: a low fixed
    rate, a higher one, then a saturating burst no larger than the
    admission bound (so nothing is shed).
    """
    passes = 3
    per_pass = seconds / passes
    sizes = {
        "low": int(LOW_RPS * LOW_SHARE * per_pass),
        "high": int(HIGH_RPS * HIGH_SHARE * per_pass),
        "saturate": min(int(SATURATE_PER_S * per_pass), ServerConfig().max_queue_depth),
    }
    total = sum(sizes.values())
    inputs = []
    for k in range(passes):
        # Whole users only: each sends both of its queries within the pass.
        events = WorkloadGenerator(
            WorkloadConfig(
                n_users=(total + 1) // 2, queries_per_user=2, duplicate_rate=0.3, followup_rate=0.0
            ),
            seed=pass_seed(seed, k),
        ).generate().events[:total]
        rng = np.random.default_rng(pass_seed(seed, k))
        phases, offsets, start = {}, {}, 0
        for phase, n in sizes.items():
            phases[phase] = events[start : start + n]
            start += n
        offsets["low"] = np.cumsum(rng.exponential(1.0 / LOW_RPS, size=sizes["low"]))
        offsets["high"] = np.cumsum(rng.exponential(1.0 / HIGH_RPS, size=sizes["high"]))
        offsets["saturate"] = np.zeros(sizes["saturate"])
        inputs.append((events, phases, offsets))
    llm_config = LLMServiceConfig(seed=seed)

    def setup(k: int, encoder: SiameseEncoder, rec: Optional[SpanRecorder]) -> CacheServer:
        service = SimulatedLLMService(llm_config, clock=time.monotonic, thread_safe=True)
        cache_config = MeanCacheConfig()
        if rec is not None:
            instrument_encoder(rec, encoder)
            instrument_service(rec, service)

        def factory(user_id: str) -> MeanCache:
            cache = MeanCache(encoder, cache_config)
            return instrument_cache(rec, cache) if rec is not None else cache

        server = CacheServer(factory, service=service, config=ServerConfig(), encoder=encoder)
        if rec is not None:
            rec.tag = lambda: server.metrics.flushes
        server.start()
        return server

    def measure(server: CacheServer, k: int, rec: Optional[SpanRecorder]) -> Pass:
        _, phases, offsets = inputs[k]
        oracle = Oracle(llm_config)
        latency: Dict[str, List[float]] = {}
        lateness: List[float] = []
        attempted = failed = hits = 0
        cost = 0.0
        saturate_rps = wall = 0.0
        for name, events in phases.items():
            _settle_heap(rec)
            phase = _Phase(server, events)
            elapsed = phase.run(offsets[name])
            if name == "saturate":
                saturate_rps = len(events) / elapsed
            else:
                lateness.extend((s - d) * 1e3 for s, d in zip(phase.sent, phase.due))
            wall += elapsed
            latency[name] = []
            for i, (event, future) in enumerate(zip(events, phase.futures)):
                attempted += 1
                ok = False
                if future.done() and future.exception() is None:
                    response = future.result()
                    ok = oracle.check(
                        event.user_id, event.query, event.intent_key, response.hit, response.response
                    )
                    hits += int(response.hit)
                    cost += response.cost_usd
                failed += int(not ok)
                latency[name].append((phase.done[i] - phase.due[i]) * 1e3 if ok else math.inf)
        gc.unfreeze()
        metrics = server.metrics
        return Pass(
            oracle=oracle,
            attempted=attempted,
            failed=failed,
            latency_ms=latency,
            throughput_rps=saturate_rps,
            hits=hits,
            cost_usd=cost,
            wall_s=wall,
            flushes=metrics.flushes,
            extra={
                "server.queue_wait_p50_ms": metrics.queue_wait.p50 * 1e-6,
                "server.queue_wait_p99_ms": metrics.queue_wait.p99 * 1e-6,
                "server.flushes": metrics.flushes,
                "server.mean_batch_size": metrics.mean_batch_size,
                "server.shed": metrics.shed,
                "server.max_queue_depth": metrics.max_depth_seen,
                "loadgen.late_p99_ms": percentile(lateness, 99),
            },
        )

    def traits(server: CacheServer, run: Pass) -> Dict[str, object]:
        events = inputs[0][0]
        users = sorted({e.user_id for e in events})
        return {
            **_event_traits(events),
            **_entry_traits([server.cache_for(u) for u in users]),
            "hit_share": run.hits / run.attempted,
            "mean_flush_size": server.metrics.mean_batch_size,
        }

    return Workload(
        name="serve-open",
        passes=passes,
        setup=setup,
        measure=measure,
        release=lambda server: server.stop(),
        traits=traits,
        not_measured={
            "executor.calls": _NO_EXECUTOR,
            "executor.events": _NO_EXECUTOR,
            "executor.self_ms": _NO_EXECUTOR,
        },
        setup_only=20,
        deterministic=False,
    )


WORKLOADS = {
    "serve-open": serve_open,
    "replay-chat": replay_chat,
    "replay-warm": replay_warm,
}
