"""One encoder call per flush on conversational traffic.

The serving layer embeds a flush's queries *and* their context chains with
a single ``encoder.encode`` call; the chains then travel down the same path
as the query rows (executor → adapter → cache → pipeline), and enrolment
reuses the chain the lookup used.  Without a flush encoder (the simulator,
a bare cache or client) chains are still embedded lazily, but at most once
per probe: the lookup's chain is handed to ``insert``.

These tests pin the call counts, the decision equivalence of precomputed and
lazy chains, the shared chain formula, and the server's stop/drain path.
"""

from __future__ import annotations

import gc
import logging
from collections import Counter

import numpy as np
import pytest

from conftest import make_tiny_encoder
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.client import MeanCacheClient
from repro.core.context import ContextChain, encode_with_chains
from repro.core.tiered import TieredCache
from repro.llm.service import LLMServiceConfig, SimulatedLLMService
from repro.serving.fleet import FleetConfig, FleetSimulator
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import WorkloadConfig, WorkloadGenerator

BATCH_WINDOW_S = 0.25


class CountingEncoder:
    """Delegates to a real encoder and records every ``encode`` call."""

    def __init__(self, encoder) -> None:
        self._encoder = encoder
        self.calls = []

    def encode(self, texts, compress=True):
        self.calls.append([texts] if isinstance(texts, str) else list(texts))
        return self._encoder.encode(texts, compress=compress)

    def __getattr__(self, name):
        return getattr(self._encoder, name)


@pytest.fixture(scope="module")
def followup_trace():
    config = WorkloadConfig(
        n_users=8, queries_per_user=20, duplicate_rate=0.5, followup_rate=0.6
    )
    return WorkloadGenerator(config, seed=3).generate()


@pytest.fixture()
def chain_builds(monkeypatch):
    """Counts chains embedded outside a flush call, keyed by context texts."""
    builds = Counter()
    original = ContextChain.from_texts.__func__

    def counting(cls, texts, encoder=None):
        chain = original(cls, texts, encoder)
        if encoder is not None and not chain.is_empty:
            builds[chain.texts] += 1
        return chain

    monkeypatch.setattr(ContextChain, "from_texts", classmethod(counting))
    return builds


def _service():
    return SimulatedLLMService(LLMServiceConfig(seed=0))


def _factory(encoder):
    return lambda uid: MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.8))


def _stream(outcomes):
    ordered = sorted(
        outcomes, key=lambda o: (o.event.user_id, o.event.time_s, o.event.query)
    )
    return {
        "hits": [o.hit for o in ordered],
        "responses": [o.response for o in ordered],
        "matches": [o.matched_query if o.hit else None for o in ordered],
        "sims": [o.similarity for o in ordered],
    }


def _replay(trace, encoder, server_cls=CacheServer, shared_cache=None):
    server = server_cls(
        _factory(encoder),
        service=_service(),
        config=ServerConfig(deterministic=True, n_shards=3),
        encoder=encoder,
        shared_cache=shared_cache,
    )
    return server.replay(trace, batch_window_s=BATCH_WINDOW_S, collect_outcomes=True), server


class _QueryOnlyServer(CacheServer):
    """Hands the caches the flush's query rows but no chains (lazy path)."""

    def _embed_flush(self, requests):
        embeddings, _ = super()._embed_flush(requests)
        return embeddings, None


# --------------------------------------------------------------------------- #
# (a) the server: encoder calls == flushes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("shared_l2", [False, True], ids=["per-user", "shared-l2"])
def test_server_makes_one_encoder_call_per_flush(followup_trace, chain_builds, shared_l2):
    encoder = CountingEncoder(make_tiny_encoder())
    shared = MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.8)) if shared_l2 else None
    result, server = _replay(followup_trace, encoder, shared_cache=shared)
    n_contextual = sum(1 for e in followup_trace.events if e.context)
    assert n_contextual > len(followup_trace) // 3  # follow-up-heavy traffic
    assert result.n_events == len(followup_trace)
    assert server.metrics.flushes > 0
    assert len(encoder.calls) == server.metrics.flushes
    assert not chain_builds  # no chain embedded outside the flush call
    if shared_l2:
        assert server.metrics.shared_hits > 0  # the L2 was probed with chains


def test_flush_call_embeds_each_distinct_context_text_once():
    encoder = CountingEncoder(make_tiny_encoder())
    queries = ["first question", "second question", "third question"]
    contexts = [(), ("parent a", "parent b"), ("parent b", "", "parent c")]
    embs, chains = encode_with_chains(encoder.encode, queries, contexts)
    assert encoder.calls == [queries + ["parent a", "parent b", "parent c"]]
    assert embs.shape[0] == len(queries)
    assert chains[0].is_empty
    assert chains[1].texts == ("parent a", "parent b")
    assert chains[2].texts == ("parent b", "parent c")


# --------------------------------------------------------------------------- #
# (b) no flush encoder: each chain embedded at most once per event
# --------------------------------------------------------------------------- #
def test_simulator_embeds_each_event_chain_at_most_once(followup_trace, chain_builds):
    """Every contextual event needs its chain once: to verify a candidate,
    to enrol a miss, or both — and enrolment reuses the lookup's chain."""
    encoder = make_tiny_encoder()
    simulator = FleetSimulator(
        _factory(encoder), _service(), FleetConfig(batch_window_s=BATCH_WINDOW_S)
    )
    simulator.run(followup_trace, collect_outcomes=True)
    events_of = Counter(
        tuple(t for t in e.context if t) for e in followup_trace.events if e.context
    )
    assert chain_builds
    for texts, builds in chain_builds.items():
        assert builds <= events_of[texts], texts
    assert sum(chain_builds.values()) == sum(events_of.values())


def test_client_enrolment_reuses_lookup_chain(chain_builds):
    encoder = make_tiny_encoder()
    cache = MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.5))
    client = MeanCacheClient(cache, _service())
    cache.insert("how do I bake bread", "knead it", context=["baking at home"])
    chain_builds.clear()
    # A near-duplicate probe under a different context: a candidate clears τ,
    # verification embeds the probe's chain, the context check fails and the
    # miss enrols — with the very chain the lookup embedded.
    [result] = client.query_many(
        ["how do I bake bread today"], contexts=[["fixing a car engine"]]
    )
    assert not result.from_cache
    assert result.decision.context_chain is not None
    assert sum(chain_builds.values()) == 1
    assert cache.entries[-1].context is result.decision.context_chain


def test_tiered_forwards_chains_and_reuses_them_for_l2():
    encoder = CountingEncoder(make_tiny_encoder())
    cache = TieredCache(
        encoder,
        MeanCacheConfig(max_entries=1, similarity_threshold=0.8),
        l2_params={"min_train_size": 10_000},
    )
    cache.insert("how do I tune a guitar", "tune it", context=["music lessons"])
    cache.insert("what is compost made of", "scraps", context=["gardening"])
    assert len(cache.l2) == 1  # the guitar entry was demoted
    queries = ["how do I tune a guitar"]
    contexts = [["music lessons"]]
    embs, chains = encode_with_chains(
        lambda texts: encoder.encode(texts, compress=False), queries, contexts
    )
    encoder.calls.clear()
    [decision] = cache.lookup_batch(
        queries, contexts=contexts, embeddings=embs, context_chains=chains
    )
    assert decision.hit and decision.matched_query == queries[0]
    assert decision.context_chain is chains[0]
    assert encoder.calls == []  # neither tier embedded anything


def test_tiered_l2_lazy_chain_is_kept_for_enrolment():
    encoder = make_tiny_encoder()
    cache = TieredCache(
        encoder,
        MeanCacheConfig(max_entries=1, similarity_threshold=0.8),
        l2_params={"min_train_size": 10_000},
    )
    cache.insert("how do I tune a guitar", "tune it", context=["music lessons"])
    cache.insert("what is compost made of", "scraps", context=["gardening"])
    # L1 has no admissible candidate, so only the L2 probe embeds the chain;
    # the context check fails there and the decision keeps that chain.
    [decision] = cache.lookup_batch(
        ["how do I tune a guitar"], contexts=[["astronomy club"]]
    )
    assert not decision.hit
    assert decision.context_chain is not None
    assert decision.context_chain.texts == ("astronomy club",)


# --------------------------------------------------------------------------- #
# (c) precomputed vs lazy chains: same decisions
# --------------------------------------------------------------------------- #
def test_precomputed_chains_preserve_decisions(followup_trace):
    encoder = make_tiny_encoder()
    lazy, _ = _replay(followup_trace, encoder, server_cls=_QueryOnlyServer)
    fused, _ = _replay(followup_trace, encoder)
    lazy_stream, fused_stream = _stream(lazy.outcomes), _stream(fused.outcomes)
    assert fused_stream["hits"] == lazy_stream["hits"]
    assert fused_stream["responses"] == lazy_stream["responses"]
    assert fused_stream["matches"] == lazy_stream["matches"]
    assert any(lazy_stream["hits"])
    np.testing.assert_allclose(fused_stream["sims"], lazy_stream["sims"], atol=1e-9)


def test_precomputed_chains_match_simulator_decisions(followup_trace):
    encoder = make_tiny_encoder()
    simulator = FleetSimulator(
        _factory(encoder), _service(), FleetConfig(batch_window_s=BATCH_WINDOW_S)
    )
    sim = simulator.run(followup_trace, collect_outcomes=True)
    fused, _ = _replay(followup_trace, encoder)
    sim_stream, fused_stream = _stream(sim.outcomes), _stream(fused.outcomes)
    assert fused_stream["hits"] == sim_stream["hits"]
    assert fused_stream["responses"] == sim_stream["responses"]
    assert fused_stream["matches"] == sim_stream["matches"]
    np.testing.assert_allclose(fused_stream["sims"], sim_stream["sims"], atol=1e-9)


# --------------------------------------------------------------------------- #
# (d) one chain formula
# --------------------------------------------------------------------------- #
def test_from_embeddings_equals_from_texts():
    encoder = make_tiny_encoder()
    texts = ("how do I bake bread", "what flour should I use", "how long to proof")
    via_texts = ContextChain.from_texts(list(texts), encoder=encoder)
    via_rows = ContextChain.from_embeddings(texts, encoder.encode(list(texts)))
    assert via_rows.texts == via_texts.texts == texts
    np.testing.assert_array_equal(via_rows.embedding, via_texts.embedding)
    assert np.linalg.norm(via_rows.embedding) == pytest.approx(1.0)
    # Rows of a larger batched call give the same chain up to rounding.
    _, [chain] = encode_with_chains(encoder.encode, ["a query"], [list(texts)])
    np.testing.assert_allclose(chain.embedding, via_texts.embedding, atol=1e-12)


def test_from_embeddings_edge_cases():
    assert ContextChain.from_embeddings((), np.zeros((0, 4))) == ContextChain.empty()
    with pytest.raises(ValueError):
        ContextChain.from_embeddings(("a", "b"), np.ones((1, 4)))


def test_lookup_batch_rejects_misaligned_chains():
    cache = MeanCache(make_tiny_encoder())
    with pytest.raises(ValueError):
        cache.lookup_batch(["q one", "q two"], context_chains=[ContextChain.empty()])


# --------------------------------------------------------------------------- #
# stop() drains and shuts down
# --------------------------------------------------------------------------- #
def test_stop_drains_pending_requests_and_shuts_down(caplog):
    encoder = make_tiny_encoder()
    server = CacheServer(
        _factory(encoder),
        config=ServerConfig(max_batch_wait_s=0.05),
        encoder=encoder,
    )
    caplog.set_level(logging.ERROR, logger="asyncio")
    server.start()
    loop_thread = server._loop_thread
    futures = [
        server.submit_threadsafe(f"user-{i % 3}", f"question number {i}", ["a parent"])
        for i in range(12)
    ]
    server.stop(timeout=10.0)
    assert not loop_thread.is_alive()
    assert all(f.done() for f in futures)
    assert all(f.result().response for f in futures)
    assert server._batch_task is None
    assert server._pool is None
    del server
    gc.collect()
    assert "Task was destroyed but it is pending" not in caplog.text
