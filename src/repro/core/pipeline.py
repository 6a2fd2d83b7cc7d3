"""The shared, composable lookup pipeline every cache variant runs on.

Every semantic-cache variant in this repo answers a probe with the same
logical sequence (paper Algorithm 1):

    Embed → Retrieve → Threshold → ContextVerify → Decide → Enroll/Evict

Historically each cache (``MeanCache``, ``GPTCache``, ``KeywordCache``)
re-implemented that loop; :class:`LookupPipeline` factors it into six small
stage objects with a **batched-first** interface, so variant differences are
stage substitutions instead of copy-pasted control flow:

* ``MeanCache``     — :class:`EncoderEmbed` → :class:`IndexRetrieve` →
  :class:`SimilarityThreshold` → :class:`ChainContextVerify` → its decide
  stage → capacity-evicting enroll.
* ``GPTCache``      — same embed/retrieve/threshold stages but
  :class:`NoContextVerify` (the baseline ignores conversation state) and a
  never-evicting enroll.
* ``KeywordCache``  — swaps the *Retrieve* stage: :class:`KeyEmbed` +
  :class:`ExactKeyRetrieve` perform normalised exact matching, with
  :class:`AlwaysAdmit` in place of a cosine threshold.

The pipeline is deliberately decision-transparent: running a batch through
:meth:`LookupPipeline.run` produces bit-identical hit/miss decisions,
similarities and matched entries to the variants' original hand-rolled loops
(``tests/test_pipeline_parity.py`` pins this against a golden fixture).

Stage contracts
---------------
Stages are tiny objects; where a knob can change after construction (the
adaptive threshold τ is re-learned by FL rounds) the stage accepts either a
plain value or a zero-argument callable and reads it live.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.context import ContextChain, context_matches
from repro.index import IndexHit, VectorIndex


def _live(value_or_fn: "Union[Callable[[], object], object]") -> Callable[[], object]:
    """Normalise a plain value or a zero-arg callable into a callable."""
    if callable(value_or_fn):
        return value_or_fn
    return lambda: value_or_fn


# --------------------------------------------------------------------------- #
# Probe / selection data
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Probe:
    """One query travelling through the pipeline."""

    query: str
    context: Tuple[str, ...] = ()

    @classmethod
    def make(cls, query: str, context: Sequence[str] = ()) -> "Probe":
        """Build a probe, coercing the context to a tuple."""
        return cls(query=query, context=tuple(context))


@dataclass
class Selection:
    """Outcome of the Threshold/ContextVerify stages for one probe.

    ``best`` is the first retrieved candidate that cleared the admission
    threshold and (when enabled) context verification — ``None`` on a miss.
    ``embed_time_s``/``search_time_s`` are the batch's wall-clock cost split
    evenly over its probes.
    """

    probe: Probe
    hits: List[IndexHit] = field(default_factory=list)
    best: Optional[IndexHit] = None
    context_checked: bool = False
    embed_time_s: float = 0.0
    search_time_s: float = 0.0
    #: the probe's embedding from the Embed stage (None for non-vector
    #: variants); lets a later enrolment reuse it instead of re-encoding.
    embedding: Optional[np.ndarray] = None
    #: the probe's context chain, when known: handed in by the caller or
    #: embedded during verification (None when neither happened); lets a
    #: later enrolment reuse it instead of re-encoding.
    chain: Optional[ContextChain] = None

    @property
    def hit(self) -> bool:
        """Whether a candidate survived every selection stage."""
        return self.best is not None

    @property
    def top_score(self) -> float:
        """Best retrieved similarity (0.0 when nothing was retrieved)."""
        return self.hits[0].score if self.hits else 0.0


# --------------------------------------------------------------------------- #
# Embed stage
# --------------------------------------------------------------------------- #
class EmbedStage:
    """Turns a batch of query texts into probe representations.

    The representation is whatever the paired :class:`RetrieveStage`
    consumes: an ``(n, d)`` embedding matrix for vector retrieval, a list of
    normalised key strings for exact-match retrieval.
    """

    def encode_batch(self, queries: Sequence[str]) -> Sequence:
        """Encode the whole query batch in one call (one repr per query)."""
        raise NotImplementedError


class EncoderEmbed(EmbedStage):
    """Embeds queries with a sentence encoder in one batched call."""

    def __init__(
        self,
        encoder,
        compress: "Union[Callable[[], bool], bool]" = False,
    ) -> None:
        """``compress`` (value or live callable) gates PCA compression."""
        self.encoder = encoder
        self._compress = _live(compress)

    def encode_batch(self, queries: Sequence[str]) -> np.ndarray:
        """One encoder forward for the batch; returns an ``(n, d)`` matrix."""
        embs = self.encoder.encode(list(queries), compress=bool(self._compress()))
        return np.atleast_2d(np.asarray(embs, dtype=np.float64))


class KeyEmbed(EmbedStage):
    """Maps queries to normalised exact-match keys (the keyword variant)."""

    def __init__(self, normalize: Callable[[str], str]) -> None:
        """``normalize`` canonicalises a query string into its match key."""
        self.normalize = normalize

    def encode_batch(self, queries: Sequence[str]) -> List[str]:
        """Normalise every query into its exact-match key."""
        return [self.normalize(q) for q in queries]


# --------------------------------------------------------------------------- #
# Retrieve stage
# --------------------------------------------------------------------------- #
class RetrieveStage:
    """Produces ranked candidate lists for a batch of probe representations."""

    def is_empty(self) -> bool:
        """True when the backing store holds no entries (probes must miss)."""
        raise NotImplementedError

    def retrieve_batch(self, reprs: Sequence) -> List[List[IndexHit]]:
        """One ranked candidate list per probe representation, in order."""
        raise NotImplementedError


class IndexRetrieve(RetrieveStage):
    """Top-k cosine retrieval from a vector index (one call per batch).

    Backend-agnostic: ``index`` is any :class:`~repro.index.VectorIndex` —
    the exact :class:`~repro.index.FlatIndex` or a sublinear approximate
    backend built via :func:`repro.index.make_index` (``"ivf"``/``"lsh"``).
    The caches thread their ``index_backend`` config through here, so the
    retrieval stage never knows which backend is underneath.
    """

    def __init__(
        self,
        index: VectorIndex,
        top_k: "Union[Callable[[], int], int]" = 5,
        threshold: "Optional[Union[Callable[[], float], float]]" = None,
        early_stop_margin: Optional[float] = None,
    ) -> None:
        """``top_k`` (value or live callable) caps candidates per probe.

        ``threshold`` mirrors the admission stage's live τ; when it is set
        together with ``early_stop_margin`` and the backend advertises
        ``supports_stop_score``, lookups pass ``stop_score = τ + margin``
        so the index may stop scanning once a confidently-admissible
        candidate is in hand (threshold-aware early termination).  The
        margin buys headroom over codec/scan score error; both knobs unset
        keeps retrieval exhaustive.
        """
        self.index = index
        self._top_k = _live(top_k)
        self._threshold = _live(threshold) if threshold is not None else None
        self._early_stop_margin = (
            float(early_stop_margin) if early_stop_margin is not None else None
        )

    def is_empty(self) -> bool:
        """True while the backing index holds no vectors."""
        return len(self.index) == 0

    def retrieve_batch(self, reprs: np.ndarray) -> List[List[IndexHit]]:
        """Batched top-k search (one index call for the whole probe set)."""
        top_k = min(int(self._top_k()), len(self.index))
        if (
            self._threshold is not None
            and self._early_stop_margin is not None
            and getattr(self.index, "supports_stop_score", False)
        ):
            stop = float(self._threshold()) + self._early_stop_margin
            return self.index.search(reprs, top_k=top_k, stop_score=stop)
        return self.index.search(reprs, top_k=top_k)


class ExactKeyRetrieve(RetrieveStage):
    """Exact-match retrieval over normalised keys (KeywordCache's swap-in).

    A present key yields a single pseudo-candidate with similarity 1.0, so
    downstream stages treat exact matching as a degenerate ranked retrieval.
    """

    def __init__(self, key_to_id: Dict[str, int]) -> None:
        """``key_to_id`` is the cache's live key → entry-id dictionary."""
        self._key_to_id = key_to_id

    def is_empty(self) -> bool:
        """True while no keys are stored."""
        return len(self._key_to_id) == 0

    def retrieve_batch(self, reprs: Sequence[str]) -> List[List[IndexHit]]:
        """Dictionary probe per key; a present key scores 1.0."""
        results: List[List[IndexHit]] = []
        for key in reprs:
            entry_id = self._key_to_id.get(key)
            results.append([] if entry_id is None else [IndexHit(id=entry_id, score=1.0)])
        return results


# --------------------------------------------------------------------------- #
# Threshold stage
# --------------------------------------------------------------------------- #
class ThresholdStage:
    """Admits or rejects one retrieved candidate."""

    def admit(self, hit: IndexHit) -> bool:
        """Whether this candidate may proceed to context verification."""
        raise NotImplementedError


class SimilarityThreshold(ThresholdStage):
    """The adaptive cosine threshold τ, read live on every admission.

    The online federated loop (:mod:`repro.federated.online`) re-learns τ
    from live fleet traffic and pushes it through the owning cache's
    ``set_threshold``; because the stage holds a live callable rather than a
    copied value, the very next probe is admitted under the new τ.
    """

    def __init__(self, threshold: "Union[Callable[[], float], float]") -> None:
        """``threshold`` is τ — a plain value or a live callable."""
        self._threshold = _live(threshold)

    @property
    def threshold(self) -> float:
        """The τ currently in force (live read; introspection/telemetry)."""
        return float(self._threshold())

    def admit(self, hit: IndexHit) -> bool:
        """Admit candidates scoring at least the current τ."""
        return hit.score >= float(self._threshold())


class AlwaysAdmit(ThresholdStage):
    """Admits every retrieved candidate (exact matching is already binary)."""

    def admit(self, hit: IndexHit) -> bool:
        """Every candidate passes."""
        return True


# --------------------------------------------------------------------------- #
# ContextVerify stage
# --------------------------------------------------------------------------- #
class ContextVerifyStage:
    """Verifies a candidate's conversation state against the probe's.

    ``enabled`` gates the whole stage.  A probe's context chain is either
    handed to the pipeline precomputed (the serving layer embeds a flush's
    chains in its one encoder call) or embedded lazily (once per probe, and
    only when some candidate actually clears the threshold), so outright
    misses never pay the context-encoding cost.
    """

    enabled: bool = True

    def embed_probe_context(self, context: Sequence[str]) -> ContextChain:
        """Embed the probe's conversational context into a chain."""
        raise NotImplementedError

    def matches(self, probe_chain: ContextChain, candidate_id: int) -> bool:
        """Whether the candidate's stored chain matches the probe's."""
        raise NotImplementedError


class NoContextVerify(ContextVerifyStage):
    """Context verification disabled (GPTCache; the ablation switch)."""

    enabled = False

    def embed_probe_context(self, context: Sequence[str]) -> ContextChain:
        """Never called while disabled; returns the empty chain."""
        return ContextChain.empty()

    def matches(self, probe_chain: ContextChain, candidate_id: int) -> bool:
        """Every candidate matches (the stage is off)."""
        return True


class ChainContextVerify(ContextVerifyStage):
    """Context-chain verification (Algorithm 1 lines 4–6).

    ``enabled`` may be a live callable (MeanCache passes
    ``lambda: config.verify_context`` so the ablation switch applies even if
    the config object is replaced after construction); when it reads False
    the stage behaves exactly like :class:`NoContextVerify`.
    """

    def __init__(
        self,
        embed_context: Callable[[Sequence[str]], ContextChain],
        entry_context: Callable[[int], ContextChain],
        threshold: "Union[Callable[[], float], float]" = 0.7,
        enabled: "Union[Callable[[], bool], bool]" = True,
    ) -> None:
        """Wire the cache's context embedding/storage accessors in.

        ``embed_context`` embeds a probe's context texts into a chain;
        ``entry_context`` fetches a cached entry's stored chain by id;
        ``threshold`` and ``enabled`` may be live callables.
        """
        self._embed_context = embed_context
        self._entry_context = entry_context
        self._threshold = _live(threshold)
        self._enabled = _live(enabled)

    @property
    def enabled(self) -> bool:
        """Live read of the ablation switch."""
        return bool(self._enabled())

    def embed_probe_context(self, context: Sequence[str]) -> ContextChain:
        """Embed the probe's context texts with the cache's encoder."""
        return self._embed_context(context)

    def matches(self, probe_chain: ContextChain, candidate_id: int) -> bool:
        """Compare the probe's chain against the candidate's stored chain."""
        return context_matches(
            probe_chain, self._entry_context(candidate_id), float(self._threshold())
        )


# --------------------------------------------------------------------------- #
# Decide stage
# --------------------------------------------------------------------------- #
class DecideStage:
    """Turns a :class:`Selection` into the variant's decision object.

    Implementations also perform the variant's hit accounting (stats
    counters, eviction-policy access recording) so a pipeline run is a drop-in
    replacement for the historical hand-rolled loops.
    """

    def decide(self, selection: Selection):
        """Build the variant's decision object and record its accounting."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# Enroll / Evict stage
# --------------------------------------------------------------------------- #
class EnrollStage:
    """Admission of new (query, response) pairs, including capacity eviction."""

    def ensure_capacity(self) -> int:
        """Evict until one more entry fits; returns the number evicted."""
        raise NotImplementedError

    def enroll(
        self,
        query: str,
        response: str,
        context: "Sequence[str] | ContextChain" = (),
        user_id: Optional[str] = None,
        embedding: Optional[np.ndarray] = None,
    ) -> None:
        """Insert a new entry (evicting first when the cache is full).

        ``user_id`` attributes the entry for central multi-user caches;
        per-device caches ignore it (the device *is* the user).
        ``embedding``, when the lookup that missed already computed it
        (``Selection.embedding`` / the decision's ``embedding``), is reused
        so enrolment does not pay a second encoder forward.  ``context`` may
        likewise be the lookup's already-embedded :class:`ContextChain`
        (``Selection.chain`` / the decision's ``context_chain``).
        """
        raise NotImplementedError


class CapacityEnroll(EnrollStage):
    """Standard bounded-capacity enrolment over a policy-driven evictor."""

    def __init__(
        self,
        size: Callable[[], int],
        max_entries: "Union[Callable[[], int], int]",
        evict_one: Callable[[], None],
        insert: Callable[..., object],
    ) -> None:
        """Wire the cache's size/limit accessors and mutation callables in."""
        self._size = size
        self._max_entries = _live(max_entries)
        self._evict_one = evict_one
        self._insert = insert

    def ensure_capacity(self) -> int:
        """Evict policy-chosen victims until one more entry fits."""
        evicted = 0
        while self._size() >= int(self._max_entries()):
            self._evict_one()
            evicted += 1
        return evicted

    def enroll(
        self,
        query: str,
        response: str,
        context: "Sequence[str] | ContextChain" = (),
        user_id: Optional[str] = None,
        embedding: Optional[np.ndarray] = None,
    ) -> None:
        """Insert via the cache's ``insert`` (which enforces capacity)."""
        self._insert(query, response, context=context, embedding=embedding)


class UnboundedEnroll(EnrollStage):
    """Enrolment for caches that never evict (the central GPTCache baseline)."""

    def __init__(self, insert: Callable[..., object]) -> None:
        """``insert`` is the cache's raw insertion callable."""
        self._insert = insert

    def ensure_capacity(self) -> int:
        """Nothing to evict — the cache is unbounded."""
        return 0

    def enroll(
        self,
        query: str,
        response: str,
        context: "Sequence[str] | ContextChain" = (),
        user_id: Optional[str] = None,
        embedding: Optional[np.ndarray] = None,
    ) -> None:
        """Insert unconditionally, attributing ``user_id`` when given."""
        kwargs = {} if user_id is None else {"user_id": user_id}
        self._insert(query, response, embedding=embedding, **kwargs)


# --------------------------------------------------------------------------- #
# The pipeline
# --------------------------------------------------------------------------- #
class LookupPipeline:
    """Composable batched lookup: Embed → Retrieve → Threshold →
    ContextVerify → Decide, with an Enroll/Evict stage for admissions.

    The pipeline itself is variant-agnostic; a cache builds one from the
    stages matching its semantics and forwards ``lookup``/``lookup_batch``
    calls to :meth:`run`.
    """

    def __init__(
        self,
        embed: EmbedStage,
        retrieve: RetrieveStage,
        threshold: ThresholdStage,
        context_verify: ContextVerifyStage,
        decide: DecideStage,
        enroll: Optional[EnrollStage] = None,
    ) -> None:
        """Compose the six stage slots (``enroll`` optional for read-only use)."""
        self.embed = embed
        self.retrieve = retrieve
        self.threshold = threshold
        self.context_verify = context_verify
        self.decide = decide
        self.enroll = enroll

    # ------------------------------------------------------------------ #
    def select(
        self,
        probe: Probe,
        hits: List[IndexHit],
        embed_time_s: float = 0.0,
        search_time_s: float = 0.0,
        embedding: Optional[np.ndarray] = None,
        chain: Optional[ContextChain] = None,
    ) -> Selection:
        """Run Threshold → ContextVerify over one probe's candidates.

        Candidates arrive ranked by descending similarity; the first one to
        clear both stages wins.  ``chain`` is the probe's precomputed context
        chain; without it the chain is embedded at most once, and only when
        a candidate actually reaches verification.  The selection carries
        whichever chain was given or embedded.
        """
        probe_chain = chain
        context_checked = False
        best: Optional[IndexHit] = None
        for hit in hits:
            if not self.threshold.admit(hit):
                continue
            if self.context_verify.enabled:
                context_checked = True
                if probe_chain is None:
                    probe_chain = self.context_verify.embed_probe_context(probe.context)
                if not self.context_verify.matches(probe_chain, hit.id):
                    continue
            best = hit
            break
        return Selection(
            probe=probe,
            hits=hits,
            best=best,
            context_checked=context_checked,
            embed_time_s=embed_time_s,
            search_time_s=search_time_s,
            embedding=embedding,
            chain=probe_chain,
        )

    def run(
        self,
        probes: Sequence[Probe],
        reprs: Optional[Sequence] = None,
        chains: Optional[Sequence[Optional[ContextChain]]] = None,
    ) -> List:
        """Drive a whole batch of probes through every stage.

        One embed call and one retrieval call cover the batch; their
        wall-clock cost is split evenly over the probes.  Returns the decide
        stage's output per probe, in input order.

        ``reprs``, when given, bypasses the Embed stage with precomputed
        probe representations (one per probe, aligned by position) — the
        serving layer's cross-cache micro-batcher embeds a whole flush of
        many users' queries with a single encoder call and hands each cache
        its slice, so per-cache pipelines never pay a second forward.  The
        representations must come from the same embed configuration this
        pipeline's Embed stage would apply (same encoder and compression);
        ``embed_time_s`` is reported as 0 since the cost was paid upstream.

        ``chains``, when given, are the probes' precomputed context chains
        (one per probe, aligned by position; a ``None`` entry falls back to
        lazy embedding), e.g. from the serving layer's flush-wide encoder
        call; verification then encodes no chain of its own.
        """
        if not probes:
            return []
        n = len(probes)
        if chains is not None and len(chains) != n:
            raise ValueError("chains must align with probes")
        if reprs is None:
            start = time.perf_counter()
            reprs = self.embed.encode_batch([p.query for p in probes])
            embed_time = (time.perf_counter() - start) / n
        else:
            if len(reprs) != n:
                raise ValueError("reprs must align with probes")
            embed_time = 0.0

        if self.retrieve.is_empty():
            hit_lists: List[List[IndexHit]] = [[] for _ in probes]
            search_time = 0.0
        else:
            start = time.perf_counter()
            hit_lists = self.retrieve.retrieve_batch(reprs)
            search_time = (time.perf_counter() - start) / n

        vector_reprs = isinstance(reprs, np.ndarray)
        return [
            self.decide.decide(
                self.select(
                    probe,
                    hit_lists[i],
                    embed_time,
                    search_time,
                    embedding=reprs[i] if vector_reprs else None,
                    chain=chains[i] if chains is not None else None,
                )
            )
            for i, probe in enumerate(probes)
        ]

    def run_one(self, query: str, context: Sequence[str] = ()):
        """Single-probe convenience wrapper over :meth:`run`."""
        return self.run([Probe.make(query, context)])[0]

    # ------------------------------------------------------------------ #
    def stage_names(self) -> Dict[str, str]:
        """Class name of each stage slot (introspection / docs / repr)."""
        return {
            "embed": type(self.embed).__name__,
            "retrieve": type(self.retrieve).__name__,
            "threshold": type(self.threshold).__name__,
            "context_verify": type(self.context_verify).__name__,
            "decide": type(self.decide).__name__,
            "enroll": type(self.enroll).__name__ if self.enroll is not None else "None",
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stages = " → ".join(
            f"{slot}={name}" for slot, name in self.stage_names().items()
        )
        return f"LookupPipeline({stages})"
