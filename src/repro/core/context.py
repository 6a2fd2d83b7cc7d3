"""Context-chain representation and matching.

MeanCache records, for each cached query, the chain of parent queries under
which it was asked (paper Figure 1's "Query Context Chain" column).  When a
new query semantically matches a cached query, the cache additionally verifies
that the *contexts* match before declaring a hit (Algorithm 1, lines 4–6):

* a standalone probe only matches cached entries that are themselves
  standalone;
* a contextual probe (non-empty conversational history) only matches cached
  entries whose context chain is semantically similar to the probe's history.

Context similarity is computed on embeddings of the chain (mean of the parent
query embeddings), so paraphrased parents still match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.similarity import cosine_similarity


@dataclass(frozen=True)
class ContextChain:
    """A query's conversational history (parent queries, oldest first)."""

    texts: Tuple[str, ...] = ()
    embedding: Optional[np.ndarray] = None

    @property
    def is_empty(self) -> bool:
        """True for standalone queries."""
        return len(self.texts) == 0

    @property
    def depth(self) -> int:
        """Number of parent queries in the chain."""
        return len(self.texts)

    @classmethod
    def empty(cls) -> "ContextChain":
        """The standalone (no-context) chain."""
        return cls(texts=(), embedding=None)

    @classmethod
    def from_texts(cls, texts: Sequence[str], encoder=None) -> "ContextChain":
        """Build a chain, embedding it with ``encoder`` when provided.

        Empty texts are dropped; the embedding is computed by
        :meth:`from_embeddings` from one ``encoder.encode`` call.
        """
        texts = tuple(t for t in texts if t)
        if encoder is not None and texts:
            return cls.from_embeddings(texts, encoder.encode(list(texts)))
        return cls(texts=texts, embedding=None)

    @classmethod
    def from_embeddings(cls, texts: Sequence[str], embeddings) -> "ContextChain":
        """Build a chain from already-computed parent-query embeddings.

        ``embeddings`` holds one row per text, aligned by position (e.g. rows
        of a larger batched encoder call).  The chain embedding is the mean
        of the rows, re-normalised to unit norm; no texts gives the empty
        chain.
        """
        texts = tuple(texts)
        if not texts:
            return cls.empty()
        embs = np.atleast_2d(embeddings)
        if embs.shape[0] != len(texts):
            raise ValueError("embeddings must have one row per context text")
        mean = embs.mean(axis=0)
        norm = np.linalg.norm(mean)
        return cls(texts=texts, embedding=mean / norm if norm > 1e-12 else mean)

    def similarity_to(self, other: "ContextChain") -> float:
        """Cosine similarity between two chain embeddings.

        Returns 1.0 when both chains are empty, 0.0 when exactly one is empty
        or an embedding is missing.
        """
        if self.is_empty and other.is_empty:
            return 1.0
        if self.is_empty != other.is_empty:
            return 0.0
        if self.embedding is None or other.embedding is None:
            return 0.0
        return float(cosine_similarity(self.embedding, other.embedding))


def encode_with_chains(
    encode: Callable[[List[str]], np.ndarray],
    queries: Sequence[str],
    contexts: Sequence[Sequence[str]],
) -> Tuple[np.ndarray, List[ContextChain]]:
    """Embed queries and their context chains with **one** ``encode`` call.

    The call covers every query plus each distinct non-empty context text;
    each query's chain is then assembled from its rows by
    :meth:`ContextChain.from_embeddings`.  Returns the ``(n, d)`` query
    embeddings and one chain per query (the empty chain for standalone
    queries).
    """
    chain_texts = [tuple(t for t in context if t) for context in contexts]
    row_of: Dict[str, int] = {}
    for texts in chain_texts:
        for text in texts:
            row_of.setdefault(text, len(queries) + len(row_of))
    embs = np.atleast_2d(
        np.asarray(encode(list(queries) + list(row_of)), dtype=np.float64)
    )
    chains = [
        ContextChain.from_embeddings(texts, embs[[row_of[t] for t in texts]])
        for texts in chain_texts
    ]
    query_embs = embs[: len(queries)]
    # Caches store rows of this matrix as views: copy it so they do not
    # keep the context rows alive.
    return (query_embs.copy() if row_of else query_embs), chains


def context_matches(
    query_context: ContextChain,
    cached_context: ContextChain,
    threshold: float = 0.7,
) -> bool:
    """Decide whether two context chains refer to the same conversation state.

    Standalone matches standalone; contextual matches contextual only when the
    chain-embedding similarity reaches ``threshold``.
    """
    if query_context.is_empty and cached_context.is_empty:
        return True
    if query_context.is_empty != cached_context.is_empty:
        return False
    return query_context.similarity_to(cached_context) >= threshold
