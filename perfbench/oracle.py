"""The output oracle: every served response is checked against a twin LLM.

The simulated LLM's answer text depends only on the query, so a second,
identically configured :class:`~repro.llm.service.SimulatedLLMService`
gives the exact text the program must have served on a miss.  A hit must
carry the answer of a query that the same user enrolled earlier; the
serving layer reports no matched query, so the answer text is mapped back
to the enrolled queries that produce it, and their intents decide whether
the hit was true or false.  This also covers entries enrolled before the
timed part (pre-warmed caches), which the program's own intent bookkeeping
never sees.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Dict, Optional, Set

from repro.llm.service import LLMServiceConfig, SimulatedLLMService


class Oracle:
    """Replays enrolments per user and judges each response in order."""

    def __init__(self, config: LLMServiceConfig) -> None:
        self._llm = SimulatedLLMService(config)
        self._answers: Dict[str, str] = {}
        #: user -> answer text -> intents of the queries enrolled with it
        self._enrolled: Dict[str, Dict[str, Set[str]]] = defaultdict(dict)
        self.checked = 0
        self.wrong = 0
        self.hits = 0
        self.false_hits = 0
        self._digest = hashlib.sha256()

    def answer(self, query: str) -> str:
        """The text the program must serve for ``query`` on a miss."""
        text = self._answers.get(query)
        if text is None:
            text = self._answers[query] = self._llm.query(query).text
        return text

    def enroll(self, user: str, query: str, intent: str) -> None:
        """Record that ``user``'s cache now holds ``query``'s answer."""
        self._enrolled[user].setdefault(self.answer(query), set()).add(intent)

    def check(
        self, user: str, query: str, intent: str, hit: bool, response: Optional[str]
    ) -> bool:
        """Judge one response (in the order the user sent its requests).

        A miss must equal the oracle's answer and enrols it; a hit must
        equal an answer the user enrolled earlier.  Returns whether the
        response was correct.
        """
        self.checked += 1
        self._digest.update(
            f"{user}\x1f{query}\x1f{int(hit)}\x1f{response}\n".encode("utf-8")
        )
        if not hit:
            ok = response == self.answer(query)
            if ok:
                self.enroll(user, query, intent)
        else:
            intents = self._enrolled[user].get(response or "")
            ok = intents is not None
            if ok:
                self.hits += 1
                self.false_hits += int(intent not in intents)
        self.wrong += int(not ok)
        return ok

    def digest(self) -> str:
        """Hash of every checked decision, in check order."""
        return self._digest.hexdigest()
