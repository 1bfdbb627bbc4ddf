"""Bounded FIFO store of recently deleted comments.

Restorations are detected by exact text match against this store. Only
texts from ``MIN_CHARS`` to ``MAX_CHARS`` long are kept: the lower bound
stops short boilerplate ("Thanks!") from reading as a restoration, the
upper bound keeps very long deletions from pinning memory. Beyond
``CAPACITY`` entries the oldest is evicted first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

CAPACITY = 100
MIN_CHARS = 10
MAX_CHARS = 1000


@dataclass
class DeletedEntry:
    text: str
    last_action_id: str
    conversation_id: str
    replyto_id: Optional[str]
    indentation: int
    is_heading: bool


@dataclass
class DeletedCommentStore:
    _entries: list[DeletedEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self._entries)

    def accepts(self, text: str) -> bool:
        return MIN_CHARS <= len(text) <= MAX_CHARS

    def push(self, entry: DeletedEntry) -> bool:
        """Store an entry if its text is within bounds; evict FIFO beyond
        capacity. Returns whether the entry was stored."""
        if not self.accepts(entry.text):
            return False
        self._entries.append(entry)
        while len(self._entries) > CAPACITY:
            self._remove(self._entries[0])
        return True

    def match(self, text: str) -> Optional[DeletedEntry]:
        """Exact-match lookup; the most recently deleted entry wins."""
        for entry in reversed(self._entries):
            if entry.text == text:
                return entry
        return None

    def take(self, text: str) -> Optional[DeletedEntry]:
        """Match and remove, for consumption by a restoration."""
        entry = self.match(text)
        if entry is not None:
            self._remove(entry)
        return entry

    def _remove(self, entry: DeletedEntry) -> None:
        self._entries.remove(entry)
