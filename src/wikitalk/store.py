"""Bounded FIFO store of recently deleted comments.

Restorations are detected by exact text match against this store. Only
texts between the configured length bounds are kept: the lower bound stops
short boilerplate ("Thanks!") from reading as a restoration, the upper
bound keeps very long deletions from pinning memory. Beyond the capacity
the oldest entry is evicted first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

DEFAULT_CAPACITY = 100
DEFAULT_MIN_CHARS = 10
DEFAULT_MAX_CHARS = 1000


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
    capacity: int = DEFAULT_CAPACITY
    min_chars: int = DEFAULT_MIN_CHARS
    max_chars: int = DEFAULT_MAX_CHARS
    _entries: list[DeletedEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self._entries)

    def accepts(self, text: str) -> bool:
        return self.min_chars <= len(text) <= self.max_chars

    def push(self, entry: DeletedEntry) -> bool:
        """Store an entry if its text is within bounds; evict FIFO beyond
        capacity. Returns whether the entry was stored."""
        if not self.accepts(entry.text):
            return False
        self._entries.append(entry)
        while len(self._entries) > self.capacity:
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
