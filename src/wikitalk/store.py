"""Bounded FIFO store of recently deleted comments.

The store keeps each deleted ``LiveComment`` itself, and restorations are
detected by exact match of its cleaned text. Only texts from ``MIN_CHARS``
to ``MAX_CHARS`` long are kept: the lower bound stops short boilerplate
("Thanks!") from reading as a restoration, the upper bound keeps very long
deletions from pinning memory. Beyond ``CAPACITY`` entries the oldest is
evicted first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from wikitalk.reconstruct import LiveComment

CAPACITY = 100
MIN_CHARS = 10
MAX_CHARS = 1000


@dataclass
class DeletedCommentStore:
    _entries: list[LiveComment] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self._entries)

    def accepts(self, text: str) -> bool:
        return MIN_CHARS <= len(text) <= MAX_CHARS

    def push(self, comment: LiveComment) -> bool:
        """Store a comment if its cleaned text is within bounds; evict FIFO
        beyond capacity. Returns whether the comment was stored."""
        if not self.accepts(comment.cleaned_text):
            return False
        self._entries.append(comment)
        while len(self._entries) > CAPACITY:
            self._remove(self._entries[0])
        return True

    def match(self, text: str) -> Optional[LiveComment]:
        """Exact-match lookup; the most recently deleted entry wins."""
        for entry in reversed(self._entries):
            if entry.cleaned_text == text:
                return entry
        return None

    def take(self, text: str) -> Optional[LiveComment]:
        """Match and remove, for consumption by a restoration."""
        entry = self.match(text)
        if entry is not None:
            self._remove(entry)
        return entry

    def _remove(self, entry: LiveComment) -> None:
        self._entries.remove(entry)
