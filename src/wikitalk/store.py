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
    """The most recently deleted comments of a page, kept so a
    restoration can be matched to the comment it brings back."""

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
            del self._entries[0]
        return True

    def match(self, text: str) -> Optional[LiveComment]:
        """Exact-match lookup; the most recently deleted entry wins."""
        index = self._find(text)
        return None if index is None else self._entries[index]

    def take(self, text: str) -> Optional[LiveComment]:
        """Match and remove, for consumption by a restoration."""
        index = self._find(text)
        return None if index is None else self._entries.pop(index)

    def _find(self, text: str) -> Optional[int]:
        """The index of the most recent entry with cleaned text ``text``.
        Entries are removed by index, never by value: ``list.remove`` would
        compare the entry with every older one."""
        entries = self._entries
        for index in range(len(entries) - 1, -1, -1):
            if entries[index].cleaned_text == text:
                return index
        return None
