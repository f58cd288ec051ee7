"""Per-broker routing state.

Each broker remembers, for every subscription it has learnt about, where
the subscription came from: either a local client or the neighbouring
broker that forwarded it.  Publications are later routed along the reverse
of those paths (reverse path forwarding, Section 2).

The forwarding-table lookup is one method,
:meth:`RoutingTable.matching_entries_batch` — a single publication is a
batch of one — answered by one :class:`~repro.core.arena.Matcher`
``match_batch`` call: the shared box-test kernel over the table's signed
bound columns, which yields the matching entries in insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.arena import Matcher
from repro.model.publications import Publication
from repro.model.subscriptions import Subscription

__all__ = ["SourceKind", "RouteEntry", "RoutingTable"]


class SourceKind(str, Enum):
    """Where a routing entry's subscription was learnt from."""

    LOCAL = "local"
    NEIGHBOR = "neighbor"


@dataclass(frozen=True)
class RouteEntry:
    """One subscription known to a broker and its reverse-path source."""

    subscription: Subscription
    source_kind: SourceKind
    #: local subscriber identifier or neighbouring broker identifier
    source_id: str
    #: broker where the subscription entered the network
    origin: str


class RoutingTable:
    """Mapping of subscription identifier to :class:`RouteEntry`."""

    def __init__(self) -> None:
        self._entries: Dict[str, RouteEntry] = {}
        self._index = Matcher()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, entry: RouteEntry) -> bool:
        """Insert an entry; returns ``False`` when the id is already known."""
        if entry.subscription.id in self._entries:
            return False
        self._entries[entry.subscription.id] = entry
        self._index.add(entry.subscription)
        return True

    def remove(self, subscription_id: str) -> Optional[RouteEntry]:
        """Remove and return an entry, or ``None`` when unknown."""
        entry = self._entries.pop(subscription_id, None)
        if entry is not None:
            self._index.remove(subscription_id)
        return entry

    def get(self, subscription_id: str) -> Optional[RouteEntry]:
        """Look up an entry by subscription identifier."""
        return self._entries.get(subscription_id)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def matching_entries_batch(
        self, publications: Sequence[Publication]
    ) -> List[Tuple[List[RouteEntry], int]]:
        """Per-publication ``(matching entries, tests)`` for a whole burst.

        The table's one lookup: a single ``match_batch`` call of the
        matcher answers the entire burst.  Entries are returned in
        insertion order; ``tests`` is the membership-test count the
        observability layer attributes per broker.
        """
        entries = self._entries
        return [
            ([entries[subscription.id] for subscription in matched], tests)
            for matched, tests in self._index.match_batch(publications)
        ]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._entries

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter(self._entries.values())
