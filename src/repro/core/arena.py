"""Contiguous subscription-bounds storage — the subsumption arena.

The probabilistic pipeline (conflict table, MCS, ``rho_w`` estimation,
RSPC) is pure bounds arithmetic: every stage consumes the candidates'
``(k, m)`` lower/upper bound matrices, never the subscription objects
themselves.  Historically each :meth:`SubsumptionChecker.check` call
re-materialised those matrices with ``np.vstack`` over a Python list —
an O(m·k) Python-loop cost paid per check, thousands of times per
scenario over largely overlapping candidate sets.

This module keeps the bounds resident instead:

* :class:`SubscriptionArena` — an incrementally maintained pair of
  ``(capacity, m)`` float64 arrays (lows/highs) with an id→row map and a
  free-list, owned by :class:`~repro.core.store.SubscriptionStore` (and
  exposed through :class:`~repro.matching.engine.MatchingEngine`).
  Adding or removing a subscription touches one row; a candidate set
  becomes a row-index gather instead of an object loop.
* :class:`CandidateSet` — an immutable snapshot of one candidate set:
  a ``Sequence[Subscription]`` (so every existing strategy/checker API
  keeps working) that also carries the stacked bounds.  Arena-backed
  snapshots gather their rows in a single vectorised fancy-index; plain
  snapshots (e.g. a broker link's advertisement set) stack lazily, once,
  instead of on every decision.  A snapshot never changes: an add or
  remove makes a new one (:meth:`CandidateSet.extended` for an append),
  and its owner reuses the old one only while the set is unchanged — a
  store until its next active-pool mutation, a broker link while its
  advertisement ``ids`` still match.

The signed layout.  Besides the row-major ``(k, m)`` pair, a snapshot
carries — built on first use, handed on by :meth:`CandidateSet.extended`
— the conflict table's own matrix: *signed, attribute-major*, shape
``(2m, k)``, candidate lower bounds on top of **negated** upper bounds,
one column per candidate (:attr:`CandidateSet.signed`).  On that layout
"does this box meet that one" is a single comparison against the other
box's upper end, :func:`boxes_meeting`, reducing along the short axis and
scanning along the contiguous one.  It is the checker's candidate screen
(:meth:`SubsumptionChecker.check <repro.core.subsumption.SubsumptionChecker.check>`
drops the candidates that cannot meet ``s`` before any table is built)
and, over raw bounds with a publication as the degenerate box, every
publication lookup — :func:`boxes_containing`, which the matcher, hence
the engine, the brokers' routing tables and the network's delivery
oracle, answer whole bursts with (:mod:`repro.matching.matcher`).  The
snapshot's matrix is *snapped*: on a discrete attribute only the ticks
inside a range exist, so lower bounds are rounded up and upper bounds
down — on the signed layout one ``ceil`` — and every stage of the
pipeline reads tick-exact bounds (:func:`signed_box` is the same for the
tested subscription).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.errors import ValidationError
from repro.model.subscriptions import Subscription

__all__ = [
    "SubscriptionArena",
    "CandidateSet",
    "as_candidate_set",
    "boxes_containing",
    "boxes_meeting",
    "signed_box",
]

#: free-list size below which compaction never triggers — small stores
#: churn through the free-list for free, only sustained deletion at scale
#: should pay for row moves
_COMPACT_MIN_FREE = 64


def boxes_meeting(signed: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Which columns of a signed ``(2m, n)`` matrix meet the box ``limit``.

    A column holds a box as its lower bounds on top of its negated upper
    bounds; ``limit`` holds the other box the opposite way round — upper
    bounds on top of negated lower bounds, shape ``(2m,)``.  ``low_c <=
    high`` and ``-high_c <= -low`` on every attribute is exactly "the two
    closed boxes share a point", and a point is the box with ``low ==
    high``.  A ``(2m, b)`` ``limit`` tests ``b`` boxes at once and returns
    a ``(b, n)`` mask.  NaN columns meet nothing.
    """
    if limit.ndim == 2:
        signed = signed[:, np.newaxis]
    return (signed <= limit[..., np.newaxis]).all(axis=0)


#: bound on the boolean workspace of one :func:`boxes_containing` kernel
#: call, in array cells; larger blocks of points are tested chunk by chunk
_CELL_BUDGET = 4_000_000


def boxes_containing(signed: np.ndarray, points: np.ndarray) -> List[List[int]]:
    """For every row of ``points``, the columns of ``signed`` holding it.

    ``signed`` is a signed ``(2m, n)`` matrix of *raw* bounds and
    ``points`` a ``(B, m)`` block; a point is the box with ``low == high``,
    so the answer is :func:`boxes_meeting` against ``[v, -v]`` — one kernel
    call and one ``nonzero`` per chunk of points, however many there are,
    each chunk's ``(2m, B', n)`` workspace within :data:`_CELL_BUDGET`.
    Column indices ascend within each list.  This is every publication
    lookup of the program: the matcher's ``match_batch``, hence
    the brokers' route lookup and the network's delivery oracle.
    """
    count = len(points)
    # C-ordered on purpose: concatenating the transposes would come out
    # Fortran-ordered, and the broadcast below is then 1.3-1.6x slower at
    # routing-table sizes
    limits = np.concatenate((points, -points), axis=1).T.copy()
    hits: List[List[int]] = [[] for _ in range(count)]
    step = max(1, _CELL_BUDGET // max(signed.size, 1))
    for start in range(0, count, step):
        mask = boxes_meeting(signed, limits[:, start : start + step])
        # flat, then split: a 2-D ``nonzero`` pays per cell, ten times over
        which, columns = np.divmod(np.nonzero(mask.ravel())[0], mask.shape[1])
        for point, column in zip((which + start).tolist(), columns.tolist()):
            hits[point].append(column)
    return hits


def _snap_inwards(signed: np.ndarray, schema) -> None:
    """Round the discrete axes of a signed ``(2m, n)`` matrix up to a tick,
    in place.

    ``ceil`` of a lower bound and, because ``ceil(-x) == -floor(x)``,
    ``floor`` of the upper bound negated below it.
    """
    where = schema.vectors.signed_discrete
    if where is not False:
        np.ceil(signed, out=signed, where=where)


def signed_box(subscription: Subscription) -> np.ndarray:
    """``subscription``'s two ends on the signed axes, snapped: ``(low, high)``.

    Row 0, ``low``, is the column the subscription contributes to a
    snapshot's :attr:`~CandidateSet.signed` matrix (``ceil`` of its lower
    bounds on top of the negated ``floor`` of its upper bounds on discrete
    axes, raw on continuous ones); row 1, ``high``, is the same box seen
    from above — upper bounds on top of negated lower bounds — i.e. the
    ``limit`` of :func:`boxes_meeting`.  One read-only ``(2, 2m)`` array,
    memoised on the subscription (its bounds are immutable) like the RSPC
    sampling plan.
    """
    box = subscription._signed_box
    if box is None:
        m = subscription.m
        box = np.empty((2, 2 * m), dtype=float)
        low, high = box
        low[:m] = subscription.lows
        np.negative(subscription.highs, out=low[m:])
        _snap_inwards(low[:, np.newaxis], subscription.schema)
        np.negative(low[m:], out=high[:m])
        np.negative(low[:m], out=high[m:])
        box.setflags(write=False)
        subscription._signed_box = box
    return box


class CandidateSet(Sequence):
    """Immutable snapshot of a candidate set with contiguous bounds.

    Behaves as a ``Sequence[Subscription]`` (iteration, indexing,
    ``len``) so it is a drop-in replacement for the candidate lists the
    reduction strategies and checkers historically received, while
    exposing the stacked ``(k, m)`` bounds the vectorised pipeline
    stages consume directly.

    Parameters
    ----------
    subscriptions:
        The candidate subscriptions, in decision order.
    lows, highs:
        Pre-gathered bounds (e.g. an arena row gather).  When omitted
        they are stacked lazily on first access — once per snapshot, not
        once per check.
    """

    __slots__ = (
        "subscriptions",
        "schema",
        "_lows",
        "_highs",
        "_signed",
        "_ids",
    )

    def __init__(
        self,
        subscriptions: Sequence[Subscription],
        lows: Optional[np.ndarray] = None,
        highs: Optional[np.ndarray] = None,
    ):
        self.subscriptions: Tuple[Subscription, ...] = tuple(subscriptions)
        if self.subscriptions:
            schema = self.subscriptions[0].schema
            # Identity-first scan: same-object schemas (the overwhelmingly
            # common case) cost one `is` each; genuinely different schemas
            # are rejected here so the zero-copy consumers downstream can
            # trust the snapshot without re-validating per candidate.
            for candidate in self.subscriptions:
                if candidate.schema is not schema and candidate.schema != schema:
                    raise ValidationError(
                        "candidate set requires all subscriptions to share a schema"
                    )
        else:
            schema = None
        self.schema = schema
        self._lows = lows
        self._highs = highs
        self._signed: Optional[np.ndarray] = None
        self._ids: Optional[Tuple[str, ...]] = None

    def extended(self, subscription: Subscription) -> "CandidateSet":
        """Snapshot of "these candidates, then ``subscription``".

        The append-only counterpart of re-snapshotting: one block copy of
        the stacked bounds plus one row (and of the signed matrix plus one
        column, once built), instead of a per-candidate gather and schema
        scan.  The result is a new snapshot with its own arrays, and this
        one is left untouched.
        """
        if not self.subscriptions:
            return CandidateSet((subscription,))
        self._check_same_schema(subscription)
        snapshot = CandidateSet.__new__(CandidateSet)
        snapshot.subscriptions = self.subscriptions + (subscription,)
        snapshot.schema = self.schema
        if self._lows is None:
            snapshot._lows = snapshot._highs = None  # still lazily stacked
        else:
            snapshot._lows = np.concatenate((self._lows, subscription.lows[np.newaxis]))
            snapshot._highs = np.concatenate(
                (self._highs, subscription.highs[np.newaxis])
            )
        if self._signed is None:
            snapshot._signed = None
        else:
            snapshot._signed = np.concatenate(
                (self._signed, signed_box(subscription)[0][:, np.newaxis]), axis=1
            )
            snapshot._signed.setflags(write=False)
        snapshot._ids = None if self._ids is None else self._ids + (subscription.id,)
        return snapshot

    # ------------------------------------------------------------------
    # The signed layout
    # ------------------------------------------------------------------
    @property
    def signed(self) -> np.ndarray:
        """Snapped signed attribute-major bounds, shape ``(2m, k)``, read-only.

        Rows ``0..m-1`` hold the candidates' lower bounds, rows
        ``m..2m-1`` their negated upper bounds, both rounded inwards to a
        tick on discrete attributes (see the module docstring).  Built on
        first access and shared, zero-copy, by every conflict table over
        this snapshot.
        """
        signed = self._signed
        if signed is None:
            lows, highs = self.lows, self.highs
            k, m = lows.shape
            signed = np.empty((2 * m, k), dtype=float)
            signed[:m] = lows.T
            np.negative(highs.T, out=signed[m:])
            if k:
                _snap_inwards(signed, self.schema)
            signed.setflags(write=False)
            self._signed = signed
        return signed

    def meeting(self, subscription: Subscription) -> np.ndarray:
        """Boolean ``(k,)`` mask of the candidates sharing a point with
        ``subscription`` — on discrete attributes, a tick.

        A candidate outside the mask can take no part in covering
        ``subscription``; it is what the checker screens out before it
        builds a conflict table.
        """
        self._check_same_schema(subscription)
        return boxes_meeting(self.signed, signed_box(subscription)[1])

    # ------------------------------------------------------------------
    # Vectorised containment
    # ------------------------------------------------------------------
    def _check_same_schema(self, subscription: Subscription) -> None:
        """Schema validation mirroring ``Subscription.covers`` (identity first)."""
        if (
            self.schema is not None
            and subscription.schema is not self.schema
            and subscription.schema != self.schema
        ):
            raise ValidationError(
                "subscriptions belong to different schemas "
                f"({subscription.schema.name!r} vs {self.schema.name!r})"
            )

    def covered_rows_mask(self, subscription: Subscription) -> np.ndarray:
        """Boolean mask of candidates pair-wise covered *by* ``subscription``.

        One broadcast containment test — the vectorised form of
        ``subscription.covers(candidate)`` per row (including its schema
        validation); shared by the store's demotion pass and anything
        else that asks "whom does the newcomer dominate?".
        """
        self._check_same_schema(subscription)
        return np.all(
            (subscription.lows <= self.lows) & (self.highs <= subscription.highs),
            axis=1,
        )

    def covering_rows_mask(self, subscription: Subscription) -> np.ndarray:
        """Boolean mask of candidates that pair-wise cover ``subscription``.

        The vectorised form of ``candidate.covers(subscription)`` per row
        (the classical covering test of the pair-wise strategies),
        including its schema validation.
        """
        self._check_same_schema(subscription)
        return np.all(
            (self.lows <= subscription.lows) & (subscription.highs <= self.highs),
            axis=1,
        )

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def _stack(self) -> None:
        if self.subscriptions:
            self._lows = np.array([s.lows for s in self.subscriptions])
            self._highs = np.array([s.highs for s in self.subscriptions])
        else:
            m = 0 if self.schema is None else self.schema.m
            self._lows = np.empty((0, m), dtype=float)
            self._highs = np.empty((0, m), dtype=float)

    @property
    def lows(self) -> np.ndarray:
        """Stacked per-candidate lower bounds, shape ``(k, m)``."""
        if self._lows is None:
            self._stack()
        return self._lows

    @property
    def highs(self) -> np.ndarray:
        """Stacked per-candidate upper bounds, shape ``(k, m)``."""
        if self._highs is None:
            self._stack()
        return self._highs

    @property
    def ids(self) -> Tuple[str, ...]:
        """Candidate identifiers, in decision order."""
        if self._ids is None:
            self._ids = tuple(s.id for s in self.subscriptions)
        return self._ids

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.subscriptions)

    def __getitem__(self, index):
        return self.subscriptions[index]

    def __iter__(self) -> Iterator[Subscription]:
        return iter(self.subscriptions)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CandidateSet(k={len(self.subscriptions)})"


def as_candidate_set(candidates: Sequence[Subscription]) -> CandidateSet:
    """Wrap ``candidates`` in a :class:`CandidateSet` (no-op when it is one)."""
    if isinstance(candidates, CandidateSet):
        return candidates
    return CandidateSet(candidates)


class SubscriptionArena:
    """Incrementally maintained contiguous bounds arrays.

    Rows are allocated on :meth:`add`, recycled through a free-list on
    :meth:`remove`, and the backing arrays double in capacity when full
    (amortised O(1) per insertion).  ``version`` increases on every
    mutation; snapshots taken through :meth:`select` copy the selected
    rows out, so they stay valid — and immutable — across later arena
    mutations.

    Sustained deletion compacts lazily: once the free-list holds at least
    ``_COMPACT_MIN_FREE`` rows *and* outnumbers the live rows, the live
    tail rows are moved down into the free slots.  The pass is O(dead +
    moved), touches the id↔row maps only for the rows it actually moves
    (never a full rebuild), and keeps the live rows densely packed in
    ``[0, next_row)`` — which is what lets churn at millions of rows
    proceed without stalls, and lets zero-copy consumers scan a bounded
    prefix instead of the whole capacity.
    """

    def __init__(self, m: Optional[int] = None, capacity: int = 32):
        self._m = m
        self._capacity = max(int(capacity), 1)
        self._lows: Optional[np.ndarray] = None
        self._highs: Optional[np.ndarray] = None
        if m is not None:
            self._allocate(m)
        self._row_of: dict = {}
        self._id_at: dict = {}
        self._free: List[int] = []
        self._next_row = 0
        self._version = 0
        self._compactions = 0
        self._moved_rows = 0

    def _allocate(self, m: int) -> None:
        self._m = int(m)
        self._lows, self._highs = self._new_arrays(self._capacity, self._m)

    # ------------------------------------------------------------------
    # Storage hooks (overridden by shared-memory-backed subclasses)
    # ------------------------------------------------------------------
    def _new_arrays(self, capacity: int, m: int):
        """Allocate a ``(capacity, m)`` lows/highs array pair.

        Subclasses override this to place the backing storage elsewhere
        (e.g. ``multiprocessing.shared_memory``); growth and compaction
        then work unchanged against whatever arrays it returns.
        """
        return (
            np.empty((capacity, m), dtype=float),
            np.empty((capacity, m), dtype=float),
        )

    def _retire_arrays(self, lows: np.ndarray, highs: np.ndarray) -> None:
        """Release a superseded array pair after a grow (default: GC)."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def m(self) -> Optional[int]:
        """Number of attributes per row (``None`` until the first add)."""
        return self._m

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by every add/remove)."""
        return self._version

    @property
    def capacity(self) -> int:
        """Currently allocated number of rows."""
        return self._capacity if self._lows is not None else 0

    @property
    def next_row(self) -> int:
        """One past the highest row ever handed out (live rows ⊆ ``[0, next_row)``)."""
        return self._next_row

    @property
    def compactions(self) -> int:
        """Number of compaction passes performed so far."""
        return self._compactions

    @property
    def moved_rows(self) -> int:
        """Total rows relocated by compaction (the O(moved) work measure)."""
        return self._moved_rows

    @property
    def lows(self) -> Optional[np.ndarray]:
        """The backing lower-bound array (``(capacity, m)``; live rows only are meaningful)."""
        return self._lows

    @property
    def highs(self) -> Optional[np.ndarray]:
        """The backing upper-bound array."""
        return self._highs

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._row_of

    def row_of(self, subscription_id: str) -> int:
        """Arena row currently holding ``subscription_id``."""
        return self._row_of[subscription_id]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, subscription: Subscription) -> int:
        """Copy a subscription's bounds into the arena; returns its row."""
        if self._lows is None:
            self._allocate(subscription.m)
        elif subscription.m != self._m:
            raise ValidationError(
                f"arena holds {self._m}-attribute rows; got {subscription.m}"
            )
        if subscription.id in self._row_of:
            raise ValidationError(
                f"subscription {subscription.id!r} is already in the arena"
            )
        if self._free:
            row = self._free.pop()
        else:
            if self._next_row == self._capacity:
                self._grow()
            row = self._next_row
            self._next_row += 1
        self._lows[row] = subscription.lows
        self._highs[row] = subscription.highs
        self._row_of[subscription.id] = row
        self._id_at[row] = subscription.id
        self._version += 1
        return row

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        lows, highs = self._new_arrays(new_capacity, self._m)
        lows[: self._capacity] = self._lows
        highs[: self._capacity] = self._highs
        old_lows, old_highs = self._lows, self._highs
        self._lows = lows
        self._highs = highs
        self._capacity = new_capacity
        self._retire_arrays(old_lows, old_highs)

    def remove(self, subscription_id: str) -> int:
        """Release the row of ``subscription_id`` back to the free-list."""
        row = self._row_of.pop(subscription_id)
        del self._id_at[row]
        self._free.append(row)
        self._version += 1
        if (
            len(self._free) >= _COMPACT_MIN_FREE
            and len(self._free) >= len(self._row_of)
        ):
            self._compact()
        return row

    def _compact(self) -> None:
        """Pack the live rows into ``[0, live)``; O(dead + moved).

        Only the rows moved down out of the tail touch the id↔row maps —
        entries of unmoved rows are left exactly as they were (no eager
        rebuild), which the regression test pins.
        """
        live = len(self._row_of)
        dest_slots = sorted(row for row in self._free if row < live)
        if dest_slots:
            src_rows = sorted(
                (row for row in self._id_at if row >= live), reverse=True
            )
            for dest, src in zip(dest_slots, src_rows):
                subscription_id = self._id_at.pop(src)
                self._lows[dest] = self._lows[src]
                self._highs[dest] = self._highs[src]
                self._row_of[subscription_id] = dest
                self._id_at[dest] = subscription_id
            self._moved_rows += len(dest_slots)
        self._free.clear()
        self._next_row = live
        self._compactions += 1
        self._version += 1

    def discard(self, subscription_id: str) -> Optional[int]:
        """Like :meth:`remove`, but a no-op for unknown identifiers."""
        if subscription_id not in self._row_of:
            return None
        return self.remove(subscription_id)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def select(self, subscriptions: Sequence[Subscription]) -> CandidateSet:
        """Snapshot a candidate set in one vectorised row gather.

        The subscriptions must all be resident in the arena; their order
        defines the snapshot's candidate order (and therefore the row
        indices of verdicts computed against it).
        """
        subscriptions = tuple(subscriptions)
        if not subscriptions or self._lows is None:
            return CandidateSet(subscriptions)
        rows = np.fromiter(
            (self._row_of[s.id] for s in subscriptions),
            dtype=np.intp,
            count=len(subscriptions),
        )
        return CandidateSet(subscriptions, self._lows[rows], self._highs[rows])

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"SubscriptionArena(n={len(self._row_of)}, m={self._m}, "
            f"capacity={self.capacity}, version={self._version})"
        )
