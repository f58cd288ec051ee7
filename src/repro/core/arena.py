"""Subscription bounds as signed columns: the matcher and candidate snapshots.

Every stage of the probabilistic pipeline (conflict table, MCS, ``rho_w``
estimation, RSPC) and every publication lookup is bounds arithmetic, and
all of it reads one layout: *signed, attribute-major*, shape ``(2m, n)``,
one column per subscription with its lower bounds on top of its
**negated** upper bounds.  On that layout "does this box meet that one"
is a single comparison against the other box's upper end,
:func:`boxes_meeting`, reducing along the short axis and scanning along
the contiguous one; a publication is the degenerate box ``low == high``
(:func:`boxes_containing`).  IEEE negation is exact, so every bound reads
back bit for bit.

This module keeps those columns:

* :class:`Matcher` — one insertion-ordered set of subscriptions of one
  schema, kept incrementally as *raw* signed columns, each with a
  *payload* its lookups gather (the subscription, a route entry, the
  oracle's record fields).  It answers every publication lookup (the
  engine, in-process or in a shard worker, every broker's routing table
  and the network's delivery oracle), and a store's active and covered
  pools are two matchers — so each pool's bounds exist once.
* :class:`CandidateSet` — an immutable snapshot of one candidate set: a
  ``Sequence[Subscription]`` (so every strategy/checker API keeps
  working) that also carries the candidates' raw signed columns
  (:attr:`CandidateSet.raw`) and their snapped twin
  (:attr:`CandidateSet.signed`).  A store's snapshot is a copy of its
  active matcher's live columns (:meth:`Matcher.candidates`); no later
  add, remove or compaction changes it.  An append makes a new snapshot
  (:meth:`CandidateSet.extended`), and a store reuses one only until its
  next active-pool mutation.

The snapped twin.  On a discrete attribute only the ticks inside a range
exist, so lower bounds are rounded up and upper bounds down — on the
signed layout one ``ceil`` — and every stage of the checker reads
tick-exact bounds (:func:`signed_box` is the same for the tested
subscription).  It is the checker's candidate screen
(:meth:`SubsumptionChecker.check <repro.core.subsumption.SubsumptionChecker.check>`
drops the candidates that cannot meet ``s`` before any table is built)
and the conflict table's own matrix.  The matcher keeps bounds raw: its
contract is :meth:`Subscription.contains_values`.

A matcher's maintenance never rebuilds the storage: ``add`` fills the
next column of a geometrically grown matrix and ``remove`` tombstones its
column with NaN, which no comparison passes (as is every column never
used).  Tombstones are compacted away, preserving insertion order, once
they rival the live columns, so a match is one pass over at most
``2 x live`` columns.  Payloads come back in insertion order, and each
answer is charged ``tests = len(matcher)``: one logical membership test
per stored subscription, what a flat scan would do.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.errors import ValidationError
from repro.model.publications import Publication
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription

__all__ = [
    "CandidateSet",
    "MatchCandidates",
    "Matcher",
    "as_candidate_set",
    "boxes_containing",
    "boxes_meeting",
    "signed_box",
]

#: the payloads of the matching subscriptions (insertion order) plus tests
MatchCandidates = Tuple[List[Any], int]

#: smallest matcher capacity allocated (and smallest tombstone debt compacted)
_MIN_CAPACITY = 8


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

#: share of a large block's (point, column) pairs below which its remaining
#: rows are tested on the surviving pairs only (:func:`_surviving`)
_SPARSE_SHARE = 0.125


def boxes_containing(signed: np.ndarray, points: np.ndarray):
    """The ``(point, column)`` pairs where a column of ``signed`` holds a
    row of ``points``, as two flat arrays in row-major order.

    ``signed`` is a signed ``(2m, n)`` matrix of *raw* bounds and
    ``points`` a ``(B, m)`` block; a point is the box with ``low == high``,
    so the answer is :func:`boxes_meeting` against ``[v, -v]`` — one kernel
    call and one ``nonzero`` per chunk of points, however many there
    are, each chunk's ``(2m, B', n)`` workspace within
    :data:`_CELL_BUDGET`.  A block within one budget is tested on every row
    at once; a larger one (an engine publish burst) chunk by chunk through
    :func:`_surviving`.  Points ascend, and columns ascend within a point.
    This is every publication lookup of the program:
    :meth:`Matcher.match_values`, hence the engine's publish bursts
    (in-process or in a shard worker), the brokers' route lookup and the
    network's delivery oracle.
    """
    count = len(points)
    # C-ordered on purpose: concatenating the transposes would come out
    # Fortran-ordered, and the broadcast below is then 1.3-1.6x slower at
    # routing-table sizes
    limits = np.concatenate((points, -points), axis=1).T.copy()
    step = max(1, _CELL_BUDGET // max(signed.size, 1))
    if count <= step:
        mask = boxes_meeting(signed, limits)
        # flat, then split: a 2-D ``nonzero`` pays per cell, ten times over
        return np.divmod(np.nonzero(mask.ravel())[0], mask.shape[1])
    pairs = []
    for start in range(0, count, step):
        which, columns = _surviving(signed, limits[:, start : start + step])
        pairs.append((which + start, columns))
    points_hit, columns = zip(*pairs)
    return np.concatenate(points_hit), np.concatenate(columns)


def _surviving(signed: np.ndarray, limits: np.ndarray):
    """``(points, columns)`` of the pairs of a ``(B', n)`` block that pass
    every row of ``signed`` against ``limits``, in row-major order.

    Rows are tested one at a time over the whole block while more than
    :data:`_SPARSE_SHARE` of its pairs survive, then on the survivors only.
    On ``cycle-engine`` a tenth survive the first four rows and the kernel
    takes half the time; where rows barely filter, as in the overlay's
    oracle, the block stays dense.  A pair is kept only if it passes every
    row, so the answer is the dense one.
    """
    rows, width = signed.shape
    mask = boxes_meeting(signed[:1], limits[:1])
    row = 1
    while row < rows and np.count_nonzero(mask) > _SPARSE_SHARE * mask.size:
        mask &= signed[row] <= limits[row][:, np.newaxis]
        row += 1
    which, columns = np.divmod(np.flatnonzero(mask), width)
    for row in range(row, rows):
        keep = signed[row].take(columns) <= limits[row].take(which)
        which, columns = which[keep], columns[keep]
    return which, columns


def _snap_inwards(signed: np.ndarray, schema) -> None:
    """Round the discrete axes of a signed ``(2m, n)`` matrix up to a tick,
    in place.

    ``ceil`` of a lower bound and, because ``ceil(-x) == -floor(x)``,
    ``floor`` of the upper bound negated below it.
    """
    where = schema.vectors.signed_discrete
    if where is not False:
        np.ceil(signed, out=signed, where=where)


def _raw_column(subscription: Subscription) -> np.ndarray:
    """``subscription``'s raw signed column: lows on top of negated highs."""
    return np.concatenate((subscription.lows, -subscription.highs))


def _appended(columns: Optional[np.ndarray], column: np.ndarray):
    """``columns`` plus ``column`` on the right, read-only; ``None`` (not
    built yet) stays ``None``."""
    if columns is None:
        return None
    grown = np.concatenate((columns, column[:, np.newaxis]), axis=1)
    grown.setflags(write=False)
    return grown


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
    """Immutable snapshot of a candidate set with its bounds as columns.

    Behaves as a ``Sequence[Subscription]`` (iteration, indexing,
    ``len``) so it is a drop-in replacement for the candidate lists the
    reduction strategies and checkers historically received, while
    carrying the raw signed ``(2m, k)`` bounds (:attr:`raw`) and their
    snapped twin (:attr:`signed`) the vectorised pipeline stages consume
    directly.

    Parameters
    ----------
    subscriptions:
        The candidate subscriptions, in decision order.
    raw:
        Their raw signed bounds, already gathered (a matcher's live
        columns, :meth:`Matcher.candidates`); the snapshot owns the array
        from then on.  When omitted they are stacked lazily on first
        access — once per snapshot, not once per check.
    """

    __slots__ = (
        "subscriptions",
        "schema",
        "_raw",
        "_signed",
    )

    def __init__(
        self,
        subscriptions: Sequence[Subscription],
        raw: Optional[np.ndarray] = None,
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
        if raw is not None:
            raw.setflags(write=False)
        self._raw = raw
        self._signed: Optional[np.ndarray] = None

    def extended(self, subscription: Subscription) -> "CandidateSet":
        """Snapshot of "these candidates, then ``subscription``".

        The append-only counterpart of re-snapshotting: one block copy of
        the raw columns plus one column (and of the snapped twin plus one
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
        snapshot._raw = _appended(self._raw, _raw_column(subscription))
        snapshot._signed = _appended(self._signed, signed_box(subscription)[0])
        return snapshot

    # ------------------------------------------------------------------
    # The signed layout
    # ------------------------------------------------------------------
    @property
    def raw(self) -> np.ndarray:
        """Raw signed attribute-major bounds, shape ``(2m, k)``, read-only.

        Rows ``0..m-1`` hold the candidates' lower bounds and rows
        ``m..2m-1`` their negated upper bounds, exactly as given.
        """
        raw = self._raw
        if raw is None:
            m = 0 if self.schema is None else self.schema.m
            raw = np.empty((2 * m, len(self.subscriptions)), dtype=float)
            if self.subscriptions:
                raw[:m] = np.array([s.lows for s in self.subscriptions]).T
                np.negative(
                    np.array([s.highs for s in self.subscriptions]).T, out=raw[m:]
                )
            raw.setflags(write=False)
            self._raw = raw
        return raw

    @property
    def signed(self) -> np.ndarray:
        """Snapped signed attribute-major bounds, shape ``(2m, k)``, read-only.

        :attr:`raw` rounded inwards to a tick on discrete attributes (see
        the module docstring).  Built on first access and shared,
        zero-copy, by every conflict table over this snapshot.
        """
        signed = self._signed
        if signed is None:
            signed = self.raw.copy()
            if signed.shape[1]:
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

    def covering_rows_mask(self, subscription: Subscription) -> np.ndarray:
        """Boolean mask of candidates that pair-wise cover ``subscription``.

        The vectorised form of ``candidate.covers(subscription)`` per
        column (the classical covering test of the pair-wise strategies),
        including its schema validation: ``low_c <= low`` and ``-high_c <=
        -high`` on every attribute, one ``<=`` on the raw columns.
        """
        self._check_same_schema(subscription)
        return (self.raw <= _raw_column(subscription)[:, np.newaxis]).all(axis=0)

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


class Matcher:
    """Insertion-ordered subscriptions of one schema as raw signed columns.

    A matcher is bound to the schema of its first subscription; a
    subscription or publication of any other schema is rejected with
    :class:`~repro.model.errors.ValidationError`.
    """

    def __init__(self) -> None:
        #: the schema of the first subscription stored, fixed from then on
        self.schema: Optional[Schema] = None
        #: signed bounds, one column per row in use; NaN marks a tombstone
        self._signed = np.empty((0, 0))
        #: rows in use, tombstones included
        self._size = 0
        self._dead = 0
        self._subscriptions: List[Optional[Subscription]] = []
        #: what each column's lookups answer with (``None`` when unused)
        self._payloads = np.empty(0, dtype=object)
        self._rows: Dict[str, int] = {}
        #: compaction passes so far, and the live columns they relocated
        self.compactions = 0
        self.moved_rows = 0

    def _check_schema(self, schema: Schema, what: str) -> None:
        if schema is not self.schema and schema != self.schema:
            raise ValidationError(f"{what} schema does not match the matcher's")

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, subscription: Subscription, payload: Any = None) -> None:
        """Store a subscription (fills one column; never rebuilds); its
        lookups answer with ``payload``, by default the subscription."""
        if subscription.id in self._rows:
            raise ValidationError(
                f"subscription {subscription.id!r} is already indexed"
            )
        if self.schema is None:
            self.schema = subscription.schema
            self._signed = np.empty((2 * subscription.m, 0))
        else:
            self._check_schema(subscription.schema, "subscription")
        row = self._size
        if row == self._signed.shape[1]:
            self._resize(max(_MIN_CAPACITY, 2 * row), slice(0, row))
        m = subscription.m
        self._signed[:m, row] = subscription.lows
        np.negative(subscription.highs, out=self._signed[m:, row])
        self._payloads[row] = subscription if payload is None else payload
        self._subscriptions.append(subscription)
        self._rows[subscription.id] = row
        self._size += 1

    def remove(self, subscription_id: str) -> Optional[Subscription]:
        """Drop a subscription (tombstones its column) and return it;
        ``None`` if unknown."""
        row = self._rows.pop(subscription_id, None)
        if row is None:
            return None
        subscription = self._subscriptions[row]
        self._signed[:, row] = np.nan
        self._subscriptions[row] = None
        self._payloads[row] = None
        self._dead += 1
        if self._dead >= _MIN_CAPACITY and 2 * self._dead >= self._size:
            self._compact()
        return subscription

    def _resize(self, capacity: int, keep) -> None:
        """Move the ``keep`` columns (and payloads) to a fresh NaN matrix."""
        signed = np.full((self._signed.shape[0], capacity), np.nan)
        kept = self._signed[:, keep]
        signed[:, : kept.shape[1]] = kept
        self._signed = signed
        payloads = np.empty(capacity, dtype=object)
        payloads[: kept.shape[1]] = self._payloads[keep]
        self._payloads = payloads

    def _live(self) -> List[int]:
        return [i for i, s in enumerate(self._subscriptions) if s is not None]

    def _compact(self) -> None:
        """Drop tombstoned columns, preserving the insertion order of the rest."""
        keep = self._live()
        self._resize(max(_MIN_CAPACITY, len(keep)), keep)
        self.compactions += 1
        self.moved_rows += sum(new != old for new, old in enumerate(keep))
        self._subscriptions = [self._subscriptions[i] for i in keep]
        self._rows = {s.id: i for i, s in enumerate(self._subscriptions)}
        self._size = len(keep)
        self._dead = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def candidates(self) -> CandidateSet:
        """Snapshot of the live subscriptions, in insertion order.

        Its bounds are a gathered copy of the live columns: a later add,
        remove or compaction writes into this matcher's matrix, never
        into a snapshot.
        """
        keep = self._live()
        return CandidateSet(
            [self._subscriptions[i] for i in keep], self._signed.take(keep, axis=1)
        )

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._rows

    def __iter__(self) -> Iterator[Subscription]:
        """The live subscriptions, in insertion order."""
        return (s for s in self._subscriptions if s is not None)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match_candidates(self, publication: Publication) -> MatchCandidates:
        """``(payloads of the subscriptions holding publication, tests)``.

        One point needs no split: the kernel on a 1-D limit, at a third of
        the batched routine's fixed cost.  :meth:`MatchingEngine.match
        <repro.matching.engine.MatchingEngine.match>` calls it; a burst,
        however short, goes through :meth:`match_batch`.
        """
        tests = len(self._rows)
        if not tests:
            return [], 0
        self._check_schema(publication.schema, "publication")
        values = publication.values
        size = self._size
        hits = boxes_meeting(self._signed[:, :size], np.concatenate((values, -values)))
        return self._payloads[:size][hits].tolist(), tests

    def match_batch(self, publications: Sequence[Publication]) -> List[MatchCandidates]:
        """:meth:`match_candidates` of every publication: its schema check,
        then :meth:`match_values` of the burst's value block.
        """
        return self.match_values(self.value_block(publications))

    def value_block(self, publications: Sequence[Publication]) -> np.ndarray:
        """The ``(B, m)`` values of a burst, once every publication's schema
        has passed :meth:`check_schema`; an empty matcher reads none
        (``(B, 0)``)."""
        if not self._rows:
            return np.empty((len(publications), 0))
        schema = self.schema
        for publication in publications:
            if publication.schema is not schema:
                self._check_schema(publication.schema, "publication")
        return np.array([p.values for p in publications])

    def check_schema(self, schema: Schema) -> None:
        """Reject a publication schema other than the stored subscriptions'
        with :class:`ValidationError`; an empty matcher takes any."""
        if self._rows:
            self._check_schema(schema, "publication")

    def match_values(self, values: np.ndarray) -> List[MatchCandidates]:
        """:meth:`match_candidates` of every row of a ``(B, m)`` block of
        this matcher's schema, in one kernel call per chunk
        (:func:`boxes_containing`).  The caller vouches for the schema.
        """
        count = len(values)
        tests = len(self._rows)
        if not tests or not count:
            return [([], 0) for _ in range(count)]
        points, columns = boxes_containing(self._signed[:, : self._size], values)
        # one gather for every hit, then a slice per row, cut at the
        # running total of the hits per row
        hits = self._payloads.take(columns).tolist()
        ends = np.bincount(points, minlength=count).cumsum().tolist()
        return [(hits[start:end], tests) for start, end in zip([0] + ends, ends)]
