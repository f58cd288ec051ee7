"""Subscriptions.

A :class:`Subscription` is a conjunction of range constraints over the
attributes of a schema — geometrically an axis-aligned hyper-rectangle
(Definition 1 of the paper).  Attributes without an explicit constraint
cover their whole domain, which matches the paper's ``(-inf, +inf)``
convention for insignificant attributes.

The class stores the encoded bounds in two NumPy arrays (``lows`` and
``highs``), which lets the core algorithms (conflict table, RSPC, MCS,
pair-wise covering) work with vectorised comparisons.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.model.errors import DomainError, ValidationError
from repro.model.intervals import Interval
from repro.model.schema import Schema
from repro.utils.rng import integers_into

__all__ = ["Subscription"]

_id_counter = itertools.count(1)


def _next_subscription_id() -> str:
    """Generate a readable, process-unique subscription identifier."""
    return f"sub-{next(_id_counter):06d}"


def _clip_to_domain(schema: Schema, lows: np.ndarray, highs: np.ndarray) -> None:
    """Clip ``(m,)`` or ``(n, m)`` bounds to the domain in place, raising
    unless every row is a non-empty box that meets the domain.

    The error is the one the first bad row raises on its own: an empty
    constraint before one outside the domain, naming the offending
    attributes.
    """
    empty = lows > highs
    lows_full, highs_full = schema.full_bounds()
    # Clip to the domain so that measures and samples stay well defined.
    np.maximum(lows, lows_full, out=lows)
    np.minimum(highs, highs_full, out=highs)
    # clipping never mends an empty constraint, so this holds every bad row
    outside = (lows > highs).reshape(-1, schema.m)
    if outside.any():
        row = outside.any(axis=1).argmax()
        bad = empty.reshape(-1, schema.m)[row]
        message = "empty constraint on attributes"
        if not bad.any():
            bad = outside[row]
            message = "constraints outside the attribute domain on"
        names = [name for name, flag in zip(schema.names, bad) if flag]
        raise ValidationError(f"{message}: {names}")


class Subscription:
    """An axis-aligned hyper-rectangle over a schema's attribute space.

    Parameters
    ----------
    schema:
        The attribute space the subscription lives in.
    lows, highs:
        Per-attribute encoded lower/upper bounds (inclusive).  Arrays of
        length ``schema.m``.
    subscription_id:
        Optional external identifier; autogenerated when omitted.
    subscriber:
        Optional identifier of the issuing subscriber (used by the matching
        engine and the broker simulator).
    metadata:
        Free-form annotation dictionary carried along but ignored by the
        algorithms.
    """

    __slots__ = (
        "schema",
        "lows",
        "highs",
        "id",
        "subscriber",
        "metadata",
        "_size",
        "_bounds_list",
        "_sampling_plan",
        "_signed_box",
    )

    def __init__(
        self,
        schema: Schema,
        lows: Sequence[float],
        highs: Sequence[float],
        subscription_id: Optional[str] = None,
        subscriber: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        lows_arr = np.asarray(lows, dtype=float).copy()
        highs_arr = np.asarray(highs, dtype=float).copy()
        if lows_arr.shape != (schema.m,) or highs_arr.shape != (schema.m,):
            raise ValidationError(
                f"bounds must have shape ({schema.m},); got {lows_arr.shape} and {highs_arr.shape}"
            )
        _clip_to_domain(schema, lows_arr, highs_arr)
        lows_arr.setflags(write=False)
        highs_arr.setflags(write=False)
        self.schema = schema
        self.lows = lows_arr
        self.highs = highs_arr
        self.id = subscription_id or _next_subscription_id()
        self.subscriber = subscriber
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self._size: Optional[float] = None
        self._bounds_list: Optional[Tuple[List[float], List[float]]] = None
        #: cached :meth:`sampling_plan` (bounds are immutable)
        self._sampling_plan: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: cached snapped ends on the signed axes
        #: (:func:`repro.core.arena.signed_box`)
        self._signed_box: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_constraints(
        cls,
        schema: Schema,
        constraints: Mapping[str, Any],
        subscription_id: Optional[str] = None,
        subscriber: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> "Subscription":
        """Build a subscription from a ``{attribute: constraint}`` mapping.

        Constraint values follow :meth:`Schema.encode_constraints`: a single
        value (equality), a ``(low, high)`` pair, an :class:`Interval`, or
        ``None`` / ``"*"`` for "any".
        """
        lows, highs = schema.encode_constraints(constraints)
        return cls(schema, lows, highs, subscription_id, subscriber, metadata)

    @classmethod
    def whole_space(
        cls,
        schema: Schema,
        subscription_id: Optional[str] = None,
        subscriber: Optional[str] = None,
    ) -> "Subscription":
        """The subscription matching every publication of the schema."""
        lows, highs = schema.full_bounds()
        return cls(schema, lows, highs, subscription_id, subscriber)

    @classmethod
    def from_matrix(
        cls,
        schema: Schema,
        lows: Sequence[Sequence[float]],
        highs: Sequence[Sequence[float]],
    ) -> List["Subscription"]:
        """One subscription per row of two encoded ``(n, m)`` bound matrices.

        Equal, subscription for subscription, to calling the constructor on
        each pair of rows — same clipped bounds, identifiers (autogenerated
        in row order), read-only flags and :class:`ValidationError` (naming
        the first bad row's attributes) — but each matrix is copied and
        checked against the domain once, and every :attr:`lows` /
        :attr:`highs` is a read-only row view of that one copy.
        """
        lows_matrix = np.array(lows, dtype=float)
        highs_matrix = np.array(highs, dtype=float)
        if (
            lows_matrix.ndim != 2
            or highs_matrix.ndim != 2
            or len(lows_matrix) != len(highs_matrix)
        ):
            raise ValidationError(
                f"bounds must be two (n, {schema.m}) matrices; "
                f"got {lows_matrix.shape} and {highs_matrix.shape}"
            )
        if lows_matrix.shape[1] != schema.m or highs_matrix.shape[1] != schema.m:
            raise ValidationError(
                f"bounds must have shape ({schema.m},); "
                f"got {lows_matrix.shape[1:]} and {highs_matrix.shape[1:]}"
            )
        _clip_to_domain(schema, lows_matrix, highs_matrix)
        lows_matrix.setflags(write=False)
        highs_matrix.setflags(write=False)
        subscriptions = []
        for low_row, high_row in zip(lows_matrix, highs_matrix):
            subscription = cls.__new__(cls)
            subscription.schema = schema
            subscription.lows = low_row
            subscription.highs = high_row
            subscription.id = _next_subscription_id()
            subscription.subscriber = None
            subscription.metadata = {}
            subscription._size = None
            subscription._bounds_list = None
            subscription._sampling_plan = None
            subscription._signed_box = None
            subscriptions.append(subscription)
        return subscriptions

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of attributes."""
        return self.schema.m

    def interval(self, key: Union[str, int]) -> Interval:
        """Constraint interval for one attribute (by name or index)."""
        j = key if isinstance(key, int) else self.schema.index_of(key)
        return Interval(float(self.lows[j]), float(self.highs[j]))

    def intervals(self) -> List[Interval]:
        """Per-attribute constraint intervals in schema order."""
        return [self.interval(j) for j in range(self.m)]

    def constrains(self, key: Union[str, int]) -> bool:
        """Whether the attribute is narrower than its full domain."""
        j = key if isinstance(key, int) else self.schema.index_of(key)
        domain = self.schema.domain(j)
        return (
            self.lows[j] > domain.lower_bound or self.highs[j] < domain.upper_bound
        )

    def size(self) -> float:
        """The paper's ``I(s)``: the number of points (ticks) inside.

        Memoised — the bounds are immutable, and the ``rho_w`` estimator
        asks for the same subscription's measure on every check.
        """
        if self._size is None:
            self._size = self.schema.measure(self.lows, self.highs)
        return self._size

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def contains_point(self, point: Sequence[float]) -> bool:
        """Whether the encoded ``point`` satisfies every constraint."""
        arr = np.asarray(point, dtype=float)
        if arr.shape != (self.m,):
            raise ValidationError(
                f"point has shape {arr.shape}, expected ({self.m},)"
            )
        return bool(np.all(arr >= self.lows) and np.all(arr <= self.highs))

    def contains_values(self, values: Sequence[float]) -> bool:
        """Membership test against an already-encoded point (fast path).

        ``values`` is a length-``m`` encoded point (e.g.
        :attr:`Publication.values_list`); the comparisons are performed
        in pure Python with early exit, which beats a NumPy reduction by
        an order of magnitude at typical ``m``.  Behaviour (including the
        shape validation) is identical to :meth:`contains_point`.
        """
        bounds = self._bounds_list
        if bounds is None:
            bounds = self._bounds_list = (self.lows.tolist(), self.highs.tolist())
        lows, highs = bounds
        if len(values) != len(lows):
            raise ValidationError(
                f"point has shape ({len(values)},), expected ({len(lows)},)"
            )
        for j, value in enumerate(values):
            # Negated chained comparison so NaN coordinates fail the test,
            # exactly as the NumPy reduction in contains_point does.
            if not lows[j] <= value <= highs[j]:
                return False
        return True

    def matches(self, publication: "Any") -> bool:
        """Whether a :class:`~repro.model.publications.Publication` matches."""
        return self.contains_values(publication.values_list)

    def covers(self, other: "Subscription") -> bool:
        """Pair-wise covering test: ``other ⊑ self``.

        This is the classical check used by covering-based routing: every
        point satisfying ``other`` also satisfies ``self``.
        """
        self._check_same_schema(other)
        return bool(
            np.all(self.lows <= other.lows) and np.all(other.highs <= self.highs)
        )

    def union_hull(self, other: "Subscription") -> "Subscription":
        """Smallest hyper-rectangle containing both subscriptions.

        This is the *merging* operator discussed in the related work: the
        hull may cover points that neither input covers (false positives).
        """
        self._check_same_schema(other)
        lows = np.minimum(self.lows, other.lows)
        highs = np.maximum(self.highs, other.highs)
        return Subscription(
            self.schema,
            lows,
            highs,
            subscription_id=f"{self.id}|{other.id}",
        )

    def same_box(self, other: "Subscription") -> bool:
        """Whether the two subscriptions constrain exactly the same region."""
        self._check_same_schema(other)
        return bool(
            np.array_equal(self.lows, other.lows)
            and np.array_equal(self.highs, other.highs)
        )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sampling_plan(self) -> Tuple[np.ndarray, np.ndarray]:
        """How points inside the box are drawn, computed once per box.

        The plan is one run of integer draws over every attribute column:
        ``(first, beyond)``, the per-column bounds of one ``rng.integers``
        call, each of shape ``(m, 1)``.  The bounds are snapped inwards like
        :meth:`AttributeDomain.sample` does (``ceil`` low, ``floor`` high),
        so every draw is a tick of the box; a range holding no tick raises
        :class:`DomainError`.
        """
        plan = self._sampling_plan
        if plan is not None:
            return plan
        first = [math.ceil(low) for low in self.lows.tolist()]
        beyond = [math.floor(high) + 1 for high in self.highs.tolist()]
        if any(a >= b for a, b in zip(first, beyond)):
            raise DomainError("cannot sample from an empty interval")
        plan = (
            np.array(first, dtype=np.int64)[:, np.newaxis],
            np.array(beyond, dtype=np.int64)[:, np.newaxis],
        )
        # Bounds are immutable after construction, so the plan rides on
        # the object across the many re-checks brokers perform and the
        # many publications a workload draws from one box.
        self._sampling_plan = plan
        return plan

    def draw_batches(self, rng: Any, batches: int, size: int) -> np.ndarray:
        """Draw ``batches`` consecutive batches of ``size`` points each.

        The one way to draw inside a box.  Returns the points
        attribute-major, shape ``(m, batches * size)``, batch after batch.
        The bit generator is consumed exactly as by drawing every column
        of every batch with its own scalar-bounds call, in batch then
        column order: ``Generator.integers`` with broadcast bounds fills
        its output in C order through the same bounded-integer routine as
        the scalar call (pinned by
        ``tests/test_rspc_kernel.py::TestNumpyStreamProperty``), so the
        whole group is one such draw: a
        :func:`~repro.utils.rng.integers_into` call, which gives that
        call's values and end state, computing large draws on a ``PCG64``
        from raw words.  RSPC draws batches of 256 guesses;
        :meth:`sample_points` draws batches of one.
        """
        first, beyond = self.sampling_plan()
        points = np.empty((self.m, batches, size), dtype=float)
        integers_into(rng, first, beyond, points)
        return points.reshape(self.m, batches * size)

    def sample_points(self, rng: Any, count: int) -> np.ndarray:
        """``count`` uniformly random encoded points inside the box, one per row.

        Each point draws its coordinates in attribute order before the
        next point starts — the stream of ``count x m`` scalar
        :meth:`AttributeDomain.sample` calls — so a run of ``count`` leaves
        ``rng`` where ``count`` runs of one do, with the same values
        (``tests/test_scenario_compile.py::TestSamplePoints``).  The whole
        run is one :func:`~repro.utils.rng.integers_into` draw of ``count``
        batches of one — ``Generator.integers``' own call below 4 096
        words, so a single point takes NumPy's path.  The result is a fresh
        C-ordered ``(count, m)`` matrix.
        """
        return np.ascontiguousarray(self.draw_batches(rng, count, 1).T)

    def sample_point(self, rng: Any) -> np.ndarray:
        """Sample a uniformly random encoded point inside the subscription.

        This is the GUESS step of the RSPC algorithm (Algorithm 1, line 3);
        a run of one (:meth:`sample_points`).
        """
        return self.sample_points(rng, 1)[0]

    def _check_same_schema(self, other: "Subscription") -> None:
        if self.schema != other.schema:
            raise ValidationError(
                "subscriptions belong to different schemas "
                f"({self.schema.name!r} vs {other.schema.name!r})"
            )

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------
    def replace(
        self,
        constraints: Optional[Mapping[str, Any]] = None,
        subscription_id: Optional[str] = None,
        subscriber: Optional[str] = None,
    ) -> "Subscription":
        """Return a copy with some constraints overridden."""
        lows = self.lows.copy()
        highs = self.highs.copy()
        if constraints:
            new_lows, new_highs = self.schema.encode_constraints(constraints)
            for name in constraints:
                j = self.schema.index_of(name)
                lows[j] = new_lows[j]
                highs[j] = new_highs[j]
        return Subscription(
            self.schema,
            lows,
            highs,
            subscription_id=subscription_id or self.id,
            subscriber=subscriber if subscriber is not None else self.subscriber,
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line, human-readable description of the constraints."""
        lines = [f"Subscription {self.id}"]
        for j, attr in enumerate(self.schema.attributes):
            interval = self.interval(j)
            if not self.constrains(j):
                lines.append(f"  {attr.name}: *")
            else:
                low = attr.domain.decode(interval.low)
                high = attr.domain.decode(interval.high)
                if low == high:
                    lines.append(f"  {attr.name}: {low!r}")
                else:
                    lines.append(f"  {attr.name}: [{low!r}, {high!r}]")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        parts = []
        for j in range(min(self.m, 4)):
            parts.append(f"{self.schema.names[j]}=[{self.lows[j]:g}, {self.highs[j]:g}]")
        suffix = ", ..." if self.m > 4 else ""
        return f"Subscription({self.id!r}, {', '.join(parts)}{suffix})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subscription):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.id == other.id
            and np.array_equal(self.lows, other.lows)
            and np.array_equal(self.highs, other.highs)
        )

    def __hash__(self) -> int:
        return hash((self.id, self.lows.tobytes(), self.highs.tobytes()))
