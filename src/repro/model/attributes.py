"""Attribute domains.

The paper assumes every predicate constrains an attribute whose values are
"elements from (ordered) finite sets" — bike identifiers, rental-post
identifiers, frame sizes, brands, dates.  We provide four concrete domains
and encode each one onto a numeric axis so that the core algorithms work on
plain ``[low, high]`` intervals:

``IntegerDomain``
    Ordered integers ``lower … upper``.  The witness-counting functions
    (``I(s)``, ``I(sw)``) use exact point counts on these domains, matching
    the paper's integer-solution counting in Proposition 2.

``ContinuousDomain``
    A real interval with a configurable *resolution* used as the unit for
    measure computations (the paper's analysis carries over by replacing
    point counts with Lebesgue measure).

``CategoricalDomain``
    A finite set of labels mapped to consecutive integer codes, as suggested
    by the paper ("brand would be given as an element from a finite set").

``TimestampDomain``
    ISO-8601 timestamps mapped to integer seconds since the Unix epoch at a
    configurable granularity, used for the date attributes of the motivating
    scenarios (Tables 1 and 2).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, Sequence, Tuple, Union

from repro.model.errors import DomainError
from repro.model.intervals import Interval

__all__ = [
    "AttributeDomain",
    "Attribute",
    "IntegerDomain",
    "ContinuousDomain",
    "CategoricalDomain",
    "TimestampDomain",
]


class AttributeDomain(ABC):
    """Abstract base class of every attribute domain.

    A domain maps externally visible values onto an internal numeric axis
    and knows how to measure intervals and sample points on that axis.
    """

    #: whether the internal axis is discrete (integer points)
    is_discrete: bool = True

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def lower_bound(self) -> float:
        """Smallest encoded value of the domain."""

    @property
    @abstractmethod
    def upper_bound(self) -> float:
        """Largest encoded value of the domain."""

    def full_interval(self) -> Interval:
        """Return the interval spanning the entire domain."""
        return Interval(self.lower_bound, self.upper_bound)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    @abstractmethod
    def encode(self, value: Any) -> float:
        """Encode an external value to the internal numeric axis."""

    @abstractmethod
    def decode(self, encoded: float) -> Any:
        """Decode an internal numeric value back to the external form."""

    def encode_interval(self, low: Any, high: Any) -> Interval:
        """Encode a pair of external bounds into a clipped interval."""
        interval = Interval(self.encode(low), self.encode(high))
        if interval.is_empty:
            raise DomainError(
                f"interval [{low!r}, {high!r}] is empty after encoding"
            )
        return self.clip(interval)

    # ------------------------------------------------------------------
    # Geometry on the internal axis
    # ------------------------------------------------------------------
    def clip(self, interval: Interval) -> Interval:
        """Clip an interval to the domain bounds."""
        return interval.clamp(self.lower_bound, self.upper_bound)

    def snap(self, interval: Interval) -> Interval:
        """Snap interval endpoints to representable domain values.

        Discrete domains round the lower endpoint up and the upper endpoint
        down so the snapped interval contains exactly the representable
        points of the original.
        """
        if interval.is_empty:
            return Interval.empty()
        if not self.is_discrete:
            return interval
        low = math.ceil(interval.low) if math.isfinite(interval.low) else interval.low
        high = (
            math.floor(interval.high) if math.isfinite(interval.high) else interval.high
        )
        if low > high:
            return Interval.empty()
        return Interval(float(low), float(high))

    @abstractmethod
    def measure(self, interval: Interval) -> float:
        """Measure of an interval: point count (discrete) or length."""

    @abstractmethod
    def sample(self, interval: Interval, rng: Any) -> float:
        """Sample a uniformly random encoded value inside ``interval``.

        ``rng`` is a :class:`numpy.random.Generator` (or any object with
        compatible ``integers``/``uniform`` methods).
        """

    def gap_measure(self, width: float) -> float:
        """Measure of an axis-aligned gap of raw width ``width``.

        Used by the ``rho_w`` estimator (Algorithm 2): on discrete domains a
        raw width of ``w`` corresponds to ``w`` integer points (the points
        strictly on one side of a bound), on continuous domains to length
        ``w``.
        """
        if width <= 0:
            return 0.0
        return float(width)

    # ------------------------------------------------------------------
    # Serialization helpers
    # ------------------------------------------------------------------
    @abstractmethod
    def to_dict(self) -> Dict[str, Any]:
        """Serializable description of the domain."""

    def describe(self) -> str:
        """Short human-readable description."""
        return f"{type(self).__name__}[{self.lower_bound:g}, {self.upper_bound:g}]"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.describe()


@dataclass(frozen=True)
class IntegerDomain(AttributeDomain):
    """Ordered integer domain ``[lower, upper]``."""

    lower: int
    upper: int

    is_discrete = True

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise DomainError(
                f"IntegerDomain lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @property
    def lower_bound(self) -> float:
        return float(self.lower)

    @property
    def upper_bound(self) -> float:
        return float(self.upper)

    def encode(self, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DomainError(f"cannot encode {value!r} on an integer domain")
        return float(value)

    def decode(self, encoded: float) -> int:
        return int(round(encoded))

    def measure(self, interval: Interval) -> float:
        snapped = self.snap(self.clip(interval))
        if snapped.is_empty:
            return 0.0
        return snapped.high - snapped.low + 1.0

    def sample(self, interval: Interval, rng: Any) -> float:
        snapped = self.snap(self.clip(interval))
        if snapped.is_empty:
            raise DomainError("cannot sample from an empty interval")
        return float(rng.integers(int(snapped.low), int(snapped.high) + 1))

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "integer", "lower": self.lower, "upper": self.upper}


@dataclass(frozen=True)
class ContinuousDomain(AttributeDomain):
    """Real-valued domain ``[lower, upper]``.

    ``resolution`` is the smallest meaningful gap width; it floors the gap
    measure so that the point-witness probability never collapses to zero
    because of floating-point noise.
    """

    lower: float
    upper: float
    resolution: float = 1e-9

    is_discrete = False

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise DomainError(
                f"ContinuousDomain lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        if self.resolution <= 0:
            raise DomainError("resolution must be positive")

    @property
    def lower_bound(self) -> float:
        return float(self.lower)

    @property
    def upper_bound(self) -> float:
        return float(self.upper)

    def encode(self, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DomainError(f"cannot encode {value!r} on a continuous domain")
        return float(value)

    def decode(self, encoded: float) -> float:
        return float(encoded)

    def measure(self, interval: Interval) -> float:
        clipped = self.clip(interval)
        if clipped.is_empty:
            return 0.0
        return max(clipped.span, self.resolution)

    def sample(self, interval: Interval, rng: Any) -> float:
        clipped = self.clip(interval)
        if clipped.is_empty:
            raise DomainError("cannot sample from an empty interval")
        if clipped.is_point:
            return clipped.low
        return float(rng.uniform(clipped.low, clipped.high))

    def gap_measure(self, width: float) -> float:
        if width <= 0:
            return 0.0
        return max(float(width), self.resolution)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "continuous",
            "lower": self.lower,
            "upper": self.upper,
            "resolution": self.resolution,
        }


class CategoricalDomain(AttributeDomain):
    """Finite ordered set of labels mapped to consecutive integer codes."""

    is_discrete = True

    def __init__(self, values: Sequence[Any]):
        if not values:
            raise DomainError("CategoricalDomain requires at least one value")
        self._values: Tuple[Any, ...] = tuple(values)
        if len(set(self._values)) != len(self._values):
            raise DomainError("CategoricalDomain values must be unique")
        self._codes: Dict[Any, int] = {v: i for i, v in enumerate(self._values)}

    @property
    def values(self) -> Tuple[Any, ...]:
        """The ordered labels of the domain."""
        return self._values

    @property
    def lower_bound(self) -> float:
        return 0.0

    @property
    def upper_bound(self) -> float:
        return float(len(self._values) - 1)

    def encode(self, value: Any) -> float:
        if value in self._codes:
            return float(self._codes[value])
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            # Already a code (used internally when sampling).
            code = float(value)
            if 0 <= code <= self.upper_bound:
                return code
        raise DomainError(f"{value!r} is not a member of the categorical domain")

    def decode(self, encoded: float) -> Any:
        index = int(round(encoded))
        if not 0 <= index < len(self._values):
            raise DomainError(f"code {encoded!r} outside the categorical domain")
        return self._values[index]

    def measure(self, interval: Interval) -> float:
        snapped = self.snap(self.clip(interval))
        if snapped.is_empty:
            return 0.0
        return snapped.high - snapped.low + 1.0

    def sample(self, interval: Interval, rng: Any) -> float:
        snapped = self.snap(self.clip(interval))
        if snapped.is_empty:
            raise DomainError("cannot sample from an empty interval")
        return float(rng.integers(int(snapped.low), int(snapped.high) + 1))

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "categorical", "values": list(self._values)}

    def describe(self) -> str:
        return f"CategoricalDomain({len(self._values)} values)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CategoricalDomain) and self._values == other._values

    def __hash__(self) -> int:
        return hash(("categorical", self._values))


class TimestampDomain(AttributeDomain):
    """ISO-8601 timestamps mapped to integer epoch seconds."""

    is_discrete = True

    def __init__(
        self,
        start: Union[str, datetime],
        end: Union[str, datetime],
        granularity_seconds: int = 1,
    ):
        if granularity_seconds <= 0:
            raise DomainError("granularity must be a positive number of seconds")
        self._granularity = int(granularity_seconds)
        self._start = self._parse(start)
        self._end = self._parse(end)
        if self._start > self._end:
            raise DomainError("TimestampDomain start is after end")

    @staticmethod
    def _parse(value: Union[str, datetime, int, float]) -> int:
        if isinstance(value, datetime):
            dt = value
        elif isinstance(value, str):
            try:
                dt = datetime.fromisoformat(value)
            except ValueError as exc:
                raise DomainError(f"cannot parse timestamp {value!r}") from exc
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            return int(value)
        else:
            raise DomainError(f"cannot parse timestamp {value!r}")
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())

    @property
    def lower_bound(self) -> float:
        return float(self._start // self._granularity)

    @property
    def upper_bound(self) -> float:
        return float(self._end // self._granularity)

    def encode(self, value: Any) -> float:
        seconds = self._parse(value)
        return float(seconds // self._granularity)

    def decode(self, encoded: float) -> datetime:
        seconds = int(round(encoded)) * self._granularity
        return datetime.fromtimestamp(seconds, tz=timezone.utc)

    def measure(self, interval: Interval) -> float:
        snapped = self.snap(self.clip(interval))
        if snapped.is_empty:
            return 0.0
        return snapped.high - snapped.low + 1.0

    def sample(self, interval: Interval, rng: Any) -> float:
        snapped = self.snap(self.clip(interval))
        if snapped.is_empty:
            raise DomainError("cannot sample from an empty interval")
        return float(rng.integers(int(snapped.low), int(snapped.high) + 1))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "timestamp",
            "start": self.decode(self.lower_bound).isoformat(),
            "end": self.decode(self.upper_bound).isoformat(),
            "granularity_seconds": self._granularity,
        }

    def describe(self) -> str:
        return (
            f"TimestampDomain[{self.decode(self.lower_bound).isoformat()}, "
            f"{self.decode(self.upper_bound).isoformat()}]"
        )

    # equal on the encoded bounds, as ``to_dict`` writes them: seconds
    # inside a bucket do not tell two domains apart
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TimestampDomain)
            and self.lower_bound == other.lower_bound
            and self.upper_bound == other.upper_bound
            and self._granularity == other._granularity
        )

    def __hash__(self) -> int:
        return hash(
            ("timestamp", self.lower_bound, self.upper_bound, self._granularity)
        )


@dataclass(frozen=True)
class Attribute:
    """A named attribute with its domain."""

    name: str
    domain: AttributeDomain
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise DomainError("attribute name must be non-empty")

    def full_interval(self) -> Interval:
        """Interval spanning the attribute's whole domain."""
        return self.domain.full_interval()

    def to_dict(self) -> Dict[str, Any]:
        """Serializable description of the attribute."""
        payload = {"name": self.name, "domain": self.domain.to_dict()}
        if self.description:
            payload["description"] = self.description
        return payload


def domain_from_dict(payload: Dict[str, Any]) -> AttributeDomain:
    """Inverse of ``AttributeDomain.to_dict``."""
    kind = payload.get("type")
    if kind == "integer":
        return IntegerDomain(int(payload["lower"]), int(payload["upper"]))
    if kind == "continuous":
        return ContinuousDomain(
            float(payload["lower"]),
            float(payload["upper"]),
            float(payload.get("resolution", 1e-9)),
        )
    if kind == "categorical":
        return CategoricalDomain(payload["values"])
    if kind == "timestamp":
        return TimestampDomain(
            payload["start"],
            payload["end"],
            int(payload.get("granularity_seconds", 1)),
        )
    raise DomainError(f"unknown domain type {kind!r}")
