"""Subscription-space schemas.

A :class:`Schema` fixes the ordered list of ``m`` attributes (the paper's
``x_1 … x_m``) over which subscriptions and publications are defined.  The
paper assumes every subscription constrains the same ``m`` attributes, with
an unconstrained attribute represented by the bounds ``(-inf, +inf)``; a
schema makes that convention explicit and supplies the per-attribute
domains used for measuring and sampling.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.model.attributes import Attribute, AttributeDomain, IntegerDomain
from repro.model.errors import SchemaError
from repro.model.intervals import Interval

__all__ = ["Schema"]


class Schema:
    """An ordered collection of named attributes.

    Parameters
    ----------
    attributes:
        Either :class:`Attribute` instances or ``(name, domain)`` pairs.
    name:
        Optional human-readable name for the schema.
    """

    def __init__(
        self,
        attributes: Iterable[Union[Attribute, Tuple[str, AttributeDomain]]],
        name: str = "schema",
    ):
        attrs: List[Attribute] = []
        for item in attributes:
            if isinstance(item, Attribute):
                attrs.append(item)
            else:
                attr_name, domain = item
                attrs.append(Attribute(attr_name, domain))
        if not attrs:
            raise SchemaError("a schema requires at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        self._attributes: Tuple[Attribute, ...] = tuple(attrs)
        self._index: Dict[str, int] = {a.name: i for i, a in enumerate(attrs)}
        self.name = name
        # Immutable facts, computed on first use (the attribute tuple never
        # changes after construction).
        self._hash: Optional[int] = None
        self._full_bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def uniform_integer(
        m: int,
        lower: int = 0,
        upper: int = 10_000,
        prefix: str = "x",
        name: str = "uniform",
    ) -> "Schema":
        """Build a schema of ``m`` identical integer attributes.

        This is the setting used throughout the paper's evaluation: ``m``
        range attributes over a common integer domain.
        """
        if m <= 0:
            raise SchemaError("m must be positive")
        attributes = [
            Attribute(f"{prefix}{j + 1}", IntegerDomain(lower, upper))
            for j in range(m)
        ]
        return Schema(attributes, name=name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        """The schema's attributes in order."""
        return self._attributes

    @property
    def m(self) -> int:
        """Number of attributes (the paper's ``m``)."""
        return len(self._attributes)

    @property
    def names(self) -> Tuple[str, ...]:
        """Attribute names in order."""
        return tuple(a.name for a in self._attributes)

    @property
    def domains(self) -> Tuple[AttributeDomain, ...]:
        """Attribute domains in order."""
        return tuple(a.domain for a in self._attributes)

    def index_of(self, name: str) -> int:
        """Position of the attribute called ``name``."""
        try:
            return self._index[name]
        except KeyError as exc:
            raise SchemaError(f"unknown attribute {name!r}") from exc

    def attribute(self, key: Union[str, int]) -> Attribute:
        """Look up an attribute by name or position."""
        if isinstance(key, str):
            return self._attributes[self.index_of(key)]
        if isinstance(key, int):
            if not 0 <= key < self.m:
                raise SchemaError(f"attribute index {key} out of range")
            return self._attributes[key]
        raise SchemaError(f"invalid attribute key {key!r}")

    def domain(self, key: Union[str, int]) -> AttributeDomain:
        """Domain of the attribute identified by ``key``."""
        return self.attribute(key).domain

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Schema) and self._attributes == other._attributes

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._attributes)
        return value

    def __getstate__(self) -> Dict[str, Any]:
        # String hashes are salted per process: a schema unpickled in a
        # shard worker must re-hash there, not inherit the sender's value.
        state = self.__dict__.copy()
        state["_hash"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Schema({self.name!r}, m={self.m})"

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def full_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-attribute domain bounds as ``(lows, highs)`` arrays.

        The pair is computed once and shared, so both arrays are
        read-only; copy before writing into them.
        """
        bounds = self._full_bounds
        if bounds is None:
            lows = np.array(
                [a.domain.lower_bound for a in self._attributes], dtype=float
            )
            highs = np.array(
                [a.domain.upper_bound for a in self._attributes], dtype=float
            )
            lows.setflags(write=False)
            highs.setflags(write=False)
            bounds = self._full_bounds = (lows, highs)
        return bounds

    def measure(self, lows: np.ndarray, highs: np.ndarray) -> float:
        """Measure (``I(.)``) of the box described by ``lows``/``highs``."""
        total = 1.0
        for j, attr in enumerate(self._attributes):
            total *= attr.domain.measure(Interval(float(lows[j]), float(highs[j])))
            if total == 0.0:
                return 0.0
        return total

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_point(self, values: Mapping[str, Any]) -> np.ndarray:
        """Encode a full assignment of attribute values to a point array."""
        missing = [name for name in self.names if name not in values]
        if missing:
            raise SchemaError(f"missing values for attributes: {missing}")
        point = np.empty(self.m, dtype=float)
        for j, attr in enumerate(self._attributes):
            point[j] = attr.domain.encode(values[attr.name])
        return point

    def encode_constraints(
        self, constraints: Mapping[str, Any]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Encode per-attribute constraints to ``(lows, highs)`` arrays.

        Each constraint value may be a single value (equality), a
        ``(low, high)`` pair, an :class:`Interval`, or ``None`` / ``"*"`` for
        "unconstrained".  Unlisted attributes are unconstrained and take the
        full domain range, following the paper's convention.
        """
        lows, highs = (bound.copy() for bound in self.full_bounds())
        for name, spec in constraints.items():
            j = self.index_of(name)
            domain = self._attributes[j].domain
            interval = self._encode_constraint(domain, spec)
            lows[j] = interval.low
            highs[j] = interval.high
        return lows, highs

    @staticmethod
    def _encode_constraint(domain: AttributeDomain, spec: Any) -> Interval:
        if spec is None or (isinstance(spec, str) and spec == "*"):
            return domain.full_interval()
        if isinstance(spec, Interval):
            return domain.clip(spec)
        if isinstance(spec, tuple) and len(spec) == 2:
            return domain.encode_interval(spec[0], spec[1])
        if isinstance(spec, list) and len(spec) == 2:
            return domain.encode_interval(spec[0], spec[1])
        encoded = domain.encode(spec)
        return Interval(encoded, encoded)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Serializable description of the schema."""
        return {
            "name": self.name,
            "attributes": [a.to_dict() for a in self._attributes],
        }
