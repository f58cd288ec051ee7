"""Publications.

A :class:`Publication` is a point in the attribute space (Definition 6).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.model.errors import ValidationError
from repro.model.schema import Schema

__all__ = ["Publication"]

_id_counter = itertools.count(1)


def _next_publication_id() -> str:
    """Generate a readable, process-unique publication identifier."""
    return f"pub-{next(_id_counter):06d}"


def _check_inside_domain(schema: Schema, points: np.ndarray) -> None:
    """Raise unless every row of ``points`` (``(m,)`` or ``(n, m)``) is in the domain.

    One vectorised comparison for the whole matrix; the error names the
    offending attributes of the first row outside.  NaN coordinates
    compare false on both sides and pass, for one point and for many.
    """
    lows, highs = schema.full_bounds()
    outside = (points < lows) | (points > highs)
    if outside.any():
        row = outside.reshape(-1, schema.m)
        first = row[row.any(axis=1).argmax()]
        bad = [name for name, out in zip(schema.names, first) if out]
        raise ValidationError(f"publication outside the domain on: {bad}")


class Publication:
    """A point publication: one value per schema attribute.

    Parameters
    ----------
    schema:
        Attribute space of the publication.
    values:
        Encoded coordinates (length ``schema.m``).
    publication_id:
        Optional external identifier; autogenerated when omitted.
    publisher:
        Optional identifier of the issuing publisher.
    metadata:
        Free-form annotations (payload, headers, ...).
    """

    __slots__ = ("schema", "values", "id", "publisher", "metadata", "_values_list")

    def __init__(
        self,
        schema: Schema,
        values: Sequence[float],
        publication_id: Optional[str] = None,
        publisher: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        arr = np.array(values, dtype=float)
        if arr.shape != (schema.m,):
            raise ValidationError(
                f"publication has {arr.shape} coordinates, schema expects ({schema.m},)"
            )
        _check_inside_domain(schema, arr)
        arr.setflags(write=False)
        self.schema = schema
        self.values = arr
        self.id = publication_id or _next_publication_id()
        self.publisher = publisher
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self._values_list: Optional[List[float]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_values(
        cls,
        schema: Schema,
        values: Mapping[str, Any],
        publication_id: Optional[str] = None,
        publisher: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> "Publication":
        """Build a publication from a ``{attribute: value}`` mapping."""
        point = schema.encode_point(values)
        return cls(schema, point, publication_id, publisher, metadata)

    @classmethod
    def from_matrix(
        cls,
        schema: Schema,
        points: Sequence[Sequence[float]],
        publication_ids: Optional[Sequence[str]] = None,
        publishers: Optional[Sequence[Optional[str]]] = None,
    ) -> List["Publication"]:
        """One publication per row of an encoded ``(n, m)`` matrix.

        Equal, publication for publication, to calling the constructor on
        each row — same values, identifiers (autogenerated in row order
        when omitted), publishers, read-only flags and
        :class:`ValidationError` — but the matrix is copied and checked
        against the domain once, and every :attr:`values` is a read-only
        row view of that one copy rather than an array of its own.
        """
        matrix = np.array(points, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != schema.m:
            raise ValidationError(
                f"publication has {matrix.shape[1:]} coordinates, "
                f"schema expects ({schema.m},)"
            )
        _check_inside_domain(schema, matrix)
        matrix.setflags(write=False)
        count = len(matrix)
        if publication_ids is None:
            publication_ids = [_next_publication_id() for _ in range(count)]
        if publishers is None:
            publishers = [None] * count
        if len(publication_ids) != count or len(publishers) != count:
            raise ValidationError(
                f"{count} publications need as many identifiers and publishers; "
                f"got {len(publication_ids)} and {len(publishers)}"
            )
        publications = []
        for row, identifier, publisher in zip(matrix, publication_ids, publishers):
            publication = cls.__new__(cls)
            publication.schema = schema
            publication.values = row
            publication.id = identifier
            publication.publisher = publisher
            publication.metadata = {}
            publication._values_list = None
            publications.append(publication)
        return publications

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of attributes."""
        return self.schema.m

    @property
    def values_list(self) -> List[float]:
        """The encoded point as a plain float list (cached).

        The per-subscription membership tests of the linear scan and the
        cover-forest walk compare against this list in pure Python — an
        order of magnitude cheaper than a NumPy reduction at typical
        ``m`` — and the values are bit-identical to :attr:`values` (the
        array is immutable).
        """
        if self._values_list is None:
            self._values_list = self.values.tolist()
        return self._values_list

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Publication({self.id!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Publication):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.id == other.id
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.id, self.values.tobytes()))
