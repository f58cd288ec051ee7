"""Unit tests for :mod:`repro.model.attributes`."""

import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest

from repro.model.attributes import (
    Attribute,
    CategoricalDomain,
    ContinuousDomain,
    IntegerDomain,
    TimestampDomain,
    domain_from_dict,
)
from repro.model.errors import DomainError
from repro.model.intervals import Interval


class TestIntegerDomain:
    def test_bounds_and_cardinality(self):
        domain = IntegerDomain(1, 10)
        assert domain.lower_bound == 1.0
        assert domain.upper_bound == 10.0

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            IntegerDomain(5, 1)

    def test_encode_decode(self):
        domain = IntegerDomain(0, 100)
        assert domain.encode(42) == 42.0
        assert domain.decode(42.0) == 42

    def test_encode_rejects_strings(self):
        with pytest.raises(DomainError):
            IntegerDomain(0, 10).encode("x")

    def test_measure_counts_points(self):
        domain = IntegerDomain(0, 100)
        assert domain.measure(Interval(3, 7)) == 5.0
        assert domain.measure(Interval(3.2, 6.9)) == 3.0  # {4, 5, 6}
        assert domain.measure(Interval(7, 3)) == 0.0

    def test_measure_clips_to_domain(self):
        domain = IntegerDomain(0, 10)
        assert domain.measure(Interval(-5, 100)) == 11.0

    def test_sample_within_interval(self):
        domain = IntegerDomain(0, 100)
        rng = np.random.default_rng(0)
        for _ in range(50):
            value = domain.sample(Interval(10, 12), rng)
            assert value in (10.0, 11.0, 12.0)

    def test_sample_empty_interval_raises(self):
        with pytest.raises(DomainError):
            IntegerDomain(0, 10).sample(Interval.empty(), np.random.default_rng(0))

    def test_snap(self):
        domain = IntegerDomain(0, 10)
        assert domain.snap(Interval(1.2, 3.8)) == Interval(2, 3)
        assert domain.snap(Interval(1.2, 1.4)).is_empty

    def test_roundtrip_dict(self):
        domain = IntegerDomain(3, 9)
        assert domain_from_dict(domain.to_dict()) == domain


class TestContinuousDomain:
    def test_measure_is_length(self):
        domain = ContinuousDomain(0.0, 10.0)
        assert domain.measure(Interval(2.0, 4.5)) == pytest.approx(2.5)

    def test_measure_floors_at_resolution(self):
        domain = ContinuousDomain(0.0, 10.0, resolution=0.01)
        assert domain.measure(Interval(5.0, 5.0)) == pytest.approx(0.01)

    def test_invalid_resolution(self):
        with pytest.raises(DomainError):
            ContinuousDomain(0, 1, resolution=0)

    def test_sample_within_interval(self):
        domain = ContinuousDomain(0.0, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            value = domain.sample(Interval(0.25, 0.75), rng)
            assert 0.25 <= value <= 0.75

    def test_sample_point_interval(self):
        domain = ContinuousDomain(0.0, 1.0)
        assert domain.sample(Interval(0.5, 0.5), np.random.default_rng(0)) == 0.5

    def test_gap_measure(self):
        domain = ContinuousDomain(0.0, 1.0, resolution=0.001)
        assert domain.gap_measure(0.25) == 0.25
        assert domain.gap_measure(0.0) == 0.0
        assert domain.gap_measure(1e-9) == pytest.approx(0.001)

    def test_roundtrip_dict(self):
        domain = ContinuousDomain(0.0, 2.5, resolution=0.1)
        restored = domain_from_dict(domain.to_dict())
        assert restored == domain

    def test_snap_is_identity(self):
        domain = ContinuousDomain(0.0, 10.0)
        assert domain.snap(Interval(1.3, 2.7)) == Interval(1.3, 2.7)


class TestCategoricalDomain:
    def test_encode_decode_labels(self):
        domain = CategoricalDomain(["a", "b", "c"])
        assert domain.encode("b") == 1.0
        assert domain.decode(2.0) == "c"

    def test_duplicate_values_rejected(self):
        with pytest.raises(DomainError):
            CategoricalDomain(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            CategoricalDomain([])

    def test_unknown_label_rejected(self):
        with pytest.raises(DomainError):
            CategoricalDomain(["a"]).encode("zzz")

    def test_encode_accepts_codes(self):
        domain = CategoricalDomain(["a", "b", "c"])
        assert domain.encode(1) == 1.0

    def test_decode_out_of_range(self):
        with pytest.raises(DomainError):
            CategoricalDomain(["a", "b"]).decode(5)

    def test_measure(self):
        domain = CategoricalDomain(["a", "b", "c", "d"])
        assert domain.measure(Interval(1, 2)) == 2.0

    def test_equality_and_hash(self):
        assert CategoricalDomain(["a", "b"]) == CategoricalDomain(["a", "b"])
        assert CategoricalDomain(["a", "b"]) != CategoricalDomain(["b", "a"])
        assert hash(CategoricalDomain(["a"])) == hash(CategoricalDomain(["a"]))

    def test_roundtrip_dict(self):
        domain = CategoricalDomain(["x", "y"])
        assert domain_from_dict(domain.to_dict()) == domain


class TestTimestampDomain:
    def test_encode_decode(self):
        domain = TimestampDomain(
            "2006-03-31T00:00:00", "2006-03-31T23:59:59", granularity_seconds=60
        )
        code = domain.encode("2006-03-31T12:00:00")
        decoded = domain.decode(code)
        assert decoded == datetime(2006, 3, 31, 12, 0, tzinfo=timezone.utc)

    def test_bounds_ordering(self):
        with pytest.raises(DomainError):
            TimestampDomain("2006-04-01", "2006-03-31")

    def test_invalid_granularity(self):
        with pytest.raises(DomainError):
            TimestampDomain("2006-03-31", "2006-04-01", granularity_seconds=0)

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            TimestampDomain("not-a-date", "2006-04-01")

    def test_measure_counts_ticks(self):
        domain = TimestampDomain(
            "2006-03-31T00:00:00", "2006-03-31T01:00:00", granularity_seconds=60
        )
        assert domain.measure(domain.full_interval()) == 61.0

    def test_accepts_datetime_objects(self):
        start = datetime(2006, 3, 31, tzinfo=timezone.utc)
        end = datetime(2006, 4, 1, tzinfo=timezone.utc)
        domain = TimestampDomain(start, end)
        assert domain.lower_bound < domain.upper_bound

    def test_equality(self):
        a = TimestampDomain("2006-03-31", "2006-04-01", 60)
        b = TimestampDomain("2006-03-31", "2006-04-01", 60)
        assert a == b
        assert hash(a) == hash(b)

    def test_roundtrip_dict(self):
        domain = TimestampDomain("2006-03-31T00:00:00", "2006-03-31T12:00:00", 60)
        restored = domain_from_dict(domain.to_dict())
        assert restored.lower_bound == domain.lower_bound
        assert restored.upper_bound == domain.upper_bound

    def test_roundtrip_dict_with_end_inside_a_bucket(self):
        # to_dict writes bucket starts: 23:59:59 comes back as 23:59:00
        domain = TimestampDomain("2006-03-31T00:00:00", "2006-03-31T23:59:59", 60)
        restored = domain_from_dict(domain.to_dict())
        assert restored == domain
        assert hash(restored) == hash(domain)

    def test_equality_ignores_seconds_inside_the_end_bucket(self):
        a = TimestampDomain("2006-03-31T00:00:00", "2006-03-31T23:59:00", 60)
        b = TimestampDomain("2006-03-31T00:00:00", "2006-03-31T23:59:59", 60)
        later = TimestampDomain("2006-03-31T00:00:00", "2006-04-01T00:00:00", 60)
        assert a == b and hash(a) == hash(b)
        assert a != later


class TestAttribute:
    def test_attribute_requires_name(self):
        with pytest.raises(DomainError):
            Attribute("", IntegerDomain(0, 1))

    def test_full_interval(self):
        attribute = Attribute("x", IntegerDomain(0, 5))
        assert attribute.full_interval() == Interval(0, 5)

    def test_to_dict_includes_description(self):
        attribute = Attribute("x", IntegerDomain(0, 5), description="demo")
        payload = attribute.to_dict()
        assert payload["name"] == "x"
        assert payload["description"] == "demo"

    def test_domain_from_dict_unknown_type(self):
        with pytest.raises(DomainError):
            domain_from_dict({"type": "mystery"})


DOMAINS = {
    "integer": (IntegerDomain(3, 9), 7.0),
    "integer-single-point": (IntegerDomain(4, 4), 1.0),
    "continuous": (ContinuousDomain(-1.0, 1.0, resolution=1e-3), 2.0),
    "categorical": (CategoricalDomain(["lo", "mid", "hi"]), 3.0),
    "timestamp-hourly": (
        TimestampDomain("2024-03-01T00:00:00", "2024-03-02T00:00:00", 3600),
        25.0,
    ),
}


@pytest.fixture(params=sorted(DOMAINS))
def domain_case(request):
    return DOMAINS[request.param]


class TestEveryDomain:
    """Contracts every domain kind keeps, checked on each one."""

    def test_json_roundtrip(self, domain_case):
        domain, _ = domain_case
        restored = domain_from_dict(json.loads(json.dumps(domain.to_dict())))
        assert restored == domain
        assert hash(restored) == hash(domain)

    def test_full_interval_is_the_bounds(self, domain_case):
        domain, _ = domain_case
        full = domain.full_interval()
        assert full == Interval(domain.lower_bound, domain.upper_bound)
        assert domain.clip(Interval(-math.inf, math.inf)) == full

    def test_bounds_are_representable(self, domain_case):
        domain, _ = domain_case
        assert domain.snap(domain.full_interval()) == domain.full_interval()

    def test_measure_of_full_domain(self, domain_case):
        domain, expected = domain_case
        assert domain.measure(domain.full_interval()) == expected

    def test_measure_outside_domain_is_zero(self, domain_case):
        domain, _ = domain_case
        above = Interval(domain.upper_bound + 1, domain.upper_bound + 5)
        assert domain.measure(above) == 0.0

    def test_bounds_decode_and_encode_back(self, domain_case):
        domain, _ = domain_case
        for bound in (domain.lower_bound, domain.upper_bound):
            assert domain.encode(domain.decode(bound)) == bound

    def test_samples_stay_in_domain(self, domain_case):
        domain, _ = domain_case
        full = domain.full_interval()
        rng = np.random.default_rng(11)
        for _ in range(50):
            value = domain.sample(full, rng)
            assert full.low <= value <= full.high
            if domain.is_discrete:
                assert float(value).is_integer()

    def test_non_positive_gap_has_no_measure(self, domain_case):
        domain, _ = domain_case
        assert domain.gap_measure(0.0) == 0.0
        assert domain.gap_measure(-1.0) == 0.0
        assert domain.gap_measure(1.0) >= 1.0
