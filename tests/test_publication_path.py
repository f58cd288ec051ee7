"""The publication path: one kernel, one handler, one scheduling pass.

Wall-clock-free pins of what the publication path promises after it moved
onto the signed layout (the matcher itself — every route lookup and the
delivery oracle — is swept against a linear scan in ``test_matcher.py``):

* :meth:`Broker.handle_publication_batch` of N messages equals N batches
  of one, field for field, obs off and on;
* :meth:`EventKernel.schedule_many` of N messages leaves the kernel exactly
  as N scheduling runs of one do;
* one handled batch costs the same number of NumPy calls whatever its
  size;
* every lookup answers with the caller's own objects: route lookups with
  the table's ``RouteEntry`` objects, the oracle with what its records
  are built from; the expected, missed and false-positive notifications
  equal a recomputation from the live subscriptions, and a
  ``NotificationRecord`` keeps its value semantics.
"""

from __future__ import annotations

import contextlib
from collections import Counter

import numpy as np
import pytest

from repro.broker import grid_topology, make_latency_model, random_tree_topology
from repro.broker.messages import (
    NotificationRecord,
    PublicationMessage,
    SubscriptionMessage,
)
from repro.broker.network import BrokerNetwork
from repro.broker.routing import RouteEntry, RoutingTable, SourceKind
from repro.broker.sim import EventKernel
from repro.core import arena
from repro.core.results import Answer, DecisionMethod, SubsumptionResult
from repro.core.subsumption import SubsumptionChecker
from repro.model import Publication, Schema, Subscription
from repro.obs.probes import ObsProbe, enabled
from repro.obs.spans import SpanRecorder

POLICIES = ("none", "pairwise", "group", "merging", "hybrid")


# ----------------------------------------------------------------------
# (i) the handler: a batch of N equals N scalar calls
# ----------------------------------------------------------------------
GRID_SCHEMA = Schema.uniform_integer(2, 0, 100)

TOPOLOGIES = {
    "tree": lambda: random_tree_topology(6, rng=1),
    "cyclic": lambda: grid_topology(2, 3),
}


def _observed(probe):
    """``probe`` installed for a block; no probe at all when ``None``."""
    return enabled(probe) if probe is not None else contextlib.nullcontext()


def _overlay(policy, topology, probe=None, dedup_window=4096):
    """A seeded overlay with subscriptions spread over every broker,
    built and subscribed under ``probe``."""
    with _observed(probe):
        network = BrokerNetwork(
            TOPOLOGIES[topology](),
            policy=policy,
            rng=11,
            dedup_window=dedup_window,
        )
        rng = np.random.default_rng(12)
        for index, broker_id in enumerate(network.broker_ids):
            network.attach_client(f"c{index}", broker_id)
        for index in range(36):
            low = rng.integers(5, 70, 2)  # nothing ever reaches the origin
            high = low + rng.integers(5, 45, 2)
            network.subscribe(
                f"c{index % len(network.brokers)}",
                Subscription(
                    GRID_SCHEMA, low, np.minimum(high, 100), subscription_id=f"s{index}"
                ),
            )
    return network


def _handler_messages(broker, count, rng):
    """Local injections and neighbour hops, with repeated publication ids
    and, from a neighbour, points at the origin that match nothing."""
    senders = [None] + list(broker.links)
    messages = []
    for index in range(count):
        repeat = index >= 3 and index % 4 == 3
        number = index - 3 if repeat else index
        values = np.random.default_rng([7, number]).integers(0, 101, 2)
        sender = senders[int(rng.integers(len(senders)))]
        if number % 8 == 2:
            values, sender = np.zeros(2), list(broker.links)[0]
        messages.append(
            PublicationMessage(
                sender=sender,
                recipient=broker.id,
                hops=0 if sender is None else 1 + index % 3,
                injected_at=float(index),
                sent_at=float(index),
                delivered_at=float(index) + 0.5,
                trace_id=f"P{index:06d}",
                publication=Publication(
                    GRID_SCHEMA, values, publication_id=f"{broker.id}-p{number}"
                ),
                origin="" if sender is None else sender,
            )
        )
    return messages


def _message_fields(message):
    return (
        type(message).__name__,
        message.sender,
        message.recipient,
        message.hops,
        message.publication.id,
        message.origin,
        message.injected_at,
        message.sent_at,
        message.trace_id,
    )


def _span_fields(recorder):
    """Spans per trace in emission order, global sequence numbers dropped."""
    grouped = {}
    for span in recorder.spans:
        payload = span.to_dict()
        del payload["seq"]
        grouped.setdefault(span.trace_id, []).append(payload)
    return grouped


def _broker_state(broker):
    return {
        "delivered": list(broker.delivered),
        "latencies": list(broker.delivered_latencies),
        "dead_letters": broker.dead_letter_publications,
        "false_positives": broker.false_positive_deliveries,
        "seen": list(broker._seen_publications),
    }


@pytest.mark.parametrize("observed", (False, True), ids=("obs-off", "obs-on"))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("policy", POLICIES)
def test_handler_batch_equals_scalar_calls(policy, topology, observed):
    for count in (1, 2, 17):
        probes = [
            ObsProbe(spans=SpanRecorder()) if observed else None for _ in range(2)
        ]
        # a window of 5 is overrun inside the 17-message batches, so the
        # eviction order (and the re-processing it allows) is compared too
        batched, scalar = (
            _overlay(policy, topology, probe, dedup_window=5) for probe in probes
        )
        if observed:
            for probe in probes:
                del probe.spans.spans[:]
        dead_letters = 0
        for broker_id in batched.broker_ids:
            one, other = batched.brokers[broker_id], scalar.brokers[broker_id]
            one.record_latencies = other.record_latencies = True
            rng = np.random.default_rng([count, len(broker_id)])
            with _observed(probes[0]):
                together = one.handle_publication_batch(
                    _handler_messages(one, count, rng)
                )
            rng = np.random.default_rng([count, len(broker_id)])
            with _observed(probes[1]):
                apart = [
                    other.handle_publication_batch((message,))[0]
                    for message in _handler_messages(other, count, rng)
                ]
            assert [[_message_fields(m) for m in outs] for outs in together] == [
                [_message_fields(m) for m in outs] for outs in apart
            ]
            assert _broker_state(one) == _broker_state(other)
            dead_letters += one.dead_letter_publications
            if count == 17:
                assert len(one._seen_publications) == 5
                assert any(not outs for outs in together)
        if observed:
            assert _span_fields(probes[0].spans) == _span_fields(probes[1].spans)
            assert len(probes[0].spans.spans) > 3 * count
        if count == 17:
            assert dead_letters > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_burst_equals_singles_on_a_cyclic_overlay_with_spans(policy):
    """Network level, obs on: one burst vs one ``publish`` per operation —
    same deliveries per broker, same totals, same spans (each as a
    multiset: a burst visits brokers generation by generation)."""
    rng = np.random.default_rng(21)
    operations = [
        (
            f"c{int(rng.integers(6))}",
            Publication(GRID_SCHEMA, rng.integers(0, 101, 2), publication_id=f"p{i}"),
        )
        for i in range(40)
    ]
    networks = []
    for burst in (True, False):
        probe = ObsProbe(spans=SpanRecorder())
        network = _overlay(policy, "cyclic", probe, dedup_window=8)
        del probe.spans.spans[:]
        with enabled(probe):
            if burst:
                network.publish_many(operations)
            else:
                for client, publication in operations:
                    network.publish(client, publication)
        networks.append((network, probe))
    (one, one_probe), (other, other_probe) = networks
    for broker_id in one.broker_ids:
        assert sorted(map(repr, one.brokers[broker_id].delivered)) == sorted(
            map(repr, other.brokers[broker_id].delivered)
        )
    assert one.metrics.report() == other.metrics.report()
    assert one.metrics.notifications > 0

    def multiset(probe):
        rows = []
        for payloads in _span_fields(probe.spans).values():
            for payload in payloads:
                # queue depth is a property of the injection schedule
                payload.get("detail", {}).pop("queue_depth", None)
                rows.append(repr(sorted(payload.items())))
        return sorted(rows)

    assert multiset(one_probe) == multiset(other_probe)


def test_publish_and_publish_many_are_bursts(monkeypatch):
    """Both entry points share the one oracle call."""
    probe = ObsProbe()
    network = _overlay("group", "tree", probe)
    calls = []
    oracle_batch = network._oracle.match_batch
    monkeypatch.setattr(
        network._oracle,
        "match_candidates",
        lambda publication: pytest.fail("the oracle scan is not on the path"),
    )
    monkeypatch.setattr(
        network._oracle,
        "match_batch",
        lambda publications: calls.append(len(publications))
        or oracle_batch(publications),
    )
    rng = np.random.default_rng(5)
    publications = [
        Publication(GRID_SCHEMA, rng.integers(0, 101, 2)) for _ in range(9)
    ]
    with enabled(probe):
        network.publish("c0", publications[0])
        network.publish_many([("c1", p) for p in publications[1:5]])
        network.publish_many([("c2", p) for p in publications[5:]])
        assert network.publish_many([]) == []
    assert calls == [1, 4, 4]
    stage_calls = probe.stage_calls
    assert stage_calls["network.oracle"] == stage_calls["network.collect"] == 3
    assert network.metrics.missed_notifications == 0


@pytest.mark.parametrize("model", ("fixed:0.5", "lognormal:0.0,0.5"))
@pytest.mark.parametrize("policy", POLICIES)
def test_timed_burst_delivers_what_singles_deliver(policy, model):
    """Under a timed latency model a ``publish_many`` burst delivers, and
    misses, exactly what one ``publish`` per operation does.  Hop counts
    are not compared: the lognormal stream is drawn in another order, so
    the duplicate hops a cycle carries differ."""
    rng = np.random.default_rng(31)
    operations = [
        (
            f"c{int(rng.integers(9))}",
            Publication(GRID_SCHEMA, rng.integers(0, 101, 2), publication_id=f"p{i}"),
        )
        for i in range(40)
    ]
    outcomes = []
    for burst in (True, False):
        network = BrokerNetwork(
            grid_topology(3, 3),
            policy=policy,
            rng=11,
            latency_model=model,
            dedup_window=4,
        )
        for index, broker_id in enumerate(network.broker_ids):
            network.attach_client(f"c{index}", broker_id)
        subscriptions = np.random.default_rng(12)
        for index in range(36):
            low = subscriptions.integers(0, 70, 2)
            high = np.minimum(low + subscriptions.integers(5, 45, 2), 100)
            network.subscribe(
                f"c{index % 9}",
                Subscription(GRID_SCHEMA, low, high, subscription_id=f"s{index}"),
            )
        if burst:
            network.publish_many(operations)
        else:
            for client, publication in operations:
                network.publish(client, publication)
        metrics = network.metrics
        outcomes.append(
            (
                Counter(
                    (r.subscriber, r.subscription_id, r.publication_id)
                    for broker in network.brokers.values()
                    for r in broker.delivered
                ),
                metrics.notifications,
                metrics.expected_notifications,
                metrics.missed_notifications,
                metrics.false_positive_notifications,
            )
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] > 0


# ----------------------------------------------------------------------
# (ii) schedule_many vs one scheduling run per message
# ----------------------------------------------------------------------
def _kernel(model, probe):
    kernel = EventKernel(make_latency_model(model, rng=5))
    # something already queued, the clock already advanced
    publication = Publication(GRID_SCHEMA, [1, 1], publication_id="early")
    with enabled(probe):
        for sender in ("B1", "B2", None):
            message = PublicationMessage(
                sender=sender, recipient="B3", publication=publication, sent_at=0.25
            )
            kernel.schedule_many((message,))
    next(kernel.drain_grouped())
    kernel.reset_phase_high_water()
    return kernel


def _scheduled_messages():
    links = [("B1", "B2"), ("B2", "B1"), ("B1", "B3"), (None, "B2")]
    messages = []
    for index in range(23):
        sender, recipient = links[index % len(links)]
        # stale, current and future send times
        stamps = dict(sent_at=(0.0, 0.25, 3.0)[index % 3], trace_id=f"P{index:06d}")
        if index % 6 == 5:
            box = Subscription.whole_space(GRID_SCHEMA, subscription_id=f"s{index}")
            messages.append(
                SubscriptionMessage(
                    sender=sender, recipient=recipient, subscription=box, **stamps
                )
            )
        else:
            publication = Publication(GRID_SCHEMA, [2, 2], publication_id=f"p{index}")
            messages.append(
                PublicationMessage(
                    sender=sender, recipient=recipient, publication=publication, **stamps
                )
            )
    return messages


def _kernel_state(kernel, messages):
    def label(message):
        for index, candidate in enumerate(messages):
            if candidate is message:
                return index
        return message.publication.id

    return {
        "heap": sorted((at, seq, label(m)) for at, seq, m in kernel._heap),
        "sequence": kernel._sequence,
        "scheduled": kernel.scheduled,
        "high_water": kernel.queue_depth_high_water,
        "phase_high_water": kernel.phase_queue_depth_high_water,
        "link_clock": dict(kernel._link_clock),
        "delivered_at": [m.delivered_at for m in messages],
        "now": kernel.now,
    }


@pytest.mark.parametrize("model", ("zero", "fixed:2", "lognormal:0.0,0.5"))
def test_schedule_many_equals_one_schedule_each(model):
    probes = [ObsProbe(spans=SpanRecorder()) for _ in range(2)]
    bulk, single = (_kernel(model, probe) for probe in probes)
    together, apart = _scheduled_messages(), _scheduled_messages()
    with enabled(probes[0]):
        bulk.schedule_many(iter(together))  # consumed once, lazily
    with enabled(probes[1]):
        for message in apart:
            single.schedule_many((message,))
    assert _kernel_state(bulk, together) == _kernel_state(single, apart)
    assert len(bulk._heap) > 10
    assert _span_fields(probes[0].spans) == _span_fields(probes[1].spans)
    # one stage entry per scheduling run
    assert probes[0].stage_calls["kernel.schedule"] - 3 == 1
    assert probes[1].stage_calls["kernel.schedule"] - 3 == len(apart)
    # and the two kernels drain identically
    assert [
        _kernel_state(bulk, together)["heap"] for _ in bulk.drain_grouped()
    ] == [_kernel_state(single, apart)["heap"] for _ in single.drain_grouped()]


# ----------------------------------------------------------------------
# (iii) NumPy calls per handled batch do not grow with the batch
# ----------------------------------------------------------------------
def test_numpy_calls_per_handled_batch_are_constant(monkeypatch):
    """The regression this path removes, pinned without a clock: one
    ``nonzero`` per publication (41k calls per replayed benchmark input)."""
    calls = Counter()
    nonzero, kernel = np.nonzero, arena.boxes_meeting

    def counted_nonzero(*args, **kwargs):
        calls["nonzero"] += 1
        return nonzero(*args, **kwargs)

    def counted_kernel(*args, **kwargs):
        calls["kernel"] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(np, "nonzero", counted_nonzero)
    monkeypatch.setattr(arena, "boxes_meeting", counted_kernel)
    seen = {}
    for count in (4, 400):
        network = BrokerNetwork(TOPOLOGIES["tree"](), policy="group", rng=11)
        network.attach_client("c", "B1")
        rng = np.random.default_rng(12)
        for index in range(30):
            low = rng.integers(0, 70, 2)
            network.subscribe(
                "c",
                Subscription(GRID_SCHEMA, low, low + 25, subscription_id=f"s{index}"),
            )
        broker = network.brokers["B1"]
        messages = _handler_messages(broker, count, np.random.default_rng(2))
        calls.clear()
        outgoing = broker.handle_publication_batch(messages)
        assert len(outgoing) == count and broker.delivered
        seen[count] = dict(calls)
    assert seen[4] == seen[400] == {"nonzero": 1, "kernel": 1}


# ----------------------------------------------------------------------
# (iv) each lookup answers with the caller's own objects
# ----------------------------------------------------------------------
def _grid_boxes(rng, count):
    boxes = []
    for index in range(count):
        low = rng.integers(0, 70, 2)
        high = np.minimum(low + rng.integers(5, 45, 2), 100)
        boxes.append(Subscription(GRID_SCHEMA, low, high, subscription_id=f"s{index}"))
    return boxes


def test_route_lookup_answers_with_the_route_entries_themselves():
    """The very ``RouteEntry`` objects the id-mapped reference returns
    (matched subscription -> ``entries[id]``), across removals that
    compact the table's matcher."""
    rng = np.random.default_rng(41)
    table, entries = RoutingTable(), {}
    for index, subscription in enumerate(_grid_boxes(rng, 60)):
        kind = SourceKind.LOCAL if index % 3 == 0 else SourceKind.NEIGHBOR
        entry = RouteEntry(subscription, kind, f"n{index % 4}", origin="B1")
        assert table.add(entry)
        entries[subscription.id] = entry
    for index in range(0, 60, 2):
        assert table.remove(f"s{index}") is entries.pop(f"s{index}")
    assert table._index.compactions >= 1
    publications = [
        Publication(GRID_SCHEMA, rng.integers(0, 101, 2)) for _ in range(50)
    ]
    lookups = table.matching_entries_batch(publications)
    hits = 0
    for publication, (matched, tests) in zip(publications, lookups):
        values = publication.values_list
        reference = [
            entries[entry.subscription.id]
            for entry in entries.values()
            if entry.subscription.contains_values(values)
        ]
        assert tests == len(entries) == 30
        assert len(matched) == len(reference)
        assert all(got is want for got, want in zip(matched, reference))
        hits += len(matched)
    assert hits > 0


class _AlwaysCovered(SubsumptionChecker):
    """Every subscription with a candidate is "probably covered": misses."""

    def check(self, subscription, candidates):
        if not len(candidates):
            return super().check(subscription, candidates)
        return SubsumptionResult(
            answer=Answer.PROBABLY_COVERED,
            method=DecisionMethod.RSPC_EXHAUSTED,
            original_set_size=len(candidates),
            reduced_set_size=len(candidates),
            error_bound=1.0,
        )


def _key(record):
    return (record.subscriber, record.subscription_id, record.publication_id)


@pytest.mark.parametrize("policy", ("forced-miss", "merging"))
def test_oracle_and_collection_equal_a_reference_recomputation(policy):
    """``expected_notifications``, ``missed`` and ``false_positives`` equal
    what a scan of the live subscriptions gives, burst by burst, on a run
    that misses (a checker that covers everything) and on a merging run
    with false positives; the oracle's matcher compacts in between."""
    network = BrokerNetwork(
        random_tree_topology(6, rng=1),
        policy="group" if policy == "forced-miss" else "merging",
        merge_budget=0.6,
        rng=11,
    )
    if policy == "forced-miss":
        for broker in network.brokers.values():
            broker.checker = _AlwaysCovered()
    for index, broker_id in enumerate(network.broker_ids):
        network.attach_client(f"c{index}", broker_id)
    rng = np.random.default_rng(43)
    live = {}
    for index, subscription in enumerate(_grid_boxes(rng, 40)):
        client = f"c{index % len(network.brokers)}"
        network.subscribe(client, subscription)
        live[subscription.id] = (client, subscription)
    expected_total, missed, false_positives = 0, [], []
    for burst in range(3):
        if burst == 1:
            for index in range(0, 40, 2):
                client, _ = live.pop(f"s{index}")
                network.unsubscribe(client, f"s{index}")
            assert network._oracle.compactions >= 1
        operations = [
            (
                f"c{int(rng.integers(6))}",
                Publication(
                    GRID_SCHEMA, rng.integers(0, 101, 2), publication_id=f"p{burst}-{i}"
                ),
            )
            for i in range(30)
        ]
        delivered = network.publish_many(operations)
        expected = [
            (network.clients[client], client, subscription.id, publication.id)
            for _, publication in operations
            for client, subscription in live.values()
            if subscription.contains_values(publication.values_list)
        ]
        expected_total += len(expected)
        delivered_keys = {_key(record) for record in delivered}
        missed += [r for r in expected if tuple(r[1:]) not in delivered_keys]
        expected_keys = {tuple(r[1:]) for r in expected}
        false_positives += [r for r in delivered if _key(r) not in expected_keys]
    metrics = network.metrics
    assert metrics.expected_notifications == expected_total
    assert metrics.missed == missed and metrics.missed_notifications == len(missed)
    assert metrics.false_positives == false_positives
    if policy == "forced-miss":
        assert missed and not false_positives
    else:
        assert false_positives and not missed


def test_notification_records_keep_value_semantics():
    record = NotificationRecord("B1", "c", "s", "p")
    assert NotificationRecord._fields == (
        "broker",
        "subscriber",
        "subscription_id",
        "publication_id",
    )
    assert (
        record.broker,
        record.subscriber,
        record.subscription_id,
        record.publication_id,
    ) == ("B1", "c", "s", "p")
    twin = NotificationRecord(
        broker="B1", subscriber="c", subscription_id="s", publication_id="p"
    )
    assert record == twin and hash(record) == hash(twin) and len({record, twin}) == 1
    # a named tuple: equal to the plain tuple of its values
    values = ("B1", "c", "s", "p")
    assert record == values and hash(record) == hash(values)
    assert record[1:] == ("c", "s", "p")
    assert record != NotificationRecord("B2", "c", "s", "p")
    with pytest.raises(AttributeError):
        record.broker = "B2"
