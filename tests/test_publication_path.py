"""The publication path: one kernel, one handler, one scheduling pass.

Wall-clock-free pins of what the publication path promises after it moved
onto the signed layout:

* every backend's ``match_batch`` — hence every route lookup and the
  delivery oracle — equals the linear *scan* and equals the linear
  backend's previous batched implementation, kept here as
  :func:`_reference_match_batch` (candidates, order, tests charged), under
  one workspace budget;
* :meth:`Broker.handle_publication_batch` of N messages equals N calls of
  :meth:`Broker.handle_publication`, field for field, obs off and on;
* :meth:`EventKernel.schedule_many` leaves the kernel exactly as
  scheduling one by one does;
* one handled batch costs the same number of NumPy calls whatever its
  size.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.broker import grid_topology, make_latency_model, random_tree_topology
from repro.broker.messages import PublicationMessage, SubscriptionMessage
from repro.broker.network import BrokerNetwork
from repro.broker.sim import EventKernel
from repro.core import arena
from repro.matching.backends import BACKEND_NAMES, LinearBackend, make_backend
from repro.model import (
    CategoricalDomain,
    ContinuousDomain,
    IntegerDomain,
    Publication,
    Schema,
    Subscription,
)
from repro.model.errors import ValidationError
from repro.obs.probes import ObsProbe
from repro.obs.spans import SpanRecorder

POLICIES = ("none", "pairwise", "group", "merging", "hybrid")


# ----------------------------------------------------------------------
# (i) match_batch: the shared kernel vs the scan vs the old batched path
# ----------------------------------------------------------------------
def _reference_match_batch(backend: LinearBackend, publications, values=None):
    """``LinearBackend.match_batch`` as it was before the shared kernel.

    A fresh ``(k, m)`` re-stack, the two-sided ``(B, k, m)`` broadcast and
    one ``nonzero`` per publication; mixed-arity sets go to the scan.
    """
    subscriptions = tuple(backend._subscriptions.values())
    if not subscriptions or len({s.m for s in subscriptions}) != 1:
        return [backend.match_candidates(p) for p in publications]
    lows = np.array([s.lows for s in subscriptions])
    highs = np.array([s.highs for s in subscriptions])
    if values is None:
        values = np.array([p.values for p in publications])
    points = values[:, np.newaxis, :]
    hit_matrix = ((lows <= points) & (points <= highs)).all(axis=2)
    return [
        ([subscriptions[i] for i in np.nonzero(row)[0]], len(subscriptions))
        for row in hit_matrix
    ]


def _ids(results):
    return [([s.id for s in matched], tests) for matched, tests in results]


SCHEMAS = {
    "discrete": Schema.uniform_integer(3, 0, 200),
    "continuous": Schema(
        [
            ("u", ContinuousDomain(-np.inf, np.inf)),
            ("v", ContinuousDomain(0.0, np.inf)),
        ],
        name="unbounded",
    ),
    "mixed": Schema(
        [
            ("n", IntegerDomain(-5, 5)),
            ("x", ContinuousDomain(0.0, 1.0)),
            ("c", CategoricalDomain(["a", "b", "c"])),
        ],
        name="mixed",
    ),
}


def _finite_bounds(schema):
    lows, highs = schema.full_bounds()
    return (
        np.where(np.isfinite(lows), lows, -1e6),
        np.where(np.isfinite(highs), highs, 1e6),
    )


def _subscriptions(schema, rng, count, prefix="s"):
    """Random boxes; some reach a domain edge (``±inf`` where the domain is
    unbounded), some are single points, and every fifth repeats the
    bounds of the box before it under a new identifier."""
    lows, highs = schema.full_bounds()
    finite_lows, finite_highs = _finite_bounds(schema)
    discrete = schema.vectors.signed_discrete
    made = []
    for index in range(count):
        if index % 5 == 4:
            twin = made[-1]
            made.append(
                Subscription(
                    schema, twin.lows, twin.highs, subscription_id=f"{prefix}{index}"
                )
            )
            continue
        a = rng.uniform(finite_lows, finite_highs)
        b = rng.uniform(finite_lows, finite_highs)
        if discrete is not False:
            a, b = np.round(a), np.round(b)
        box_lows, box_highs = np.minimum(a, b), np.maximum(a, b)
        for j in range(schema.m):
            roll = rng.random()
            if roll < 0.15:
                box_lows[j] = lows[j]
            elif roll < 0.3:
                box_highs[j] = highs[j]
            elif roll < 0.4:
                box_highs[j] = box_lows[j]
        made.append(
            Subscription(schema, box_lows, box_highs, subscription_id=f"{prefix}{index}")
        )
    return made


def _publications(schema, rng, count, subscriptions):
    """Random points, points exactly on stored bounds, and NaN coordinates."""
    finite_lows, finite_highs = _finite_bounds(schema)
    lows, highs = schema.full_bounds()
    made = []
    for index in range(count):
        roll = index % 7
        if roll == 5 and subscriptions:
            # exactly on the lower or the upper corner of a stored box
            box = subscriptions[int(rng.integers(len(subscriptions)))]
            values = np.where(rng.random(schema.m) < 0.5, box.lows, box.highs)
        elif roll == 6:
            values = rng.uniform(finite_lows, finite_highs)
            values[int(rng.integers(schema.m))] = np.nan
        else:
            values = np.clip(rng.uniform(finite_lows, finite_highs), lows, highs)
        made.append(Publication(schema, values, publication_id=f"p{index}"))
    return made


def _filled_backends(schema, rng, k, churned):
    """The three backends holding the same ``k`` subscriptions.

    ``churned`` tables got there through twice as many adds, removals
    that tombstone and compact the columns, and a few late re-adds.
    """
    backends = {name: make_backend(name) for name in BACKEND_NAMES}
    if not churned:
        for subscription in _subscriptions(schema, rng, k):
            for backend in backends.values():
                backend.add(subscription)
        return backends
    pool = _subscriptions(schema, rng, 2 * k + 4)
    for subscription in pool:
        for backend in backends.values():
            backend.add(subscription)
    late = min(3, k)
    doomed = [s.id for s in pool[::2]] + [s.id for s in pool[1::2]]
    for subscription_id in doomed[: len(pool) - k + late]:
        for backend in backends.values():
            assert backend.remove(subscription_id)
    for subscription in _subscriptions(schema, rng, late, prefix="late"):
        for backend in backends.values():
            backend.add(subscription)
    assert all(len(backend) == k for backend in backends.values())
    return backends


# an unbounded domain has no finite extent to normalise widths by: the
# selectivity statistics of that attribute are NaN (it is evaluated last)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("churned", (False, True), ids=("fresh", "churned"))
@pytest.mark.parametrize("k", (0, 1, 7, 64, 300))
@pytest.mark.parametrize("family", sorted(SCHEMAS))
def test_match_batch_equals_scan_and_reference(family, k, churned):
    schema = SCHEMAS[family]
    rng = np.random.default_rng([k, churned, len(family)])
    backends = _filled_backends(schema, rng, k, churned)
    linear = backends["linear"]
    stored = list(linear._subscriptions.values())
    for burst in (1, 2, 65, 5000):
        publications = _publications(schema, rng, burst, stored)
        reference = _ids(_reference_match_batch(linear, publications))
        sample = range(burst) if burst <= 65 else range(0, burst, 125)
        scanned = {i: _ids([linear.match_candidates(publications[i])])[0] for i in sample}
        stacked = np.array([p.values for p in publications])
        for name, backend in backends.items():
            batch = _ids(backend.match_batch(publications))
            assert batch == reference, (name, burst)
            assert all(batch[i] == scanned[i] for i in sample), (name, burst)
            assert _ids(backend.match_batch(publications, stacked)) == reference
    if k and family != "continuous":
        assert any(matched for matched, _tests in reference)


def test_churned_tables_crossed_tombstones_and_compaction():
    """The sweep's churned tables really exercise both column states."""
    schema = SCHEMAS["discrete"]
    linear = _filled_backends(schema, np.random.default_rng(1), 64, True)["linear"]
    columns = linear._columns
    assert columns._dead > 0 and columns._size < 2 * 64 + 4
    assert np.isnan(columns._signed[:, : columns._size]).any()
    assert [s.id for s in columns._subscriptions if s is not None] == list(
        linear._subscriptions
    )


def test_linear_backend_never_restacks_between_mutations():
    schema = SCHEMAS["discrete"]
    rng = np.random.default_rng(3)
    backend = LinearBackend()
    for subscription in _subscriptions(schema, rng, 20):
        backend.add(subscription)
    matrix = backend._columns._signed
    publications = _publications(schema, rng, 4, [])
    for subscription in _subscriptions(schema, rng, 6, prefix="t"):
        backend.add(subscription)
        backend.match_batch(publications)
        backend.remove(subscription.id)
        backend.match_batch(publications)
    assert backend._columns._signed is matrix


def test_mixed_arity_table_answers_like_the_scan():
    wide, narrow = SCHEMAS["discrete"], Schema.uniform_integer(2, 0, 200)
    rng = np.random.default_rng(4)
    backend = LinearBackend()
    for subscription in _subscriptions(wide, rng, 9):
        backend.add(subscription)
    odd = _subscriptions(narrow, rng, 1, prefix="odd")[0]
    backend.add(odd)
    publications = _publications(wide, rng, 12, [])
    # every lookup of a mixed table trips the scan's shape validation
    with pytest.raises(ValidationError):
        backend.match_candidates(publications[0])
    with pytest.raises(ValidationError):
        backend.match_batch(publications)
    # the odd one gone, the scan answers again (the columns stay away
    # until the backend has been empty once)
    backend.remove(odd.id)
    assert backend._columns is None
    expected = _ids([backend.match_candidates(p) for p in publications])
    assert _ids(backend.match_batch(publications)) == expected
    assert _ids(_reference_match_batch(backend, publications)) == expected
    for subscription_id in list(backend._subscriptions):
        backend.remove(subscription_id)
    backend.add(odd)
    assert backend._columns is not None and backend._columns.m == narrow.m
    # a burst of the wrong arity goes to the scan, which rejects it
    with pytest.raises(ValidationError):
        backend.match_batch(publications[:2])


def test_one_budget_bounds_every_batched_workspace(monkeypatch):
    """Satellite: the linear backend and the oracle got a cell budget."""
    schema = SCHEMAS["discrete"]
    rng = np.random.default_rng(6)
    backends = _filled_backends(schema, rng, 20, True)
    publications = _publications(
        schema, rng, 90, list(backends["linear"]._subscriptions.values())
    )
    expected = {name: _ids(b.match_batch(publications)) for name, b in backends.items()}

    network = BrokerNetwork(grid_topology(2, 2), policy="none", rng=0)
    network.attach_client("c", "B1")
    for subscription in backends["linear"]._subscriptions.values():
        network.subscribe("c", subscription)
    oracle = network._expected_notifications(publications)

    budget = 600
    largest = [0]
    kernel = arena.boxes_meeting

    def watched(signed, limit):
        assert limit.ndim == 2
        largest[0] = max(largest[0], signed.size * limit.shape[1])
        return kernel(signed, limit)

    monkeypatch.setattr(arena, "_CELL_BUDGET", budget)
    monkeypatch.setattr(arena, "boxes_meeting", watched)
    for name, backend in backends.items():
        assert _ids(backend.match_batch(publications)) == expected[name]
    assert network._expected_notifications(publications) == oracle
    # the (2m, B', n) boolean temporary: never above the budget, and the
    # chunks were not degenerate singletons either
    assert budget // 2 < largest[0] <= budget


# ----------------------------------------------------------------------
# (ii) the handler: a batch of N equals N scalar calls
# ----------------------------------------------------------------------
GRID_SCHEMA = Schema.uniform_integer(2, 0, 100)

TOPOLOGIES = {
    "tree": lambda: random_tree_topology(6, rng=1),
    "cyclic": lambda: grid_topology(2, 3),
}


def _overlay(policy, topology, obs=None, dedup_window=4096):
    """A seeded overlay with subscriptions spread over every broker."""
    network = BrokerNetwork(
        TOPOLOGIES[topology](),
        policy=policy,
        rng=11,
        dedup_window=dedup_window,
        obs=obs,
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
    senders = [None] + list(broker.neighbors)
    messages = []
    for index in range(count):
        repeat = index >= 3 and index % 4 == 3
        number = index - 3 if repeat else index
        values = np.random.default_rng([7, number]).integers(0, 101, 2)
        sender = senders[int(rng.integers(len(senders)))]
        if number % 8 == 2:
            values, sender = np.zeros(2), broker.neighbors[0]
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
    for count, stacked in ((1, False), (2, True), (17, False), (17, True)):
        probes = [
            ObsProbe(spans=SpanRecorder()) if observed else None for _ in range(2)
        ]
        # a window of 5 is overrun inside the 17-message batches, so the
        # eviction order (and the re-processing it allows) is compared too
        batched, scalar = (
            _overlay(policy, topology, obs=probe, dedup_window=5) for probe in probes
        )
        if observed:
            for probe in probes:
                del probe.spans.spans[:]
        dead_letters = 0
        for broker_id in batched.broker_ids:
            one, other = batched.brokers[broker_id], scalar.brokers[broker_id]
            one.record_latencies = other.record_latencies = True
            rng = np.random.default_rng([count, len(broker_id)])
            messages = _handler_messages(one, count, rng)
            values = (
                np.array([m.publication.values for m in messages]) if stacked else None
            )
            together = one.handle_publication_batch(messages, values)
            rng = np.random.default_rng([count, len(broker_id)])
            apart = [
                other.handle_publication(message)
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
        network = _overlay(policy, "cyclic", obs=probe, dedup_window=8)
        del probe.spans.spans[:]
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
    assert one.metrics.summary() == other.metrics.summary()
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


def test_publish_and_publish_batch_are_bursts(monkeypatch):
    """Satellite: all three entry points share the one oracle call."""
    network = _overlay("group", "tree", obs=ObsProbe())
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
        lambda publications, values=None: calls.append(len(publications))
        or oracle_batch(publications, values),
    )
    rng = np.random.default_rng(5)
    publications = [
        Publication(GRID_SCHEMA, rng.integers(0, 101, 2)) for _ in range(9)
    ]
    network.publish("c0", publications[0])
    network.publish_batch("c1", publications[1:5])
    network.publish_many([("c2", p) for p in publications[5:]])
    assert network.publish_batch("c1", []) == []
    assert calls == [1, 4, 4]
    stage_calls = network._obs.stage_calls
    assert stage_calls["network.oracle"] == stage_calls["network.collect"] == 3
    assert network.metrics.missed_notifications == 0


# ----------------------------------------------------------------------
# (iii) schedule_many vs one schedule per message
# ----------------------------------------------------------------------
def _kernel(model, batch_size, obs=None):
    kernel = EventKernel(
        make_latency_model(model, rng=5), batch_size=batch_size, obs=obs
    )
    # something already queued, the clock already advanced
    publication = Publication(GRID_SCHEMA, [1, 1], publication_id="early")
    for sender in ("B1", "B2", None):
        kernel.schedule(
            PublicationMessage(
                sender=sender, recipient="B3", publication=publication, sent_at=0.25
            )
        )
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
        if hasattr(message, "messages"):
            return tuple(label(inner) for inner in message.messages)
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
        "egress": {
            link: [label(m) for m in pending]
            for link, pending in kernel._egress.items()
        },
        "delivered_at": [m.delivered_at for m in messages],
        "now": kernel.now,
    }


@pytest.mark.parametrize("batch_size", (1, 4))
@pytest.mark.parametrize("model", ("zero", "fixed:2", "lognormal:0.0,0.5"))
def test_schedule_many_equals_one_schedule_each(model, batch_size):
    probes = [ObsProbe(spans=SpanRecorder()) for _ in range(2)]
    bulk, single = (_kernel(model, batch_size, probe) for probe in probes)
    together, apart = _scheduled_messages(), _scheduled_messages()
    bulk.schedule_many(iter(together))  # consumed once, lazily
    for message in apart:
        single.schedule(message)
    assert _kernel_state(bulk, together) == _kernel_state(single, apart)
    assert len(bulk._heap) > 10
    assert _span_fields(probes[0].spans) == _span_fields(probes[1].spans)
    # one stage entry per scheduling run, unless egress batching diverts
    # every message through ``schedule``
    extra = probes[0].stage_calls["kernel.schedule"] - 3
    assert extra == (1 if batch_size == 1 else len(together))
    assert probes[1].stage_calls["kernel.schedule"] - 3 == len(apart)
    # and the two kernels drain identically
    assert [
        _kernel_state(bulk, together)["heap"] for _ in bulk.drain_grouped()
    ] == [_kernel_state(single, apart)["heap"] for _ in single.drain_grouped()]


def test_schedule_many_falls_back_while_an_egress_buffer_is_held():
    bulk, single = (_kernel("zero", 4) for _ in range(2))
    for kernel in (bulk, single):
        for message in _scheduled_messages()[:3]:
            kernel.schedule(message)
        kernel.batch_size = 1  # lowered mid-run: buffers are still held
        assert kernel._egress
    together, apart = _scheduled_messages(), _scheduled_messages()
    bulk.schedule_many(together)
    for message in apart:
        single.schedule(message)
    assert _kernel_state(bulk, together) == _kernel_state(single, apart)


# ----------------------------------------------------------------------
# (iv) NumPy calls per handled batch do not grow with the batch
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
    for backend in BACKEND_NAMES:
        for count in (4, 400):
            network = BrokerNetwork(
                TOPOLOGIES["tree"](), policy="group", rng=11, matcher_backend=backend
            )
            network.attach_client("c", "B1")
            rng = np.random.default_rng(12)
            for index in range(30):
                low = rng.integers(0, 70, 2)
                network.subscribe(
                    "c",
                    Subscription(
                        GRID_SCHEMA, low, low + 25, subscription_id=f"s{index}"
                    ),
                )
            broker = network.brokers["B1"]
            messages = _handler_messages(broker, count, np.random.default_rng(2))
            calls.clear()
            outgoing = broker.handle_publication_batch(messages)
            assert len(outgoing) == count and broker.delivered
            seen[backend, count] = dict(calls)
        assert seen[backend, 4] == seen[backend, 400] == {"nonzero": 1, "kernel": 1}
