"""JSONL trace recording and replay.

A trace file is one header line followed by one line per event::

    {"kind": "repro.scenarios.trace", "version": 1, "seed": 7,
     "scenario": {...}, "schema": {...}, "edges": [...],
     "clients": {...}, "event_count": 123, "trace_hash": "...",
     "engine_backend": "linear"}
    {"seq": 1, "phase": "ramp", "action": "subscribe", ...}
    ...

The header embeds everything a replay needs — the spec, the compilation
seed, the materialised topology and the client placement — so a recorded
run is self-contained: ``read_trace`` reconstructs the exact
:class:`~repro.scenarios.events.CompiledScenario` the original run
executed, and feeding it back through the runner reproduces the original
per-phase metrics bit for bit (the backend RNG is re-derived from the
recorded seed).

The header's ``trace_hash`` is the SHA-256 of the canonical event lines
*bound to* the replay-relevant header fields (spec, seed, schema, edges,
client placement); ``read_trace`` recomputes and verifies it, so silent
corruption or hand-editing of either the events or the header is detected
instead of producing quietly different replays.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Union

from repro.model.serialization import schema_from_dict, schema_to_dict
from repro.scenarios.events import CompiledScenario, ScenarioEvent
from repro.scenarios.spec import ScenarioSpec

__all__ = ["TraceError", "write_trace", "read_trace", "TRACE_KIND", "TRACE_VERSION"]

TRACE_KIND = "repro.scenarios.trace"
TRACE_VERSION = 1


class TraceError(ValueError):
    """A trace file is malformed, truncated or corrupted."""


def write_trace(
    path: Union[str, os.PathLike],
    compiled: CompiledScenario,
    backend: Optional[str] = None,
) -> str:
    """Write ``compiled`` as a JSONL trace; returns the trace hash.

    ``backend`` records which runner backend the run used, so a later
    replay can default to the same one (the event stream itself is
    backend-agnostic).  The header also mirrors the spec's
    ``engine_backend`` label, which selects nothing; it stays so that
    traces keep their byte layout.
    """
    digest = compiled.trace_hash()
    header: Dict[str, Any] = {
        "kind": TRACE_KIND,
        "version": TRACE_VERSION,
        "seed": compiled.seed,
        "scenario": compiled.spec.to_dict(),
        "schema": schema_to_dict(compiled.schema),
        "edges": [list(edge) for edge in compiled.edges],
        "clients": dict(compiled.clients),
        "event_count": compiled.event_count,
        "trace_hash": digest,
        "engine_backend": compiled.spec.engine_backend,
        "latency_model": compiled.spec.latency_model,
    }
    if backend is not None:
        header["backend"] = backend
    directory = os.path.dirname(os.fspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True))
        handle.write("\n")
        for event in compiled.events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
    return digest


def read_trace(
    path: Union[str, os.PathLike], verify: bool = True
) -> CompiledScenario:
    """Load a JSONL trace back into a runnable :class:`CompiledScenario`.

    With ``verify`` (the default) the event count and trace hash recorded
    in the header are checked against the actual event lines.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in (raw.strip() for raw in handle) if line]
    if not lines:
        raise TraceError(f"trace {os.fspath(path)!r} is empty")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceError(f"malformed trace header: {exc}") from exc
    if header.get("kind") != TRACE_KIND:
        raise TraceError(
            f"not a scenario trace (kind={header.get('kind')!r})"
        )
    if header.get("version") != TRACE_VERSION:
        raise TraceError(
            f"unsupported trace version {header.get('version')!r} "
            f"(expected {TRACE_VERSION})"
        )

    try:
        spec = ScenarioSpec.from_dict(header["scenario"])
        schema = schema_from_dict(header["schema"])
        seed = int(header["seed"])
        edges = [tuple(edge) for edge in header["edges"]]
        clients = dict(header["clients"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed trace header: {exc}") from exc

    events = []
    for index, line in enumerate(lines[1:], start=2):
        try:
            events.append(ScenarioEvent.from_dict(json.loads(line), schema))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed event on line {index}: {exc}") from exc

    compiled = CompiledScenario(
        spec=spec,
        seed=seed,
        schema=schema,
        edges=edges,
        clients=clients,
        events=events,
        recorded_backend=header.get("backend"),
        recorded_latency_model=header.get("latency_model"),
    )
    if verify:
        expected_count = header.get("event_count")
        if expected_count is not None and expected_count != len(events):
            raise TraceError(
                f"trace declares {expected_count} events but contains "
                f"{len(events)}"
            )
        recorded = header.get("trace_hash")
        actual = compiled.trace_hash()
        if recorded is not None and recorded != actual:
            raise TraceError(
                "trace hash mismatch: header says "
                f"{recorded[:12]}…, trace content hashes to {actual[:12]}… "
                "(events or replay-relevant header fields were modified)"
            )
    return compiled
