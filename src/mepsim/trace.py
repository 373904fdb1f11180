"""Trace records and the persisted trace file format.

A trace is the single source of truth for all analysis: the time-ordered
trigger events plus every signal-arrival outcome.  The file format is
CSV with '#key=value' header lines (schema version, seed, and a JSON
parameter echo) followed by a [triggers] and an [arrivals] section, so a
persisted trace can be re-analyzed bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import TraceParseError
from .timing import SimParams
from .topology import Graph, from_edge_list

SCHEMA_VERSION = 1

KIND_EXTERNAL = "external"
KIND_INTERNAL = "internal"

OUTCOME_ACCEPTED = "accepted"
OUTCOME_REJECTED = "rejected"
OUTCOME_OMITTED = "omitted"


@dataclass(frozen=True, slots=True)
class TriggerRecord:
    seq: int
    cell: int
    time: int  # real ns
    kind: str  # external | internal
    pioneer: int  # self for external triggers


@dataclass(frozen=True, slots=True)
class ArrivalRecord:
    frm: int
    to: int
    time: int  # real ns
    outcome: str  # accepted | rejected | omitted
    rejecting_seq: int | None = None  # trigger that caused a rejection


@dataclass
class Trace:
    graph: Graph
    params: SimParams
    triggers: list
    arrivals: list
    horizon: int
    seed: object
    warnings: list = field(default_factory=list)
    models: dict = field(default_factory=dict)  # echo of model selections
    arrivals_recorded: bool = True


def _meta_dict(trace: Trace) -> dict:
    return {
        "graph": {
            "n": trace.graph.node_count,
            "name": trace.graph.name,
            "edges": sorted(trace.graph.edges),
        },
        "params": trace.params.as_dict(),
        "horizon": trace.horizon,
        "warnings": trace.warnings,
        "models": trace.models,
        "arrivals_recorded": trace.arrivals_recorded,
    }


def write_trace(trace: Trace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(trace_to_text(trace))


def trace_to_text(trace: Trace) -> str:
    lines = []
    lines.append(f"#mepsim-trace={SCHEMA_VERSION}")
    lines.append(f"#seed={json.dumps(trace.seed)}")
    lines.append(f"#meta={json.dumps(_meta_dict(trace), sort_keys=True)}")
    lines.append("[triggers]")
    lines.append("seq,time_ns,cell,kind,pioneer")
    for t in trace.triggers:
        lines.append(f"{t.seq},{t.time},{t.cell},{t.kind},{t.pioneer}")
    lines.append("[arrivals]")
    lines.append("time_ns,from,to,outcome,rejecting_seq")
    for a in trace.arrivals:
        rej = "" if a.rejecting_seq is None else a.rejecting_seq
        lines.append(f"{a.time},{a.frm},{a.to},{a.outcome},{rej}")
    return "\n".join(lines) + "\n"


def read_trace(path) -> Trace:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("#mepsim-trace="):
        raise TraceParseError("missing schema header", line=1)
    version = lines[0].split("=", 1)[1]
    if version != str(SCHEMA_VERSION):
        raise TraceParseError(f"unsupported schema version {version}", line=1)
    header = {}
    idx = 1
    while idx < len(lines) and lines[idx].startswith("#"):
        key, _, value = lines[idx][1:].partition("=")
        if key in ("seed", "meta"):
            try:
                header[key] = json.loads(value)
            except json.JSONDecodeError as exc:
                raise TraceParseError(f"bad #{key} JSON: {exc}",
                                      line=idx + 1) from exc
        idx += 1
    if "meta" not in header:
        raise TraceParseError("missing #meta header")
    meta = header["meta"]
    try:
        gmeta = meta["graph"]
        graph = from_edge_list(gmeta["n"], [tuple(e) for e in gmeta["edges"]])
        params = SimParams.from_dict(meta["params"])
        horizon = meta["horizon"]
    except (KeyError, TypeError) as exc:
        raise TraceParseError(f"#meta lacks or mistypes {exc}") from exc
    if gmeta.get("name"):
        graph = Graph(graph.node_count, graph.edges, graph.adjacency, gmeta["name"])
    n = graph.node_count
    if idx >= len(lines) or lines[idx] != "[triggers]":
        raise TraceParseError("missing [triggers] section", line=idx + 1)
    idx += 1
    if idx >= len(lines) or lines[idx] != "seq,time_ns,cell,kind,pioneer":
        raise TraceParseError("missing triggers header row", line=idx + 1)
    idx += 1
    triggers = []
    while idx < len(lines) and lines[idx] != "[arrivals]":
        parts = lines[idx].split(",")
        if len(parts) != 5:
            raise TraceParseError("malformed trigger row", line=idx + 1)
        try:
            rec = TriggerRecord(
                seq=int(parts[0]), time=int(parts[1]), cell=int(parts[2]),
                kind=parts[3], pioneer=int(parts[4]))
        except ValueError as exc:
            raise TraceParseError(str(exc), line=idx + 1) from exc
        if rec.kind not in (KIND_EXTERNAL, KIND_INTERNAL):
            raise TraceParseError(f"bad trigger kind {parts[3]!r}", line=idx + 1)
        if rec.seq != len(triggers):
            raise TraceParseError(f"trigger seq {rec.seq} is not its index "
                                  f"{len(triggers)}", line=idx + 1)
        if not (0 <= rec.cell < n and 0 <= rec.pioneer < n):
            raise TraceParseError(f"cell or pioneer outside [0, {n})",
                                  line=idx + 1)
        if triggers and (rec.time, rec.cell) < (triggers[-1].time,
                                                triggers[-1].cell):
            raise TraceParseError("triggers not sorted by (time, cell)",
                                  line=idx + 1)
        triggers.append(rec)
        idx += 1
    if idx >= len(lines):
        raise TraceParseError("missing [arrivals] section")
    idx += 1
    if idx >= len(lines) or lines[idx] != "time_ns,from,to,outcome,rejecting_seq":
        raise TraceParseError("missing arrivals header row", line=idx + 1)
    idx += 1
    arrivals = []
    while idx < len(lines) and lines[idx]:
        parts = lines[idx].split(",")
        if len(parts) != 5:
            raise TraceParseError("malformed arrival row", line=idx + 1)
        try:
            t, frm, to = int(parts[0]), int(parts[1]), int(parts[2])
            rej = None if parts[4] == "" else int(parts[4])
        except ValueError as exc:
            raise TraceParseError(str(exc), line=idx + 1) from exc
        outcome = parts[3]
        if outcome not in (OUTCOME_ACCEPTED, OUTCOME_REJECTED, OUTCOME_OMITTED):
            raise TraceParseError(f"bad arrival outcome {outcome!r}", line=idx + 1)
        if not (0 <= frm < n and 0 <= to < n):
            raise TraceParseError(f"from or to outside [0, {n})", line=idx + 1)
        if rej is not None and not 0 <= rej < len(triggers):
            raise TraceParseError(f"rejecting_seq {rej} outside "
                                  f"[0, {len(triggers)})", line=idx + 1)
        arrivals.append(ArrivalRecord(frm=frm, to=to, time=t,
                                      outcome=outcome, rejecting_seq=rej))
        idx += 1

    return Trace(
        graph=graph,
        params=params,
        triggers=triggers,
        arrivals=arrivals,
        horizon=horizon,
        seed=header.get("seed"),
        warnings=list(meta.get("warnings", [])),
        models=meta.get("models", {}),
        arrivals_recorded=meta.get("arrivals_recorded", True),
    )
