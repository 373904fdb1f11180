"""Trace records and the persisted trace file format.

A trace is the single source of truth for all analysis: the time-ordered
trigger events plus every signal-arrival outcome.  The file format is
CSV with '#key=value' header lines (schema version, seed, and a JSON
parameter echo) followed by a [triggers] and an [arrivals] section, so a
persisted trace can be re-analyzed bit-identically.  The writer yields
one string per chunk of up to _CHUNK_ROWS rows.  The reader streams the
file line by line with the cyclic GC paused, checks each distinct trigger
tail "cell,kind,pioneer" once, looks arrival ids up in a table of their
canonical spellings, and rejects any break of the trace contract.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from typing import NamedTuple

from .errors import MepsimError, TopologyError, TraceParseError
from .timing import MAX_NS, SimParams
from .topology import Graph, from_edge_list, names_graph

SCHEMA_VERSION = 1

KIND_EXTERNAL = "external"
KIND_INTERNAL = "internal"

OUTCOME_ACCEPTED = "accepted"
OUTCOME_REJECTED = "rejected"
OUTCOME_OMITTED = "omitted"

# each valid outcome maps to the module constant, so parsed records share
# one string object per outcome
_OUTCOMES = {o: o for o in (OUTCOME_ACCEPTED, OUTCOME_REJECTED, OUTCOME_OMITTED)}

TRIGGERS_HEADER = "seq,time_ns,cell,kind,pioneer"
ARRIVALS_HEADER = "time_ns,from,to,outcome,rejecting_seq"

_CHUNK_ROWS = 4096  # rows per string the writer yields


@contextmanager
def paused_gc():
    """Pause the cyclic GC in the block; restore its prior state after."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class ArrivalRecord:
    """Arrival frm -> to at `time` (real ns): `outcome` accepted, rejected or
    omitted, and a rejection's `rejecting_seq`.  A slot class, one per trace
    row: this __init__ and these slot reads beat a NamedTuple's."""

    __slots__ = ("frm", "to", "time", "outcome", "rejecting_seq")

    def __init__(self, frm, to, time, outcome, rejecting_seq=None):
        self.frm, self.to, self.time = frm, to, time
        self.outcome, self.rejecting_seq = outcome, rejecting_seq

    def __eq__(self, other):  # by value; records are unhashable
        return type(other) is ArrivalRecord and all(
            getattr(self, s) == getattr(other, s) for s in self.__slots__)

    def __repr__(self):
        return "ArrivalRecord(%s)" % ", ".join(
            f"{s}={getattr(self, s)!r}" for s in self.__slots__)


class Trace(NamedTuple):
    graph: Graph
    params: SimParams
    # (time_ns, cell, pioneer) tuples sorted by (time, cell); a trigger's
    # seq is its index, and it is external iff its pioneer is its cell
    triggers: list
    arrivals: list
    horizon: int
    seed: object
    warnings: list | tuple = ()
    models: dict | None = None  # echo of model selections; None writes {}
    arrivals_recorded: bool = True


def _meta_dict(trace: Trace) -> dict:
    return {
        "graph": {
            "n": trace.graph.node_count,
            "name": trace.graph.name,
            "edges": trace.graph.edges,
        },
        "params": trace.params._asdict(),
        "horizon": trace.horizon,
        "warnings": trace.warnings,
        "models": trace.models or {},
        "arrivals_recorded": trace.arrivals_recorded,
    }


def write_trace(trace: Trace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.writelines(_trace_rows(trace))


def _trace_rows(trace: Trace):
    """The text of the trace file in pieces: the header lines, then one
    string per chunk of at most _CHUNK_ROWS rows, so writing a trace never
    holds the whole file text.  Cell ids and external-trigger tails come
    from tables of n strings; times and seqs, unique per row, are
    formatted per row."""
    yield f"#mepsim-trace={SCHEMA_VERSION}\n"
    yield f"#seed={json.dumps(trace.seed)}\n"
    yield f"#meta={json.dumps(_meta_dict(trace), sort_keys=True)}\n"
    yield "[triggers]\n" + TRIGGERS_HEADER + "\n"
    ids = [str(i) for i in range(trace.graph.node_count)]
    external = [f"{c},{KIND_EXTERNAL},{c}\n" for c in ids]
    for i in range(0, len(trace.triggers), _CHUNK_ROWS):
        yield "".join([
            f"{seq},{t},{external[cell]}" if pioneer == cell else
            f"{seq},{t},{ids[cell]},{KIND_INTERNAL},{ids[pioneer]}\n"
            for seq, (t, cell, pioneer)
            in enumerate(trace.triggers[i:i + _CHUNK_ROWS], i)])
    yield "[arrivals]\n" + ARRIVALS_HEADER + "\n"
    for i in range(0, len(trace.arrivals), _CHUNK_ROWS):
        yield "".join([
            f"{a.time},{ids[a.frm]},{ids[a.to]},{a.outcome},"
            f"{'' if a.rejecting_seq is None else a.rejecting_seq}\n"
            for a in trace.arrivals[i:i + _CHUNK_ROWS]])


def read_trace(path, keep_arrivals=True) -> Trace:
    """Read a trace file, checking the whole trace contract.

    Beyond the syntax, the contract holds that trigger seqs are row
    indices; triggers are sorted by (time, cell) and arrivals by (time,
    to, from); every time lies in [0, horizon]; cells, pioneers and
    senders lie in [0, n); an external trigger's pioneer is its own cell
    and an internal one's a neighbour; and only a rejection names a
    rejecting trigger, which is a trigger of the receiving cell no later
    than the arrival.  Any break raises TraceParseError.  With
    keep_arrivals false every arrival row is still checked, but the
    returned trace holds none and reports arrivals_recorded false.
    """
    with open(path, encoding="utf-8") as fh, paused_gc():
        try:
            return _parse(enumerate(fh, 1), keep_arrivals)
        except UnicodeDecodeError as exc:
            raise TraceParseError(f"not UTF-8 text: {exc}") from exc


def _next_line(rows, lineno):
    """(line number, line without its newline) of the next row, or
    (lineno + 1, None) at the end of the file."""
    for lineno, line in rows:
        return lineno, line.rstrip("\n")
    return lineno + 1, None


def _parse(rows, keep_arrivals) -> Trace:
    lineno, line = _next_line(rows, 0)
    if line is None or not line.startswith("#mepsim-trace="):
        raise TraceParseError("missing schema header", line=1)
    version = line.split("=", 1)[1]
    if version != str(SCHEMA_VERSION):
        raise TraceParseError(f"unsupported schema version {version}", line=1)
    header = {}
    lineno, line = _next_line(rows, lineno)
    while line is not None and line.startswith("#"):
        key, _, value = line[1:].partition("=")
        if key in ("seed", "meta"):
            try:
                header[key] = json.loads(value)
            except (ValueError, RecursionError) as exc:
                raise TraceParseError(f"bad #{key} JSON: {exc}",
                                      line=lineno) from exc
        lineno, line = _next_line(rows, lineno)
    if "meta" not in header:
        raise TraceParseError("missing #meta header")
    fields = _read_meta(header["meta"])
    graph, horizon = fields["graph"], fields["horizon"]
    if line != "[triggers]":
        raise TraceParseError("missing [triggers] section", line=lineno)
    lineno, line = _next_line(rows, lineno)
    if line != TRIGGERS_HEADER:
        raise TraceParseError("missing triggers header row", line=lineno)
    triggers, lineno = _read_triggers(rows, graph, horizon)
    lineno, line = _next_line(rows, lineno)
    if line != ARRIVALS_HEADER:
        raise TraceParseError("missing arrivals header row", line=lineno)
    arrivals, any_rows = _read_arrivals(rows, graph.node_count, horizon,
                                        triggers, keep_arrivals)
    if any_rows and not fields["arrivals_recorded"]:
        raise TraceParseError("arrival rows in a trace whose #meta says "
                              "arrivals were not recorded")
    fields["arrivals_recorded"] &= bool(keep_arrivals)  # holds none: says so
    return Trace(triggers=triggers, arrivals=arrivals,
                 seed=header.get("seed"), **fields)


def _read_meta(meta) -> dict:
    """The Trace fields the #meta header holds, each checked."""
    try:
        gmeta = meta["graph"]
        n, edges, name = gmeta["n"], gmeta["edges"], gmeta.get("name")
        raw_params, horizon = meta["params"], meta["horizon"]
    except (KeyError, TypeError) as exc:
        raise TraceParseError(f"#meta lacks or mistypes {exc}") from exc
    if type(horizon) is not int or not 0 < horizon <= MAX_NS:
        raise TraceParseError(f"#meta horizon {horizon!r} is not a positive "
                              f"integer of at most 2**53 ns")
    try:
        graph = from_edge_list(n, [tuple(e) for e in edges])
        params = SimParams.from_dict(raw_params)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceParseError(f"#meta lacks or mistypes {exc}") from exc
    except MepsimError as exc:  # present members that break a rule
        part = "graph" if isinstance(exc, TopologyError) else "params"
        raise TraceParseError(f"#meta {part} invalid: {exc}") from exc
    if name:
        if not isinstance(name, str) or not names_graph(name, graph):
            raise TraceParseError(f"#meta graph name {name!r} does not "
                                  f"build its edge list")
        graph = graph._replace(name=name)
    warnings = meta.get("warnings", [])
    if not isinstance(warnings, list) or \
            not all(isinstance(w, str) for w in warnings):
        raise TraceParseError(f"#meta warnings {warnings!r} is not a list "
                              f"of strings")
    models = meta.get("models", {})
    arrivals_recorded = meta.get("arrivals_recorded", True)
    if not isinstance(models, dict) or type(arrivals_recorded) is not bool:
        raise TraceParseError("#meta models must be an object and "
                              "arrivals_recorded a boolean")
    return dict(graph=graph, params=params, horizon=horizon,
                warnings=warnings, models=models,
                arrivals_recorded=arrivals_recorded)


def _read_triggers(rows, graph: Graph, horizon: int) -> tuple:
    """The trigger rows, and the line number of the [arrivals] line that
    ends them.  A row whose tail "cell,kind,pioneer" is new runs every
    check in order; a later row with a tail that passed skips just the
    checks the tail alone decides."""
    n = graph.node_count
    adjacency = graph.adjacency
    triggers = []
    checked = {}  # tail -> (cell, pioneer) of a tail that passed
    prev_t = prev_cell = -1  # (time, cell) of the previous row
    for lineno, line in rows:
        parts = line.split(",", 2)
        known = checked.get(parts[-1])  # only a 3-part row can match
        if known is None:
            try:
                seq, t, cell, kind, pioneer = line.split(",")
            except ValueError:
                if line.rstrip("\n") == "[arrivals]":
                    return triggers, lineno
                raise TraceParseError("malformed trigger row",
                                      line=lineno) from None
        else:
            seq, t, _ = parts
            cell, pioneer = known
        try:
            seq, t = int(seq), int(t)
            if known is None:
                cell, pioneer = int(cell), int(pioneer)
        except ValueError as exc:
            raise TraceParseError(str(exc), line=lineno) from exc
        if known is None and kind not in (KIND_EXTERNAL, KIND_INTERNAL):
            raise TraceParseError(f"bad trigger kind {kind!r}", line=lineno)
        if seq != len(triggers):
            raise TraceParseError(f"trigger seq {seq} is not its index "
                                  f"{len(triggers)}", line=lineno)
        if known is None:
            if not (0 <= cell < n and 0 <= pioneer < n):
                raise TraceParseError(f"cell or pioneer outside [0, {n})",
                                      line=lineno)
            if kind == KIND_EXTERNAL and pioneer != cell:
                raise TraceParseError(f"external trigger of cell {cell} has "
                                      f"pioneer {pioneer}", line=lineno)
            if kind == KIND_INTERNAL and pioneer not in adjacency[cell]:
                raise TraceParseError(f"internal trigger of cell {cell} has "
                                      f"pioneer {pioneer}, not a neighbour",
                                      line=lineno)
            checked[parts[2]] = (cell, pioneer)
        if not 0 <= t <= horizon:
            raise TraceParseError(f"time {t} outside [0, {horizon}]",
                                  line=lineno)
        if t <= prev_t and (t < prev_t or cell < prev_cell):
            raise TraceParseError("triggers not sorted by (time, cell)",
                                  line=lineno)
        prev_t, prev_cell = t, cell
        triggers.append((t, cell, pioneer))
    raise TraceParseError("missing [arrivals] section")


def _read_arrivals(rows, n: int, horizon: int, triggers: list,
                   keep: bool) -> tuple:
    """The arrival rows up to the end of the file (none unless `keep`), and
    whether there was any.  A blank line ends the section; only blank
    lines may follow it."""
    arrivals = []
    seqs = len(triggers)
    seq_ints = None  # list(range(seqs)) once a rejection row is read
    ids = {str(i): i for i in range(n)}  # canonical in-range cell ids
    prev_t = prev_to = prev_frm = -1  # (time, to, from) of the previous row
    for lineno, line in rows:
        try:
            t, frm, to, outcome, rej = line.split(",")
        except ValueError:
            if line.rstrip("\n"):
                raise TraceParseError("malformed arrival row",
                                      line=lineno) from None
            break
        try:
            t = int(t)
            if frm in ids and to in ids:
                frm, to, other = ids[frm], ids[to], False
            else:  # another spelling, such as "+3" or "03", or out of range
                frm, to, other = int(frm), int(to), True
            rej = None if rej in ("", "\n") else int(rej)
        except ValueError as exc:
            raise TraceParseError(str(exc), line=lineno) from exc
        known = _OUTCOMES.get(outcome)
        if known is None:
            raise TraceParseError(f"bad arrival outcome {outcome!r}",
                                  line=lineno)
        if other and not (0 <= frm < n and 0 <= to < n):
            raise TraceParseError(f"from or to outside [0, {n})", line=lineno)
        if not 0 <= t <= horizon:
            raise TraceParseError(f"time {t} outside [0, {horizon}]",
                                  line=lineno)
        if t <= prev_t and (t < prev_t or to < prev_to or
                            (to == prev_to and frm < prev_frm)):
            raise TraceParseError("arrivals not sorted by (time, to, from)",
                                  line=lineno)
        prev_t, prev_to, prev_frm = t, to, frm
        if rej is not None:
            if not 0 <= rej < seqs:
                raise TraceParseError(f"rejecting_seq {rej} outside "
                                      f"[0, {seqs})", line=lineno)
            if seq_ints is None:
                seq_ints = list(range(seqs))
            # every arrival rejected by one trigger shares one int object
            rej = seq_ints[rej]
            if known is not OUTCOME_REJECTED:
                raise TraceParseError(f"rejecting_seq on an {known} arrival",
                                      line=lineno)
            rej_t, rej_cell, _ = triggers[rej]
            if rej_t > t:
                raise TraceParseError(f"rejecting_seq {rej} names a trigger "
                                      f"after the arrival", line=lineno)
            if rej_cell != to:
                raise TraceParseError(f"rejecting_seq {rej} names a trigger "
                                      f"of cell {rej_cell}, not of the "
                                      f"receiver {to}", line=lineno)
        if keep:
            arrivals.append(ArrivalRecord(frm, to, t, known, rej))
    for lineno, line in rows:
        if line.rstrip("\n"):
            raise TraceParseError("row after the blank line that ends the "
                                  "arrivals section", line=lineno)
    return arrivals, prev_t >= 0  # each row read sets prev_t to a t >= 0
