import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

from mepsim import DelayModel, DriftAssignment, derive_params, simulate
from mepsim.engine import InitState
from mepsim.errors import TraceParseError
from mepsim.topology import (build_ring, from_edge_list, parse_topology,
                             topology_stats)
from mepsim.trace import read_trace, write_trace

TRIGGERS = "seq,time_ns,cell,kind,pioneer"
ARRIVALS = "time_ns,from,to,outcome,rejecting_seq"


@pytest.fixture(scope="module")
def small_trace():
    g = build_ring(4)
    stats = topology_stats(g)
    params = derive_params(stats, 100, 0.0)
    dm = DelayModel(kind="uniform")
    return simulate(g, params, delay_model=dm, horizon=20000, seed=11)


@pytest.fixture(scope="module")
def small_text(small_trace, tmp_path_factory):
    """The text write_trace writes for small_trace."""
    path = tmp_path_factory.mktemp("small") / "trace.csv"
    write_trace(small_trace, path)
    return path.read_text()


def test_roundtrip(tmp_path, small_trace):
    path = tmp_path / "trace.csv"
    write_trace(small_trace, path)
    back = read_trace(path)
    assert back.triggers == small_trace.triggers
    assert {len(t) for t in back.triggers} == {3}  # (time, cell, pioneer)
    assert back.arrivals == small_trace.arrivals
    assert back.params == small_trace.params
    assert back.graph.edges == small_trace.graph.edges
    assert back.graph.name == small_trace.graph.name
    assert back.seed == small_trace.seed
    assert back.horizon == small_trace.horizon
    # serialization is a fixed point
    assert back == small_trace
    write_trace(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == path.read_text()


def test_rejections_by_one_trigger_share_their_seq(tmp_path):
    """The reader builds one int per rejecting trigger, not one per row;
    only seqs above 256 tell, since CPython caches the smaller ints."""
    g = build_ring(4)
    params = derive_params(topology_stats(g), 100, 0.0)
    trace = simulate(g, params, horizon=200000, seed=11,
                     delay_model=DelayModel(kind="uniform"))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    by_seq = {}
    for a in read_trace(path).arrivals:
        if a.rejecting_seq is not None and a.rejecting_seq > 256:
            by_seq.setdefault(a.rejecting_seq, []).append(a.rejecting_seq)
    shared = [seqs for seqs in by_seq.values() if len(seqs) > 1]
    assert shared
    assert all(s is seqs[0] for seqs in shared for s in seqs)


# constructor graphs (stats in closed form) whose ids reach two digits
_WIDE_GRAPHS = [parse_topology(spec)
                for spec in ("ring:12", "grid:3x5", "hypercube:4")]


@st.composite
def _small_run(draw):
    if draw(st.booleans()):
        graph = draw(st.sampled_from(_WIDE_GRAPHS))
    else:
        n = draw(st.integers(2, 5))
        edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges |= set(draw(st.lists(st.sampled_from(pairs),
                                   max_size=len(pairs))))
        graph = from_edge_list(n, sorted(edges))
    d_max = draw(st.integers(1, 100))
    d_min = draw(st.integers(0, d_max))
    rho = draw(st.sampled_from([0.0, 1e-4]))
    params = derive_params(topology_stats(graph), d_max, rho, d_min=d_min,
                           omission_p=draw(st.sampled_from([0.0, 0.2])),
                           dmin_compensation=draw(st.booleans()))
    signal = st.sampled_from(sorted(graph.edges)).flatmap(
        lambda e: st.tuples(st.permutations(e), st.integers(0, d_max)))
    signals = tuple((a, b, t) for (a, b), t in
                    draw(st.lists(signal, max_size=4)))
    return graph, params, dict(
        delay_model=DelayModel(kind="uniform"),
        seed=draw(st.one_of(st.integers(0, 2**16), st.text(max_size=4))),
        horizon=draw(st.integers(1, 4 * params.liveness_real_max)),
        drift=DriftAssignment(mode="uniform" if rho else "zero"),
        init=InitState(signals=signals),
        record_arrivals=draw(st.booleans()))


def _spelled_rows(trace):
    """The data rows of a trace file, each spelled on its own."""
    rows = [f"{seq},{t},{cell},{'external' if p == cell else 'internal'},{p}"
            for seq, (t, cell, p) in enumerate(trace.triggers)]
    rows += ["[arrivals]", ARRIVALS]
    rows += [f"{a.time},{a.frm},{a.to},{a.outcome},"
             f"{'' if a.rejecting_seq is None else a.rejecting_seq}"
             for a in trace.arrivals]
    return rows


@settings(max_examples=150, deadline=None)
@given(_small_run())
def test_roundtrip_random_runs(tmp_path_factory, case):
    """Every simulated trace reads back to equal records, writing what was
    read reproduces the file, and each data row is its record's per-row
    f-string spelling."""
    graph, params, kw = case
    trace = simulate(graph, params, **kw)
    path = tmp_path_factory.mktemp("roundtrip") / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[lines.index(TRIGGERS) + 1:] == _spelled_rows(trace)
    back = read_trace(path)
    assert back.triggers == trace.triggers
    assert back.arrivals == trace.arrivals
    assert (back.graph, back.params, back.horizon, back.seed, back.warnings,
            back.models, back.arrivals_recorded) == \
        (trace.graph, trace.params, trace.horizon, trace.seed,
         trace.warnings, trace.models, trace.arrivals_recorded)
    again = path.with_name("again.csv")
    write_trace(back, again)
    assert again.read_text() == path.read_text()
    assert read_trace(path, keep_arrivals=False) == \
        back._replace(arrivals=[], arrivals_recorded=False)


def test_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nonsense\n")
    with pytest.raises(TraceParseError):
        read_trace(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("#mepsim-trace=99\n")
    with pytest.raises(TraceParseError):
        read_trace(path)


def test_truncated_file_reports_line(tmp_path, small_text):
    path = tmp_path / "trace.csv"
    lines = small_text.splitlines()
    cut = lines[: lines.index("[arrivals]")]
    path.write_text("\n".join(cut) + "\n")
    with pytest.raises(TraceParseError):
        read_trace(path)


def test_malformed_row_reports_line(tmp_path, small_text):
    path = tmp_path / "trace.csv"
    lines = small_text.splitlines()
    lines[5] = "not,a,row"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as exc:
        read_trace(path)
    assert exc.value.line == 6


def _field(field, value):
    """Set one field; value may be a function of (row fields, trace)."""
    def mutate(line, trace):
        parts = line.split(",")
        parts[field] = value(parts, trace) if callable(value) else value
        return ",".join(parts)
    return mutate


def _meta_edit(*keys, value=None, delete=False):
    def mutate(line, trace):
        meta = json.loads(line.partition("=")[2])
        node = meta
        for key in keys[:-1]:
            node = node[key]
        if delete:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        return "#meta=" + json.dumps(meta)
    return mutate


def _meta_without(*keys):
    return _meta_edit(*keys, delete=True)


def _neighbour(parts, trace):
    return str(trace.graph.adjacency[int(parts[2])][0])


def _last_seq(parts, trace):
    return str(len(trace.triggers) - 1)


def _other_cells_trigger(parts, trace):
    t, to = int(parts[0]), int(parts[2])
    return str(next(seq for seq, (time, cell, _) in enumerate(trace.triggers)
                    if cell != to and time <= t))


def _past_horizon(parts, trace):
    return str(trace.horizon + 1)


@pytest.mark.parametrize("header, mutate, match", [
    pytest.param(TRIGGERS, _field(3, "sideways"), "bad trigger kind",
                 id="kind"),
    pytest.param(TRIGGERS, _field(0, "1"), "not its index",
                 id="seq-not-index"),
    pytest.param(TRIGGERS, _field(2, "4"), "outside", id="cell-out-of-range"),
    pytest.param(TRIGGERS, _field(4, "77"), "outside",
                 id="pioneer-out-of-range"),
    pytest.param(TRIGGERS, _field(1, lambda p, t: str(t.horizon)),
                 "triggers not sorted", id="unsorted"),
    pytest.param(TRIGGERS, _field(4, _neighbour), "external trigger",
                 id="external-pioneer-not-cell"),
    pytest.param(TRIGGERS, _field(3, "internal"), "not a neighbour",
                 id="internal-pioneer-not-neighbour"),
    pytest.param(TRIGGERS, _field(1, _past_horizon), "outside",
                 id="trigger-after-horizon"),
    pytest.param(TRIGGERS, _field(1, "-1"), "time -1 outside",
                 id="trigger-negative-time"),
    pytest.param(ARRIVALS, _field(4, "999"), "outside",
                 id="rejecting-seq-out-of-range"),
    pytest.param(ARRIVALS, _field(4, "-1"), "outside",
                 id="rejecting-seq-negative"),
    pytest.param(ARRIVALS, _field(1, "77"), "outside",
                 id="arrival-from-out-of-range"),
    pytest.param(ARRIVALS, _field(2, "-1"), "outside",
                 id="arrival-to-out-of-range"),
    pytest.param(ARRIVALS, _field(3, "accepted"), "on an accepted arrival",
                 id="rejecting-seq-on-acceptance"),
    pytest.param(ARRIVALS, _field(4, _last_seq), "after the arrival",
                 id="rejecting-seq-later"),
    pytest.param(ARRIVALS, _field(4, _other_cells_trigger),
                 "not of the receiver", id="rejecting-seq-other-cell"),
    pytest.param(ARRIVALS, _field(0, lambda p, t: str(t.horizon)),
                 "arrivals not sorted", id="arrivals-unsorted"),
    pytest.param(ARRIVALS, _field(0, _past_horizon), "outside",
                 id="arrival-after-horizon"),
    pytest.param("#meta=", lambda line, trace: line.replace("{", "{{", 1),
                 "bad #meta JSON", id="meta-json"),
    pytest.param("#seed=", lambda line, trace: line + "}", "bad #seed JSON",
                 id="seed-json"),
    pytest.param("#meta=", _meta_without("graph", "n"), "lacks",
                 id="meta-no-n"),
    pytest.param("#meta=", _meta_without("graph", "edges"), "lacks",
                 id="meta-no-edges"),
    pytest.param("#meta=", _meta_without("params"), "lacks",
                 id="meta-no-params"),
    pytest.param("#meta=", _meta_without("horizon"), "lacks",
                 id="meta-no-horizon"),
    pytest.param("#meta=", _meta_edit("horizon", value="x"), "horizon",
                 id="meta-horizon-not-int"),
    pytest.param("#meta=", _meta_edit("warnings", value=5), "warnings",
                 id="meta-warnings-not-list"),
    pytest.param("#meta=", _meta_edit("warnings", value=[1]), "warnings",
                 id="meta-warnings-not-strings"),
    pytest.param("#meta=", _meta_edit("graph", "n", value=10**5),
                 "cannot connect", id="meta-n-beyond-edges"),
    pytest.param("#meta=", _meta_edit("graph", "name", value="grid:abc"),
                 "name", id="meta-name-unparsable"),
    pytest.param("#meta=", _meta_edit("graph", "name", value="grid:2x2"),
                 "name", id="meta-name-other-graph"),
    pytest.param("#meta=", _meta_edit("arrivals_recorded", value=False),
                 "not recorded", id="meta-arrivals-not-recorded"),
    pytest.param("#meta=", _meta_edit("params", "d_max", value=1e400),
                 "d_max must be int", id="meta-d-max-infinite"),
    pytest.param("#meta=", _meta_edit("params", "d_max", value=100.5),
                 "d_max must be int", id="meta-d-max-fraction"),
    pytest.param("#meta=", _meta_edit("params", "d_max", value=True),
                 "d_max must be int", id="meta-d-max-bool"),
    pytest.param("#meta=", _meta_edit("params", "tau0", value=501.5),
                 "tau0 must be int", id="meta-tau0-fraction"),
    pytest.param("#meta=", _meta_edit("params", "rho", value=False),
                 "rho must be float", id="meta-rho-bool"),
    pytest.param("#meta=", _meta_edit("params", "dmin_compensation", value=7),
                 "dmin_compensation must be bool",
                 id="meta-compensation-int"),
])
def test_bad_kind_rejected(tmp_path, small_trace, small_text, header, mutate,
                           match):
    """Each mutation breaks the trace contract in one header line, or in
    the first row of its section that has every field set (arrival rows
    may omit rejecting_seq) and again in a later row that repeats that
    row's tail, which the reader has seen before.  A data-row fault is
    reported on the mutated row; an order fault on the row after it.  A
    reader that keeps no arrivals still finds each fault."""
    path = tmp_path / "trace.csv"
    lines = small_text.splitlines()
    if header.startswith("#"):
        rows = [next(k for k, line in enumerate(lines)
                     if line.startswith(header))]
    else:
        first = lines.index(header) + 1
        while lines[first].endswith(","):
            first += 1
        # a trigger row's "cell,kind,pioneer", an arrival row's
        # "from,to,outcome"
        cut = slice(2, None) if header == TRIGGERS else slice(1, 4)
        tail = lines[first].split(",")[cut]
        rows = [first, next(k for k in range(first + 1, len(lines))
                            if lines[k].split(",")[cut] == tail)]
    for idx, keep in [(idx, keep) for idx in rows for keep in (True, False)]:
        mutated = list(lines)
        mutated[idx] = mutate(lines[idx], small_trace)
        path.write_text("\n".join(mutated) + "\n")
        with pytest.raises(TraceParseError, match=match) as exc:
            read_trace(path, keep_arrivals=keep)
        if not header.startswith("#"):
            assert exc.value.line == idx + 1 + ("not sorted" in match)


def test_six_field_trigger_row_with_bad_seq_is_malformed(tmp_path,
                                                         small_text):
    lines = small_text.splitlines()
    idx = lines.index(TRIGGERS) + 3
    lines[idx] = "x," + lines[idx - 2].partition(",")[2] + ",5"
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match="malformed trigger row") as exc:
        read_trace(path)
    assert exc.value.line == idx + 1


def test_ids_read_in_any_int_spelling(tmp_path, small_trace, small_text):
    """Cells spelled "+3" or "03" read as int() reads them, in triggers
    and arrivals alike, whether or not the canonical spelling came first."""
    respell = {"0": "+0", "1": "01", "2": "+02"}
    lines = small_text.splitlines()
    arrivals = lines.index("[arrivals]")
    for k in range(lines.index(TRIGGERS) + 1, len(lines), 2):
        if k not in (arrivals, arrivals + 1):
            parts = lines[k].split(",")
            for f in (2, 4) if k < arrivals else (1, 2):
                parts[f] = respell.get(parts[f], parts[f])
            lines[k] = ",".join(parts)
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    back = read_trace(path)
    assert back.triggers == small_trace.triggers
    assert back == small_trace


@pytest.mark.parametrize("enabled", [True, False])
def test_read_trace_restores_gc_state(tmp_path, small_trace, enabled):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_trace(small_trace, good)
    lines = good.read_text().splitlines()
    lines[len(lines) // 2] = "not,a,row"  # raised mid-file
    bad.write_text("\n".join(lines) + "\n")
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        read_trace(good)
        assert gc.isenabled() is enabled
        with pytest.raises(TraceParseError, match="malformed arrival row"):
            read_trace(bad)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize("key, value, detail", [
    ("tau0", 0, "#meta params invalid: need 0 < tau0 < tau2, got 0, "),
    ("tau1", 10**400,
     "#meta params invalid: tau1 is outside [-2**53, 2**53] ns"),
    ("tau2", None, "#meta lacks or mistypes 'tau2'"),
    ("horizon", 2**53 + 1, "#meta horizon 9007199254740993 is not a positive "
     "integer of at most 2**53 ns"),
])
def test_meta_errors_name_their_fault(tmp_path, small_trace, small_text, key,
                                      value, detail):
    lines = small_text.splitlines()
    idx = next(k for k, line in enumerate(lines) if line.startswith("#meta="))
    keys = (key,) if key == "horizon" else ("params", key)
    lines[idx] = _meta_edit(*keys, value=value,
                            delete=value is None)(lines[idx], small_trace)
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as exc:
        read_trace(path)
    assert str(exc.value).startswith(detail)


def test_blank_line_ends_the_trace(tmp_path, small_trace, small_text):
    path = tmp_path / "trace.csv"
    path.write_text(small_text + "\n\n")
    assert read_trace(path).arrivals == small_trace.arrivals
    lines = small_text.splitlines()
    path.write_text("\n".join(lines[:-1] + ["", lines[-1]]) + "\n")
    with pytest.raises(TraceParseError, match="after the blank line") as exc:
        read_trace(path)
    assert exc.value.line == len(lines) + 1


def test_non_utf8_rejected(tmp_path, small_text):
    path = tmp_path / "trace.csv"
    path.write_bytes(small_text.encode() + b"\xff\xfe\n")
    with pytest.raises(TraceParseError, match="UTF-8"):
        read_trace(path)
