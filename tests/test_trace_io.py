import pytest

from mepsim import DelayModel, derive_params, simulate
from mepsim.errors import TraceParseError
from mepsim.topology import build_ring, topology_stats
from mepsim.trace import read_trace, trace_to_text, write_trace


@pytest.fixture(scope="module")
def small_trace():
    g = build_ring(4)
    stats = topology_stats(g)
    params = derive_params(stats, 100, 0.0)
    dm = DelayModel(kind="uniform", d_min=0, d_max=100)
    return simulate(g, params, delay_model=dm, horizon=20000, seed=11)


def test_roundtrip(tmp_path, small_trace):
    path = tmp_path / "trace.csv"
    write_trace(small_trace, path)
    back = read_trace(path)
    assert back.triggers == small_trace.triggers
    assert back.arrivals == small_trace.arrivals
    assert back.params == small_trace.params
    assert back.graph.edges == small_trace.graph.edges
    assert back.graph.name == small_trace.graph.name
    assert back.seed == small_trace.seed
    assert back.horizon == small_trace.horizon
    # serialization is a fixed point
    assert trace_to_text(back) == trace_to_text(small_trace)


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


def test_truncated_file_reports_line(tmp_path, small_trace):
    path = tmp_path / "trace.csv"
    text = trace_to_text(small_trace).splitlines()
    cut = text[: text.index("[arrivals]")]
    path.write_text("\n".join(cut) + "\n")
    with pytest.raises(TraceParseError):
        read_trace(path)


def test_malformed_row_reports_line(tmp_path, small_trace):
    path = tmp_path / "trace.csv"
    lines = trace_to_text(small_trace).splitlines()
    lines[5] = "not,a,row"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as exc:
        read_trace(path)
    assert exc.value.line == 6


TRIGGERS = "seq,time_ns,cell,kind,pioneer"
ARRIVALS = "time_ns,from,to,outcome,rejecting_seq"


@pytest.mark.parametrize("header, field, value", [
    pytest.param(TRIGGERS, 3, "sideways", id="kind"),
    pytest.param(TRIGGERS, 0, "1", id="seq-not-index"),
    pytest.param(TRIGGERS, 2, "4", id="cell-out-of-range"),
    pytest.param(TRIGGERS, 4, "77", id="pioneer-out-of-range"),
    pytest.param(TRIGGERS, 1, "999999999", id="unsorted"),
    pytest.param(ARRIVALS, 4, "999", id="rejecting-seq-out-of-range"),
])
def test_bad_kind_rejected(tmp_path, small_trace, header, field, value):
    """Each mutation breaks the trace contract in the first row of its
    section that has the field set (arrival rows may omit rejecting_seq)."""
    path = tmp_path / "trace.csv"
    lines = trace_to_text(small_trace).splitlines()
    idx = lines.index(header) + 1
    while lines[idx].endswith(","):
        idx += 1
    parts = lines[idx].split(",")
    parts[field] = value
    lines[idx] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError):
        read_trace(path)
