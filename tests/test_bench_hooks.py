"""The benchmark's tracing hooks must name functions that exist.

perfbench/tracing.py wraps mepsim functions by name, and its counters and
perfbench/child.py read fields of their results; a rename or removal in
mepsim would otherwise only show up as a crash of a traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

from mepsim.analysis import detect_stabilization, required_horizon
from mepsim.engine import simulate
from mepsim.timing import DelayModel, derive_params
from mepsim.topology import parse_topology, topology_stats
from mepsim.trace import (OUTCOME_ACCEPTED, OUTCOME_OMITTED, OUTCOME_REJECTED,
                          read_trace, write_trace)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    tracing = _tracing()
    for name in tracing.TRACED:
        layer, attr = name.split(".")
        module = importlib.import_module(f"mepsim.{layer}")
        assert callable(getattr(module, attr, None)), name
    assert set(tracing.COUNTERS) <= set(tracing.TRACED)


def test_counters_read_real_results(tmp_path):
    """Each counter, given the arguments and result of a ring:4 run."""
    graph = parse_topology("ring:4")
    stats = topology_stats(graph)
    params = derive_params(stats, 100, 0.0)
    dm = DelayModel(kind="uniform")
    trace = simulate(graph, params, delay_model=dm, seed=0,
                     horizon=required_horizon(params, stats))
    path = str(tmp_path / "trace.csv")
    write_trace(trace, path)
    back = read_trace(path)
    report = detect_stabilization(back, stats)
    calls = {"engine.simulate": ((graph, params), trace),
             "trace.write_trace": ((trace, path), None),
             "trace.read_trace": ((path,), back),
             "analysis.detect_stabilization": ((back, stats), report)}
    counters = _tracing().COUNTERS
    assert set(calls) == set(counters)
    counts = {name: counters[name](*call) for name, call in calls.items()}

    arrivals = counts["engine.simulate"]["arrivals"]
    assert counts["engine.simulate"]["triggers"] == len(trace.triggers) > 0
    # perfbench/child.py counts the outcomes of the kept arrivals
    outcomes = {a.outcome for a in arrivals}
    assert OUTCOME_ACCEPTED in outcomes
    assert outcomes <= {OUTCOME_ACCEPTED, OUTCOME_REJECTED, OUTCOME_OMITTED}
    size = pathlib.Path(path).stat().st_size
    assert counts["trace.write_trace"]["bytes"] == size
    rows = len(trace.triggers) + len(arrivals)
    assert counts["trace.read_trace"]["rows"] == rows
    assert counts["analysis.detect_stabilization"]["rounds"] \
        == len(report.rounds) > 0
