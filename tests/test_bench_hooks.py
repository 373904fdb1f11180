"""The benchmark's tracing hooks must name functions that exist.

perfbench/tracing.py wraps mepsim functions by name; a rename or removal
in mepsim would otherwise only show up as a crash of a traced benchmark
run.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.TRACED:
        layer, attr = name.split(".")
        module = importlib.import_module(f"mepsim.{layer}")
        assert callable(getattr(module, attr, None)), name
    assert set(tracing.COUNTERS) <= set(tracing.TRACED)
