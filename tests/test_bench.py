"""The benchmark's trace points name functions that exist."""
import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_trace_points_are_callable():
    # a traced bench run wraps each point with getattr, so a renamed or
    # deleted layer function would break it
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    points = workloads.trace_points()
    assert points
    for module, attr, *_ in points:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
