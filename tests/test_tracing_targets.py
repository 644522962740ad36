"""The benchmark's layer tracing (perfbench/tracing.py) wraps pqprune
functions by module and attribute name; each must exist, or a traced
benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"pqprune.{module}.{attr}"
        for module, attr, *_ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"pqprune.{module}"), attr, None))
    ]
    assert tracing.TARGETS
    assert missing == []
