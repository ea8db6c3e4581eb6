"""The benchmark tracer finds every library name it wraps.

``perfbench/tracing.py`` replaces each traced callable through its owner's
namespace, so a renamed or deleted library name would only surface as a
KeyError in a traced benchmark run.
"""

import importlib.util
from pathlib import Path


def test_traced_names_exist():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        name for name, owner, attr in tracing.targets() if attr not in owner.__dict__
    ]
    assert missing == []
