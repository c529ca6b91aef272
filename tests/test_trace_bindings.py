"""Every binding the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` times the library from outside by swapping the
module-level names listed in its ``WRAPS``; a name renamed or moved in
``src/`` would only show up as ``absent`` in a traced benchmark run.  This
loads that file by path and resolves each entry the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


WRAPS = load_wraps()


def test_wraps_is_not_empty():
    assert WRAPS


@pytest.mark.parametrize("module_name, attr",
                         sorted({(module_name, attr) for _, module_name, attr, _ in WRAPS}))
def test_wrapped_binding_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
