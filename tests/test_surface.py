"""The public names of the package, and the functions the benchmark tracer
(perfbench/tracing.py) looks up by name, all resolve."""

from importlib import import_module, util
from pathlib import Path

import sternbrocot

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    assert [name for name in sternbrocot.__all__ if not hasattr(sternbrocot, name)] == []


def test_every_traced_function_exists():
    spec = util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}.{name}" for layer, names in tracing.LAYERS.items() for name in names
               if not callable(getattr(import_module(f"sternbrocot.{layer}"), name, None))]
    assert tracing.LAYERS and missing == []
