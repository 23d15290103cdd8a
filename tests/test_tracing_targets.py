"""The names that the benchmark's tracer rebinds resolve in the package.

``perfbench/tracing.py`` names each traced function "module:qualified.name".
A rename in gordian would otherwise break only a traced benchmark run.  The
file is loaded by path and only its ``TARGETS`` table is read; no function
is rebound.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = load_targets()
    assert len(targets) > 20
    for layer, names in targets.items():
        for name in names:
            module_name, qualname = name.split(":")
            assert module_name.split(".")[0] == "gordian", name
            obj = importlib.import_module(module_name)
            for part in qualname.split("."):
                assert hasattr(obj, part), f"{layer}: {name} does not resolve"
                obj = getattr(obj, part)
            assert callable(obj), name
