"""The benchmark's tracer wraps dgme functions by (module, attribute) name.

``perfbench/tracer.py`` lists them in ``TRACED``; a layer function renamed
or inlined in ``src/`` would otherwise surface only in the benchmark's
own smoke test. Delete this guard when the tracer stops wrapping
functions by name.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    traced = _load_tracer().TRACED
    assert traced
    missing = []
    for path, attr, _layer, _clip_of in traced:
        module, _, cls = path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{path}.{attr}")
    assert missing == []
