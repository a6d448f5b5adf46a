"""The benchmark tracer wraps library names by ``vars(owner)[name]``.

It is loaded here by path, unchanged, so that deleting or moving a name it
wraps (for example into a base class) fails this test instead of making a
traced benchmark run raise ``KeyError``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_defined_where_the_tracer_looks():
    tracer = _load_tracer()
    missing = []
    for layer, owners in tracer.WRAPPED.items():
        module = importlib.import_module("qshuffle." + tracer.LAYERS[layer])
        for owner_name, attrs in owners.items():
            owner = module if owner_name is None else getattr(module, owner_name)
            for attr in attrs:
                if attr not in vars(owner):
                    missing.append(f"{tracer.LAYERS[layer]}.{owner_name or ''}.{attr}")
    assert not missing, missing
