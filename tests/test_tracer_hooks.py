"""The names of the package that perfbench/tracer.py reads for `--trace`, so
that a refactor which drops one fails here rather than in a traced run."""

import importlib
import importlib.util
import pathlib

from pglcensus.gfq import FqElem

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_cache_reports_cache_info():
    caches = load_tracer().CACHES
    assert caches
    for layer, name in caches:
        fn = getattr(importlib.import_module(f"pglcensus.{layer}"), name)
        assert callable(getattr(fn, "cache_info", None)), f"{layer}.{name} has no cache_info"


def test_element_construction_hook_exists():
    # the tracer counts elements by wrapping this method, which __init__ calls
    assert callable(vars(FqElem).get("__post_init__"))
