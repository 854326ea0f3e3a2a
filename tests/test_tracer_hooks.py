"""The names of the package that perfbench/tracer.py reads for `--trace`, so
that a refactor which drops one fails here rather than in a traced run."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys
import textwrap

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


# in a fresh interpreter: the tracer reads every layer from sys.modules
# right after importing the CLI, before any command has run, and its
# wrappers then count the calls of a command
INSTALL = textwrap.dedent(
    """
    import io, sys
    import pglcensus.cli
    sys.path.insert(0, sys.argv[1])
    from tracer import LAYERS, Tracer
    print(all(f"pglcensus.{layer}" in sys.modules for layer in LAYERS))
    tracer = Tracer()
    tracer.install()
    pglcensus.cli.main("census --field 5^1 --group cyclic:4 --locus 0,inf".split(), out=io.StringIO())
    calls = tracer.report()["calls"]
    print(sorted({key.split(".")[0] for key in calls}), calls["census.enum_actions"])
    """
)


def test_tracer_finds_every_layer_after_the_cli_import():
    env = dict(os.environ, PYTHONPATH=str(TRACER.parents[1] / "src"))
    run = subprocess.run(
        [sys.executable, "-c", INSTALL, str(TRACER.parent)], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["True", "['census', 'cli', 'gfq', 'moebius', 'stdgroups'] 1"]
