"""Exact census of finite group actions on the projective line and on
elliptic curves over finite fields.

The package approximates statements over an algebraically closed field of
characteristic p by computing over explicit finite levels F_{p^n}: a claim
that infinitely many objects exist becomes the claim that their exact count
grows without bound as n grows.  All arithmetic is exact; all searches are
exhaustive; all reports are deterministic.

Each layer module is compiled and run on first use: importing the package
puts all six in sys.modules and binds them as attributes, and a module runs
when one of its attributes is first read.  So a process pays only for the
layers it calls.  The package runs in one thread, so the thread-safety
limits of importlib.util.LazyLoader before Python 3.12 do not apply.  Code
that only one command reaches lives in that command's module (dichotomy,
conjugacy, p1checks), which the package neither binds nor looks up: the
command imports it, and the library name verify_main_theorem imports
dichotomy when it is first read.
"""


def _bind_lazily(names):
    import importlib.util
    import sys

    for name in names:
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        globals()[name] = module
        spec.loader.exec_module(module)


_bind_lazily(("closure", "gfq", "moebius", "stdgroups", "census", "elliptic"))

# the library surface, served from its layer on first read (PEP 562)
_HOMES = {
    "field_make": "gfq",
    "pp1_infinity": "moebius",
    "CensusQuery": "census",
    "enum_actions": "census",
    "verify_main_theorem": "dichotomy",
}

__all__ = ["field_make", "pp1_infinity", "CensusQuery", "enum_actions", "verify_main_theorem"]

__version__ = "0.1.0"


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{home}"), name)
