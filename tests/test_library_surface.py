"""The documented library surface: the README's "Library in one minute"
block runs as written in a fresh interpreter, and the names it imports are
exactly pglcensus.__all__."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pglcensus

ROOT = pathlib.Path(__file__).resolve().parents[1]


def readme_example() -> str:
    """The python block under the README's "Library in one minute" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library in one minute", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Library in one minute'"
    return match.group(1)


def imported_names(code: str) -> list[str]:
    return [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "pglcensus"
        for alias in node.names
    ]


def test_readme_example_runs_as_documented():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", readme_example()],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["7 grows_with_field", "[1, 3, 7, 15]"]


def test_all_is_the_readme_surface():
    names = imported_names(readme_example())
    assert len(names) == 5
    assert sorted(pglcensus.__all__) == sorted(names)
    for name in pglcensus.__all__:
        value = getattr(pglcensus, name)
        assert getattr(sys.modules[value.__module__], name) is value
