"""The names that code outside the package reaches: the README's library
example and the functions the benchmark's tracer wraps."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.partition("## Library example")[2]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), "README.md", "exec"), {})
    assert float(out.getvalue()) == pytest.approx(1.0, abs=1e-3)


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    originals = {name: getattr(module, attr)
                 for name, (module, attr) in tracing.SPANNED_FUNCTIONS.items()}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(module, attr) is not originals[name]
                   for name, (module, attr) in tracing.SPANNED_FUNCTIONS.items())
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is originals[name]
               for name, (module, attr) in tracing.SPANNED_FUNCTIONS.items())
