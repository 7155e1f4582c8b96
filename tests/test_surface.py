"""The package's public names, and the benchmark tracer's targets, resolve.

The tracer (`perfbench/tracer.py`) wraps library functions by module and
attribute name, so deleting or renaming one would otherwise fail only
when the benchmark runs traced.  Importing it installs nothing.
"""

import importlib
from pathlib import Path

import boxcolour

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_public_name_is_exported():
    missing = [name for name in boxcolour.__all__ if not hasattr(boxcolour, name)]
    assert missing == []


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.spans == []
    for module_name, attr, _ in tracer.TARGETS:
        module = importlib.import_module(f"boxcolour.{module_name}")
        if "." in attr:
            # install() reads methods from the class's own namespace
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)
