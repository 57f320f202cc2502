"""The benchmark harness still finds every alsift name it wraps or imports."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, monkeypatch):
    """Import ``perfbench/<name>.py`` by path, as a module of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_span_sites_and_workload_imports_resolve(monkeypatch):
    # importing the workloads resolves every alsift name they import;
    # installing the spans resolves and wraps every site, then restores it
    _load("workloads", monkeypatch)
    spans = _load("spans", monkeypatch)
    with spans.installed(spans.Recorder()):
        pass
