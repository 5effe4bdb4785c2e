"""The benchmark's tracer patches cayleykit functions by name; a refactor that
renames or removes one of them must fail here, not inside a benchmark run."""

import importlib
from pathlib import Path

import cayleykit.cli  # noqa: F401  (the tracer patches the modules already loaded)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module, attr):
    """The object a tracing target names now; raises if it is gone."""
    owner = importlib.import_module(f"cayleykit.{module}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_tracer_targets_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = [(module, attr) for module, attr, _, _ in tracing.SPANS]
    targets += [(module, attr) for module, attr, _ in tracing.COUNTED]
    assert ("quasiham", "FlowNetwork.__init__") in targets
    assert ("quasiham", "QuasiHamiltonian.qh1") in targets
    originals = {target: _resolve(*target) for target in targets}

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for target, original in originals.items():
            assert _resolve(*target) is not original, target
    finally:
        tracer.uninstall()

    for target, original in originals.items():
        assert _resolve(*target) is original, target
