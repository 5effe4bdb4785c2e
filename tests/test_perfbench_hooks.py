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


def test_traced_mini_pass_records_every_measure(monkeypatch, tmp_path, capsys):
    """One tiny CLI job per subcommand under the tracer: no span fails and
    every measure hook reads its key off the call it wraps."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    from cayleykit.cli import main
    from cayleykit.graphs import cycle_graph, export_edge_list

    gens, graph, cycle = tmp_path / "path4.gens", tmp_path / "path4.el", tmp_path / "c5.el"
    cycle.write_text(export_edge_list(cycle_graph(5)))
    jobs = [
        ["construct", "--type", "2", "--n", "4", "--out", str(gens)],
        ["verify", str(gens)],
        ["prime", "--m", "5"],
        ["cayley", "--set", str(gens), "--out", str(graph)],
        ["aut", "--set", str(gens)],
        ["aut", "--graph", str(graph)],
        ["spectrum", "--graph", str(graph)],
        ["qh", "--graph", str(cycle), "--check-hamiltonian"],
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        codes = [tracer.job_span(argv[0], lambda argv=argv: main(argv)) for argv in jobs]
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert codes == [0] * len(jobs)
    assert not [span[0] for span in tracer.spans if span[7]]
    measured = {key for span in tracer.spans for key in span[6] or ()}
    assert measured >= {"elements", "vertices", "edges", "generators", "method", "bytes"}
