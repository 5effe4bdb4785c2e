"""Spans around cayleykit's layer functions, recorded from outside the package.

``Tracer.install`` replaces each traced function at every name a caller
looks it up by: the attribute of every ``cayleykit`` module bound to it (so
``cli.build_chain`` as well as ``groups.build_chain``), or the class
attribute for methods.  A span records name, start, end, parent span and
job id; spans stay in memory until ``write``.  The hottest primitives
(permutation products and inverses, flow-network construction) are counted
instead: calls and busy time, charged to the enclosing span as child time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# (module, attribute, span name, measure(args, result) -> numbers or None)
# The measure hook reads sizes and outcomes off the call; it never changes it.
SPANS = (
    ("groups", "build_chain", "groups.build_chain", None),
    ("groups", "generates", "groups.generates", None),
    ("groups", "orbits", "groups.orbits", None),
    ("groups", "enumerate_elements", "groups.enumerate_elements",
     lambda args, result: {"elements": len(result)}),
    ("gensets", "construct_cycle_tree", "gensets.construct", None),
    ("gensets", "construct_cycle_pair", "gensets.construct", None),
    ("gensets", "construct_basic_tree", "gensets.construct", None),
    ("gensets", "construct_general", "gensets.construct", None),
    ("gensets", "extend_tree", "gensets.construct", None),
    ("gensets", "general_plan", "gensets.construct", None),
    ("gensets", "predicates", "gensets.predicates", None),
    ("gensets", "find_balance_certificate", "gensets.balance", None),
    ("gensets", "GeneratorSet.to_text", "gensets.io", None),
    ("gensets", "GeneratorSet.from_text", "gensets.io", None),
    ("numth", "prime_one_mod", "numth.prime_one_mod", None),
    ("numth", "cyclotomic_eval", "numth.cyclotomic_eval", None),
    ("cayley", "build_cayley", "cayley.build_cayley",
     lambda args, result: {"vertices": result.vertex_count, "edges": len(result.edges)}),
    ("cayley", "CayleyGraph.to_simple_graph", "cayley.to_simple_graph", None),
    ("cayley", "is_normal", "cayley.is_normal", None),
    ("automorphisms", "graph_aut_order", "automorphisms.graph_aut_order",
     lambda args, result: {"generators": len(result[1])}),
    ("automorphisms", "aut_snt", "automorphisms.aut_snt", None),
    ("automorphisms", "verify_order_identity", "automorphisms.verify_order_identity", None),
    ("spectral", "spectrum_topk", "spectral.spectrum_topk",
     lambda args, result: {"method": result.method}),
    ("spectral", "jacobi_eigensystem", "spectral.jacobi_eigensystem", None),
    ("graphs", "import_edge_list", "graphs.import_edge_list",
     lambda args, result: {"bytes": len(args[0])}),
    ("graphs", "export_edge_list", "graphs.export_edge_list",
     lambda args, result: {"bytes": len(result)}),
    ("graphs", "connected_components", "graphs.connected_components", None),
    ("quasiham", "QuasiHamiltonian.qh1", "quasiham.qh1", None),
    ("quasiham", "hamiltonian_via_qh", "quasiham.hamiltonian_via_qh", None),
    ("quasiham", "qh_report", "quasiham.qh_report", None),
    ("quasiham", "brute_hamiltonian", "quasiham.brute_hamiltonian", None),
)
COUNTED = (
    ("perms", "Permutation.__mul__", "perms.mul"),
    ("perms", "Permutation.inverse", "perms.inverse"),
    ("quasiham", "FlowNetwork.__init__", "quasiham.flow_networks"),
)
JOB = "cli.job"


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, job id, child seconds, measured, failed]
        self.spans: list = []
        self.counted = defaultdict(lambda: [0, 0.0])
        self.job: Optional[str] = None
        self._stack: list = []
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, measure) -> Callable:
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0.0, None, False]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[7] = True
                raise
            finally:
                record[2] = end = perf()
                stack.pop()
                if record[3] >= 0:
                    spans[record[3]][5] += end - record[1]
            if measure is not None:
                record[6] = measure(args, result)
            return result

        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        tally, spans, stack, perf = self.counted[name], self.spans, self._stack, time.perf_counter

        def counted(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                tally[0] += 1
                tally[1] += elapsed
                if stack:
                    spans[stack[-1]][5] += elapsed

        return counted

    def job_span(self, job_id: str, fn: Callable):
        """Run ``fn()`` as the root span of one job."""
        self.job = job_id
        try:
            return self._span(JOB, fn, None)()
        finally:
            self.job = None

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, measure in SPANS:
            self._patch(module, attr, lambda fn, name=name, measure=measure: self._span(name, fn, measure))
        for module, attr, name in COUNTED:
            self._patch(module, attr, lambda fn, name=name: self._count(name, fn))

    def _patch(self, module: str, attr: str, wrap: Callable) -> None:
        owner = sys.modules[f"cayleykit.{module}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(wrap(raw.__func__)))
            else:
                setattr(cls, attr, wrap(raw))
            self._patches.append((cls, attr, raw))
            return
        original = getattr(owner, attr)
        wrapper = wrap(original)
        for name, mod in list(sys.modules.items()):
            if name == "cayleykit" or name.startswith("cayleykit."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON list per span: name, start, end, parent, job, self seconds."""
        with open(path, "w") as handle:
            for name, start, end, parent, job, child, _, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent, job, end - start - child]) + "\n")

    def totals(self) -> dict:
        """Per name: calls, busy (outermost spans only), self time, failures, measures."""
        out = defaultdict(lambda: defaultdict(float))
        spans = self.spans
        for record in spans:
            name, start, end, parent, _, child, measured, failed = record
            if name == "spectral.spectrum_topk" and measured:
                name = f"{name}.{measured['method']}"
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child
            row["failed"] += failed
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != record[0]:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                row["busy_s"] += end - start
            for key, value in (measured or {}).items():
                if key != "method":
                    row[key] += value
        for name, (calls, busy) in self.counted.items():
            out[name]["calls"] += calls
            out[name]["busy_s"] += busy
        return out
