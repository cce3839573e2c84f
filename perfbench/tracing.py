"""Outside-in tracing of effectus: spans and counters recorded by wrapping
the public functions of each layer at run time, from the benchmark's own
files.  Nothing under ``src/`` is edited; ``Tracer.uninstall`` puts every
original binding back.

A span is (name, start, end, parent, trace).  One trace id is opened per
law report (a ``harness.run_law`` or ``harness.run_exhaustive_adjunction``
call that is not nested in another report); spans outside any report
carry trace 0.  Self time is a span's duration minus the part of it that
its children cover, with overlapping children counted once.  Hot leaf
calls (``core.atom_key``, ``harness._arrow_key``) get counters, not spans.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

INSTANCE_OPS = ("compose", "subst", "quotient", "comprehension",
                "transpose_quotient", "transpose_comprehension",
                "iter_arrows", "arrow_to_json")
# Instances reported op by op; vn gets its own row below.
EXACT_AND_LINEAR = ("sets", "nondet", "dist", "fp", "hilb", "ring")
VN_OPS = ("quotient", "comprehension", "transpose_quotient",
          "transpose_comprehension", "compose", "cp_check", "superop_from_fn")
# vn operations whose eigendecompositions per call are reported.
VN_RATIO_PARENTS = ("quotient", "transpose_quotient", "cp_check")
LINALG_OPS = ("op_sqrt", "op_pinv", "support_proj", "unit_proj",
              "gram_schmidt_columns")
CORE_OPS = ("derive_assert", "derive_instrument", "side_effect", "hom_check")
# Matrix-size bins for the eigensolver: blocks of 1-2 and 3, Choi matrices
# of 2x2 and 2x3 blocks (4-6) and of 3x3 blocks (7-12).  No workload builds
# a larger matrix; one would count toward calls and self time only.
EIG_BINS = (("n1-2", 1, 2), ("n3", 3, 3), ("n4-6", 4, 6), ("n7-12", 7, 12))
# The solver stops once the off-diagonal norm is below 1e-12 of the
# matrix norm; a residual 100x above that did not converge.
EIG_RESIDUAL_TOL = 1e-10


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval.  Spans
    are listed in the order they start, as the tracer records them."""
    covered = [0.0] * len(starts)
    cursor = list(starts)  # end of the union of each span's children so far
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo, hi = max(starts[i], cursor[p]), min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            cursor[p] = hi
    return [end - start - c for start, end, c in zip(starts, ends, covered)]


def union_length(intervals, lo_clip=float("-inf"), hi_clip=float("inf")):
    """Length of the union of (start, end) intervals within [lo_clip, hi_clip]."""
    total = 0.0
    cursor = lo_clip
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, hi_clip)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, in report order."""
    names = ["vnlinalg.hermitian_eig.calls", "vnlinalg.hermitian_eig.self_s"]
    names += [f"vnlinalg.hermitian_eig.{label}.us_per_call"
              for label, _, _ in EIG_BINS]
    names += [f"vnlinalg.{op}.self_s" for op in LINALG_OPS]
    names.append("vnlinalg.hermitian_eig.unconverged")
    names += [f"vn.{op}.self_s" for op in VN_OPS]
    for op in VN_RATIO_PARENTS:
        names += [f"vn.{op}.calls", f"vn.eig_per_{op}"]
    for inst in EXACT_AND_LINEAR:
        names += [f"{inst}.{op}.self_s" for op in INSTANCE_OPS]
        names += [f"{inst}.compose.calls", f"{inst}.quotient.calls"]
    names += [f"core.{op}.self_s" for op in CORE_OPS]
    names.append("core.atom_key.calls")
    names += ["harness.run_law.self_s", "harness.arrow_key.calls",
              "harness.quotients_per_adjunction_case",
              "harness.exhaustive.triples", "harness.exhaustive.candidates",
              "harness.exhaustive.skipped_over_cap",
              "harness.exhaustive.hom_hit_ratio",
              "cli.check.self_s",
              "trace.overhead_s", "trace.uncovered_share"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(("_ratio", "_share")) or "_per_" in name:
        return "ratio"
    return "count"


class Tracer:
    """Records spans and counters while installed over the effectus
    modules.  Time is read from a clock that stands still while the
    tracer checks eigensolver results, so the check is not charged to
    any span."""

    def __init__(self):
        # Span columns, one entry per span in the order spans open; arrays
        # keep millions of spans compact and out of the garbage collector.
        self.name_ids = {}
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.traces = array("L")
        self.stack = []
        self.trace = 0
        self.trace_meta = {}
        self.counts = Counter()
        self.cells = {}
        self.eig_sizes = {}
        self.paused = 0.0
        self._restore = []

    def now(self) -> float:
        return perf_counter() - self.paused

    # ---- recording ---------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.names)
        self.names.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.traces.append(self.trace)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter() - self.paused)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter() - self.paused
        self.stack.pop()

    def _id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def span(self, name: str, fn):
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return traced

    def counter(self, name: str, fn):
        # A list cell is the cheapest counter to bump from a closure; these
        # wrappers run ten million times in an exhaustive sweep.
        cell = self.cells.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)
        return counted

    def iterator_span(self, name: str, fn):
        """Each step of the returned iterator is one span, so the time
        spent producing items is charged here and the consumer's work
        between steps is not."""
        nid = self._id(name)

        def steps(it):
            while True:
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        def traced(*args, **kwargs):
            return steps(iter(fn(*args, **kwargs)))
        return traced

    def report_root(self, name: str, fn, describe):
        """Span that opens a new trace id unless a report is already open.
        `describe(args, report)` gives the trace's metadata."""
        traced = self.span(name, fn)

        def rooted(*args, **kwargs):
            if self.trace:
                return traced(*args, **kwargs)
            self.trace = trace = len(self.trace_meta) + 1
            self.trace_meta[trace] = describe(args, None)
            try:
                result = traced(*args, **kwargs)
            finally:
                self.trace = 0
            self.trace_meta[trace] = describe(args, result)
            return result
        return rooted

    def eig_span(self, fn):
        counts = self.counts

        nid = self._id("vnlinalg.hermitian_eig")

        def traced(a, *args, **kwargs):
            idx = self._open(nid)
            try:
                w, U = fn(a, *args, **kwargs)
            finally:
                self._close(idx)
            pause = perf_counter()
            # The solver accepts `a` within a tolerance of Hermitian and
            # diagonalises its Hermitian part, so that is what U and w solve.
            A = np.asarray(a, dtype=complex)
            A = (A + A.conj().T) / 2
            self.eig_sizes[idx] = A.shape[0]
            if A.size:
                scale = max(1.0, float(np.sqrt((abs(A) ** 2).sum())))
                residual = float(abs(A @ U - U * w).max())
                if not residual <= EIG_RESIDUAL_TOL * scale:
                    counts["vnlinalg.hermitian_eig.unconverged"] += 1
            self.paused += perf_counter() - pause
            return w, U
        return traced

    def hom_check_span(self, fn):
        traced = self.span("core.hom_check", fn)
        counts = self.counts

        def checked(*args, **kwargs):
            ok = traced(*args, **kwargs)
            if self.trace and self.trace_meta[self.trace]["kind"] == "exhaustive":
                counts["hom_checks"] += 1
                counts["hom_checks_passed"] += bool(ok)
            return ok
        return checked

    # ---- installation -------------------------------------------------

    def _patch_function(self, module_name: str, attr: str, wrapped_of):
        """Replace a module-level function in every effectus module that
        binds it (``from .core import hom_check`` makes a second binding)."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = wrapped_of(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "effectus" and not mod_name.startswith("effectus."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))

    def install(self) -> None:
        import effectus.cli  # noqa: F401  (binds cli.main and friends)
        from effectus.registry import INSTANCES

        patch = self._patch_function
        for op in LINALG_OPS:
            patch("effectus.vnlinalg", op,
                  lambda f, n=f"vnlinalg.{op}": self.span(n, f))
        patch("effectus.vnlinalg", "hermitian_eig", self.eig_span)
        patch("effectus.vn", "superop_from_fn",
              lambda f: self.span("vn.superop_from_fn", f))
        for op in CORE_OPS[:-1]:
            patch("effectus.core", op, lambda f, n=f"core.{op}": self.span(n, f))
        patch("effectus.core", "hom_check", self.hom_check_span)
        patch("effectus.core", "atom_key",
              lambda f: self.counter("core.atom_key.calls", f))
        patch("effectus.harness", "_arrow_key",
              lambda f: self.counter("harness.arrow_key.calls", f))
        patch("effectus.harness", "run_suite",
              lambda f: self.span("harness.run_suite", f))
        patch("effectus.harness", "run_law",
              lambda f: self.report_root("harness.run_law", f, _describe_run_law))
        patch("effectus.harness", "run_exhaustive_adjunction",
              lambda f: self.report_root("harness.run_exhaustive_adjunction",
                                         f, _describe_exhaustive))
        patch("effectus.cli", "main", lambda f: self.span("cli.check", f))
        for name, inst in INSTANCES.items():
            for op in INSTANCE_OPS + (("cp_check",) if name == "vn" else ()):
                wrap = self.iterator_span if op == "iter_arrows" else self.span
                # An instance attribute shadows the class method, so calls
                # the instance makes through `self.op` are traced as well.
                inst.__dict__[op] = wrap(f"{name}.{op}", getattr(inst, op))
                self._restore.append((inst, op, None))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if original is None:
                del target.__dict__[key]
            else:
                setattr(target, key, original)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- metrics --------------------------------------------------------

    def covered(self, lo: float, hi: float) -> float:
        """Time in [lo, hi] that some top-level span covers."""
        roots = [(s, e) for s, e, p in zip(self.starts, self.ends, self.parents)
                 if p < 0]
        return union_length(roots, lo, hi)

    def layer_metrics(self, census: dict) -> dict:
        """Per-layer metrics from the recorded spans and counters, plus the
        exhaustive-sweep census counted outside the program."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        ids = self.name_ids
        own_by_id, calls_by_id = [0.0] * len(ids), [0] * len(ids)
        for nid, t in zip(names, self_times(starts, ends, parents)):
            own_by_id[nid] += t
            calls_by_id[nid] += 1
        self_s = defaultdict(float, {n: own_by_id[i] for n, i in ids.items()})
        calls = Counter({n: calls_by_id[i] for n, i in ids.items()})
        out = {}

        eig = "vnlinalg.hermitian_eig"
        out[f"{eig}.calls"] = calls[eig]
        out[f"{eig}.self_s"] = self_s[eig]
        bin_time, bin_calls = Counter(), Counter()
        for idx, n in self.eig_sizes.items():
            label = next((lb for lb, lo, hi in EIG_BINS if lo <= n <= hi), None)
            bin_time[label] += ends[idx] - starts[idx]
            bin_calls[label] += 1
        for label, _, _ in EIG_BINS:
            out[f"{eig}.{label}.us_per_call"] = (
                1e6 * bin_time[label] / bin_calls[label] if bin_calls[label] else 0.0)
        for op in LINALG_OPS:
            out[f"vnlinalg.{op}.self_s"] = self_s[f"vnlinalg.{op}"]
        out[f"{eig}.unconverged"] = self.counts[f"{eig}.unconverged"]

        for op in VN_OPS:
            out[f"vn.{op}.self_s"] = self_s[f"vn.{op}"]
        # Eigendecompositions below each watched vn operation, per call of
        # that operation not nested in another call of it.
        outer, eig_under = Counter(), Counter()
        eig_id = ids.get(eig)
        watched = {ids[f"vn.{op}"] for op in VN_RATIO_PARENTS if f"vn.{op}" in ids}
        for idx, nid in enumerate(names):
            if nid != eig_id and nid not in watched:
                continue
            above = set()
            p = parents[idx]
            while p >= 0:
                above.add(names[p])
                p = parents[p]
            if nid == eig_id:
                eig_under.update(above & watched)
            elif nid not in above:
                outer[nid] += 1
        for op in VN_RATIO_PARENTS:
            key = ids.get(f"vn.{op}")
            out[f"vn.{op}.calls"] = outer[key]
            out[f"vn.eig_per_{op}"] = eig_under[key] / outer[key] if outer[key] else 0.0

        for inst in EXACT_AND_LINEAR:
            for op in INSTANCE_OPS:
                out[f"{inst}.{op}.self_s"] = self_s[f"{inst}.{op}"]
            out[f"{inst}.compose.calls"] = calls[f"{inst}.compose"]
            out[f"{inst}.quotient.calls"] = calls[f"{inst}.quotient"]

        for op in CORE_OPS:
            out[f"core.{op}.self_s"] = self_s[f"core.{op}"]
        out["core.atom_key.calls"] = self.cells["core.atom_key.calls"][0]

        out["harness.run_law.self_s"] = self_s["harness.run_law"]
        out["harness.arrow_key.calls"] = self.cells["harness.arrow_key.calls"][0]
        # The construction each seeded adjunction case rebuilds: the
        # quotient for the quotient law, the comprehension for the other.
        adjunction = {}
        for trace, meta in self.trace_meta.items():
            if meta["kind"] == "seeded" and meta["law"].endswith("-adjunction"):
                construction = f"{meta['instance']}.{meta['law'].split('-')[0]}"
                adjunction[trace] = ids.get(construction)
        rebuilt = sum(1 for nid, trace in zip(names, self.traces)
                      if adjunction.get(trace, -1) == nid)
        cases = sum(self.trace_meta[t]["cases"] for t in adjunction)
        out["harness.quotients_per_adjunction_case"] = rebuilt / cases if cases else 0.0
        for key in ("triples", "candidates", "skipped_over_cap"):
            out[f"harness.exhaustive.{key}"] = census[key]
        made = self.counts["hom_checks"]
        out["harness.exhaustive.hom_hit_ratio"] = (
            self.counts["hom_checks_passed"] / made if made else 0.0)
        out["cli.check.self_s"] = self_s["cli.check"]
        return out


def _describe_run_law(args, report):
    inst, spec = args[0], args[1]
    exhaustive = bool(spec.bounds.get("exhaustive")) and spec.law.endswith("-adjunction")
    return {"instance": inst.name, "law": spec.law,
            "kind": "exhaustive" if exhaustive else "seeded",
            "cases": report.cases if report is not None else 0}


def _describe_exhaustive(args, report):
    inst, which = args[0], args[1]
    return {"instance": inst.name, "law": f"{which}-adjunction",
            "kind": "exhaustive",
            "cases": report.cases if report is not None else 0}
