"""Spans and counters around bipotkit's layers, installed from outside.

The tracer replaces public functions and methods with wrappers, in the
defining module and under every name another module imported with
``from .x import y``. It changes no library file. Three kinds of wrapper:

* span: a recorded interval (id, name, start, end, parent span id), kept in
  memory and written out by :meth:`Tracer.write`;
* timed: the same accounting without a stored record, for functions called
  once per table entry or probe;
* counted: a call count only, for functions called millions of times.

A frame's self time is its duration minus the time its timed or spanned
children took; counted calls stay inside their caller's self time.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("bipotkit", "bipotkit.numerics", "bipotkit.kernels", "bipotkit.convex",
           "bipotkit.laws", "bipotkit.covers", "bipotkit.bipotentials",
           "bipotkit.formats", "bipotkit.demos", "bipotkit.cli")
BIC = "bipotentials.bic_check"


def _kernel_ops(name):
    """Operation counts computed from argument shapes (not measured)."""
    if name == "pairing_matrix":
        return lambda a: 2 * a[0].shape[0] * a[1].shape[0] * a[0].shape[1]
    if name == "conjugate_bruteforce":
        return lambda a: 2 * a[0].size
    if name == "conjugate_merge":
        return lambda a: a[0].size + a[2].size
    if name == "bellman_ford":
        return lambda a: 2 * a[0].shape[0] ** 3
    return lambda a: 2 * (a[0].shape[0] - 1) * a[0].shape[0] ** 2


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []          # frames [span id or None, child seconds, name]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.next_id = 0
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def timed(self, name, fn, record=True, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
            sid = None
            if record:
                tracer.next_id += 1
                sid = tracer.next_id
            frame = [sid, 0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
                tracer.counts[name + ".calls"] += 1
                if record:
                    tracer.spans.append((sid, name, t0, t1, parent))
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def counted(self, name, fn, before=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(counts, args)
            return fn(*args, **kwargs)

        return wrapper

    def in_bic(self):
        return any(f[2] == BIC for f in self.stack)

    # -- patching ----------------------------------------------------------

    def _patch_function(self, original, wrapper, modules=MODULES):
        for modname in modules:
            mod = sys.modules[modname]
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        from bipotkit import bipotentials, cli, convex, covers, demos, formats, kernels
        from bipotkit import laws, numerics

        fn = self._patch_function
        fn(numerics.as_vector, self.counted("numerics.as_vector.calls", numerics.as_vector))
        fn(numerics.inner, self.counted("numerics.inner.calls", numerics.inner))

        for k in ("pairing_matrix", "bellman_ford", "longest_path", "conjugate_merge",
                  "conjugate_bruteforce"):
            ops = _kernel_ops(k)

            def count_ops(counts, args, result, k=k, ops=ops):
                counts[f"kernels.{k}.ops"] += int(ops(args))

            fn(getattr(kernels, k), self.timed(f"kernels.{k}", getattr(kernels, k), after=count_ops))

        fn(covers.coverage_check, self.timed("covers.coverage_check", covers.coverage_check))
        self._patch_method(covers.Cover, "grid_infimum",
                           self.timed("covers.grid_infimum", covers.Cover.grid_infimum, record=False))

        def sweep(counts, args):
            counts["covers.f_many.lams"] += len(args[1])
            if self.in_bic():
                counts["bic.sweeps"] += 1

        for fam in (covers.QuadraticFamily, covers.NormFamily, covers.SeparableFamily,
                    covers.TabulatedFamily):
            self._patch_method(fam, "f_many",
                               self.counted("covers.f_many.calls", fam.f_many, sweep))
        fn(covers.p1_candidate, self.counted("covers.p1_candidate.calls", covers.p1_candidate))

        def bic_done(counts, args, rep):
            counts["bic.tuples"] += rep.tuples_checked
            counts["bic.counterexamples"] += len(rep.counterexamples)

        fn(bipotentials.bic_check, self.timed(BIC, bipotentials.bic_check, after=bic_done))

        def table_done(counts, args, out):
            counts["table.entries"] += out.size
            counts["table.evals"] += 1

        self._patch_method(bipotentials.Bipotential, "table",
                           self.timed("bipotentials.table", bipotentials.Bipotential.table,
                                      after=table_done))
        for cls in (bipotentials.CauchyProduct, bipotentials.SeparableBipotential,
                    bipotentials.InfOfCoverBipotential, bipotentials.BInfinityBipotential):
            self._patch_method(cls, "value", self.counted("bipotentials.value.calls", cls.value))

        def axioms_done(counts, args, rep):
            counts["axioms.counterexamples"] += len(rep.counterexamples)

        fn(bipotentials.verify_axioms, self.timed("bipotentials.verify_axioms",
                                                  bipotentials.verify_axioms, after=axioms_done))
        fn(bipotentials.graph_of_bipotential,
           self.timed("bipotentials.graph_of_bipotential", bipotentials.graph_of_bipotential))

        for name in ("bb_check", "weight_matrix", "cyclic_monotonicity_check",
                     "rockafellar_reconstruct"):
            fn(getattr(laws, name), self.timed(f"laws.{name}", getattr(laws, name)))
        self._patch_method(laws.LawGraph, "contains",
                           self.timed("laws.contains", laws.LawGraph.contains, record=False))

        def conj_done(counts, args, result):
            counts["conjugate.points"] += len(getattr(result, "grid", ()))

        fn(convex.conjugate, self.timed("convex.conjugate", convex.conjugate, after=conj_done))

        def rows_done(counts, args, lines):
            counts["probe_rows.rows"] += len(lines)
            counts["table.evals"] += 1

        fn(formats.probe_rows, self.timed("formats.probe_rows", formats.probe_rows,
                                          after=rows_done))
        for name in ("save_law", "save_cover", "load_law", "load_cover"):
            fn(getattr(formats, name), self.timed("formats.io", getattr(formats, name)))
        # only the callers' names: the converter recurses through its own global
        fn(formats.to_jsonable, self.timed("formats.to_jsonable", formats.to_jsonable),
           modules=("bipotkit.cli", "bipotkit.demos"))

        def reference(counts, args):
            if args[0] is not None:
                counts["table.evals"] += 1

        fn(demos._reference_line, self.counted("demos.reference_line.calls",
                                               demos._reference_line, reference))
        fn(demos.run_demo, self.timed("demos.run_demo", demos.run_demo))
        fn(cli.main, self.timed("cli.main", cli.main))

    def uninstall(self):
        for obj, attr, val in reversed(self._patches):
            setattr(obj, attr, val)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")

    def metrics(self, passes, jobs_with_tables):
        """Per-layer metrics, per traced pass."""
        c, tot, own = self.counts, self.total, self.self_time

        def per(v):
            return v / passes

        m = {
            "numerics.as_vector.calls": (per(c["numerics.as_vector.calls"]), "count"),
            "numerics.inner.calls": (per(c["numerics.inner.calls"]), "count"),
        }
        for k in ("pairing_matrix", "bellman_ford", "longest_path", "conjugate_merge",
                  "conjugate_bruteforce"):
            m[f"kernels.{k}.calls"] = (per(c[f"kernels.{k}.calls"]), "count")
            m[f"kernels.{k}.s"] = (per(tot[f"kernels.{k}"]), "s")
            m[f"kernels.{k}.ops"] = (per(c[f"kernels.{k}.ops"]), "ops")
        tuples = c["bic.tuples"]
        m.update({
            "covers.coverage_check.s": (per(tot["covers.coverage_check"]), "s"),
            "covers.grid_infimum.calls": (per(c["covers.grid_infimum.calls"]), "count"),
            "covers.grid_infimum.s": (per(tot["covers.grid_infimum"]), "s"),
            "covers.f_many.calls": (per(c["covers.f_many.calls"]), "count"),
            "covers.f_many.lams": (per(c["covers.f_many.lams"]), "count"),
            "covers.p1_candidate.calls": (per(c["covers.p1_candidate.calls"]), "count"),
            "bipotentials.bic_check.s": (per(tot[BIC]), "s"),
            "bipotentials.bic_check.tuples": (per(tuples), "count"),
            "bipotentials.bic_check.us_per_tuple": (tot[BIC] / tuples * 1e6 if tuples else 0.0, "us"),
            "bipotentials.bic_check.counterexamples": (per(c["bic.counterexamples"]), "count"),
            "bipotentials.bic_check.sweep_ratio": (c["bic.sweeps"] / tuples if tuples else 0.0, "ratio"),
            "bipotentials.table.s": (per(tot["bipotentials.table"]), "s"),
            "bipotentials.table.entries": (per(c["table.entries"]), "count"),
            "bipotentials.value.calls": (per(c["bipotentials.value.calls"]), "count"),
            "bipotentials.table.evals_per_job": (
                c["table.evals"] / jobs_with_tables if jobs_with_tables else 0.0, "evals/job"),
            "bipotentials.verify_axioms.s": (per(tot["bipotentials.verify_axioms"]), "s"),
            "bipotentials.verify_axioms.self_s": (per(own["bipotentials.verify_axioms"]), "s"),
            "bipotentials.verify_axioms.counterexamples": (per(c["axioms.counterexamples"]), "count"),
            "bipotentials.graph_of_bipotential.s": (per(tot["bipotentials.graph_of_bipotential"]), "s"),
            "laws.bb_check.s": (per(tot["laws.bb_check"]), "s"),
            "laws.contains.calls": (per(c["laws.contains.calls"]), "count"),
            "laws.contains.s": (per(tot["laws.contains"]), "s"),
            "laws.weight_matrix.s": (per(tot["laws.weight_matrix"]), "s"),
            "laws.cyclic_monotonicity_check.s": (per(tot["laws.cyclic_monotonicity_check"]), "s"),
            "laws.rockafellar_reconstruct.s": (per(tot["laws.rockafellar_reconstruct"]), "s"),
            "convex.conjugate.s": (per(tot["convex.conjugate"]), "s"),
            "convex.conjugate.points": (per(c["conjugate.points"]), "count"),
            "formats.probe_rows.s": (per(tot["formats.probe_rows"]), "s"),
            "formats.probe_rows.rows": (per(c["probe_rows.rows"]), "count"),
            "formats.io.s": (per(tot["formats.io"]), "s"),
            "formats.to_jsonable.s": (per(tot["formats.to_jsonable"]), "s"),
            "cli.main.s": (per(tot["cli.main"]), "s"),
            "cli.main.self_s": (per(own["cli.main"]), "s"),
            "demos.run_demo.s": (per(tot["demos.run_demo"]), "s"),
            "demos.run_demo.self_s": (per(own["demos.run_demo"]), "s"),
        })
        return m
