"""In-memory span tracer for the benchmark's traced passes.

A traced pass swaps selected public functions of the quiverflow modules for
wrappers that record a span (name, start, end, parent, task id) around each
call.  A function is replaced wherever a quiverflow module binds it as a
global, so calls between modules (``affine_project`` calling ``flow``,
``hessian_spectrum`` calling ``hessian_matrix``) are spanned too, while the
program's source stays untouched.  Functions called many times per flow step
(the ``rep`` kernels) are left unwrapped and timed by probes instead; their
cost shows up as self time of the caller.
"""
from __future__ import annotations

import json
import sys
import time

# (module, function) -> span name; the layer is the text before the first dot
TRACED = [
    ("quiverflow.flow", "flow", "flow.flow"),
    ("quiverflow.rep", "hessian_matrix", "rep.hessian_matrix"),
    ("quiverflow.critical", "classify_critical", "critical.classify_critical"),
    ("quiverflow.critical", "hessian_spectrum", "critical.hessian_spectrum"),
    ("quiverflow.critical", "negative_slice_basis", "critical.negative_slice_basis"),
    ("quiverflow.correspond", "affine_project", "correspond.affine_project"),
    ("quiverflow.correspond", "lagrangian_check", "correspond.lagrangian_check"),
    ("quiverflow.correspond", "hecke_check", "correspond.hecke_check"),
    ("quiverflow.correspond", "handsaw_hecke_check", "correspond.handsaw_hecke_check"),
    ("quiverflow.correspond", "hecke_to_flowline", "correspond.hecke_to_flowline"),
    ("quiverflow.correspond", "is_isomorphic", "correspond.is_isomorphic"),
    ("quiverflow.correspond", "intertwiner_space", "correspond.intertwiner_space"),
    ("quiverflow.oracles", "thin_hn_type", "oracles.thin_hn_type"),
]


def _flow_counts(result):
    return {"steps": int(result.steps), "nonconverged": int(result.status != "converged")}


# exact counters read off a call's return value, keyed by span name
COUNTERS = {
    "flow.flow": _flow_counts,
    "critical.negative_slice_basis": lambda r: {"dim": len(r[0])},
    "correspond.hecke_check": lambda r: {"members": int(r is not None)},
    "correspond.handsaw_hecke_check": lambda r: {"members": int(r is not None)},
    "correspond.is_isomorphic": lambda r: {"true": int(bool(r[0]))},
    "oracles.thin_hn_type": lambda r: {"stages": len(r)},
}


class Tracer:
    """Collects spans while installed; ``run_task`` opens a task's root span."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, task id, pass index)
        self.counts = []  # (name, pass index, {counter: value})
        self._stack = []
        self._saved = []
        self.task_id = None
        self.pass_index = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.task_id, self.pass_index])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if count is not None:
                self.counts.append((name, self.pass_index, count(out)))
            return out

        return wrapper

    def install(self):
        """Replace every quiverflow-module binding of each traced function."""
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "quiverflow" or n.startswith("quiverflow."))]
        for modname, attr, name in TRACED:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for m, key, orig in reversed(self._saved):
            setattr(m, key, orig)
        self._saved.clear()

    def run_task(self, task_id, pass_index, name, fn):
        """Run one task under a root span; returns what the task returns."""
        self.task_id, self.pass_index = task_id, pass_index
        self._open("task." + name)
        try:
            return fn()
        finally:
            self._close()
            self.task_id = None

    def span(self, name, start, end):
        """Record an externally timed span, such as a CLI subprocess, as a
        child of the open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.task_id, self.pass_index])

    def self_times(self):
        """Per span name: (calls, inclusive seconds, self seconds); self time is
        the span minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            calls, busy, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, busy + end - start, own + end - start - child[i])
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, task, pidx in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task,
                                     "pass": pidx}) + "\n")
