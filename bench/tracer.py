"""Span tracer installed around ethlab's public functions from outside.

Nothing in ``src/`` is changed: :meth:`Tracer.install` replaces each public
function of the ``ethlab`` modules with a timing wrapper, both in the module
that defines it and in every ``ethlab`` namespace (module globals and
module-level dispatch dicts) that holds a reference to it, so calls made
through ``from .x import f`` bindings are traced too.

A span is (id, parent, name, start, end, pid) on the system-wide monotonic
clock, plus counts computed from array sizes and the number of OS threads
the process had when the span ended (BLAS pool threads stay alive between
calls, so this catches a process that runs more threads than it was given).
Spans of one measured run share the run id. Sweep workers are forked and
inherit the wrappers; a worker writes its spans to ``spans-<pid>.jsonl`` in
the trace directory each time its outermost span closes, because forked
pool workers exit without running ``atexit`` handlers.
"""

import functools
import inspect
import json
import os
import time

MODULES = ("spectral", "models", "synth", "extract", "aqec", "dynamics", "io",
           "pipeline", "config", "cli")

# Called once per CSV cell; a span per call would dominate io.write_csv.
SKIP = {"io.format_number"}


def is_layer(name):
    """False for spans that only drive the layers: the CLI, config loading
    and the stage runner and sweep around the stages."""
    return (not name.startswith(("cli.", "config."))
            and name not in ("pipeline.run", "pipeline.sweep"))


def _dim(a):
    m = getattr(a, "matrix", a)
    return int(m.shape[0])


def _array_bytes(arr):
    import numpy as np
    arr = np.asarray(arr)
    itemsize = 16 if np.iscomplexobj(arr) else 8
    return 24 + arr.size * itemsize


def _to_eigenbasis_gflop(a):
    op, spectrum = a["op"], a["spectrum"]
    if spectrum.basis is None:
        return 0.0
    import numpy as np
    d = spectrum.dim
    complex_ = np.iscomplexobj(op) or np.iscomplexobj(spectrum.basis)
    return (16.0 if complex_ else 4.0) * d**3 / 1e9


# Counts derived from argument and result sizes, never measured: they repeat
# exactly for the same inputs. Each maps the bound arguments (and the
# result) of one call to {count name: value}.
COUNTS = {
    "dynamics.spectral_densities": lambda a, r: {
        "kernel_evals": (_dim(a["a"]) * (_dim(a["a"]) - 1) + 1) * len(a["omegas"])},
    "dynamics.otoc": lambda a, r: {
        "gflop": 8.0 * _dim(a["a"]) ** 3 * len(a["times"]) / 1e9},
    "models.to_eigenbasis": lambda a, r: {"gflop": _to_eigenbasis_gflop(a)},
    "extract.envelope_estimate": lambda a, r: {
        "pairs": _dim(a["a"]) * (_dim(a["a"]) - 1)},
    "spectral.eigendecompose": lambda a, r: {"dim": _dim(a["h"])},
    "spectral.OperatorEigenbasis.is_hermitian": lambda a, r: {"n": 1},
    "io.write_array": lambda a, r: {"bytes": _array_bytes(a["arr"])},
    "io.read_array": lambda a, r: {"bytes": _array_bytes(r)},
    "io.file_sha256": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


class Tracer:
    """In-memory span recorder for one measured run."""

    def __init__(self, run_id, trace_dir):
        self.run_id = run_id
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.base_depth = 0
        self.worker = False
        self._serial = 0

    def _after_fork(self):
        # Finished spans belong to the parent; open ones are our ancestors.
        self.pid = os.getpid()
        self.spans = []
        self.base_depth = len(self.stack)
        self.worker = True

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._after_fork()
            self._serial += 1
            span_id = f"{self.pid}:{self._serial}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            result = counts = None
            ok = False
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.monotonic()
                self.stack.pop()
                if count and ok:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = count(bound.arguments, result)
                self.spans.append({"id": span_id, "parent": parent, "name": name,
                                   "start": start, "end": end, "pid": self.pid,
                                   "run": self.run_id, "counts": counts or {},
                                   "threads": len(os.listdir("/proc/self/task"))})
                if self.worker and len(self.stack) == self.base_depth:
                    self.flush()

        return traced

    def flush(self):
        """Append this process's finished spans to its file in the trace dir."""
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def install(self):
        """Wrap every public ethlab function and OperatorEigenbasis.is_hermitian."""
        import importlib
        import ethlab
        mods = {m: importlib.import_module(f"ethlab.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, val in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrapped[val] = self.wrap(name, val)
        pipeline = mods["pipeline"]
        for stage in pipeline.STAGES:
            fn = getattr(pipeline, "stage_" + stage.replace("-", "_"))
            wrapped[fn] = self.wrap(f"pipeline.stage.{stage}", fn)
        for mod in [ethlab, *mods.values()]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrapped:
                            val[key] = wrapped[item]
        cls = mods["spectral"].OperatorEigenbasis
        cls.is_hermitian = self.wrap("spectral.OperatorEigenbasis.is_hermitian",
                                     cls.is_hermitian)

    def collect(self):
        """All spans of the run: this process's and every worker's files."""
        spans = list(self.spans)
        for fname in sorted(os.listdir(self.trace_dir)):
            if fname.startswith("spans-") and fname.endswith(".jsonl"):
                with open(os.path.join(self.trace_dir, fname)) as fh:
                    spans.extend(json.loads(line) for line in fh if line.strip())
        return spans


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals.

    Children of one parent can overlap (sweep points in parallel workers),
    so the covered part is the union of their intervals, clipped to the
    parent's own interval.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    return {s["id"]: (s["end"] - s["start"]) - union_s(
                {"start": max(c["start"], s["start"]), "end": min(c["end"], s["end"])}
                for c in children.get(s["id"], ()))
            for s in spans}


def union_s(spans):
    """Length of the union of the spans' intervals, in seconds."""
    total, cursor = 0.0, float("-inf")
    for lo, hi in sorted((s["start"], s["end"]) for s in spans):
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
