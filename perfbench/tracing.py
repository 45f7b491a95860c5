"""Span tracing around the calls into polyens' layers, from outside the package.

The tracer replaces each listed public function with a wrapper that records
a span (name, start, end, parent span, op id) and keeps per-name call counts
and self time (span duration minus the time covered by its child spans).
Nothing inside ``src/polyens`` changes: the wrappers are patched in wherever
the name is looked up, i.e. every ``polyens.*`` module attribute bound to
the function, and the class attribute for methods.
"""

import functools
import sys
import time
from array import array

import numpy as np

# module.Class.method or module.function, relative to the polyens package
LAYER_FUNCTIONS = (
    "measure.ReferenceMeasure.sample_categorical",
    "sampler.ConditionalState.density_all",
    "sampler.ConditionalState.push",
    "sampler.ConditionalState.refactor",
    "sampler.sample",
    "rng.stream",
    "ensemble.PolynomialEnsemble.from_table",
    "ensemble.PolynomialEnsemble.kernel_matrix",
    "ensemble.PolynomialEnsemble.tilt_nonorthogonal",
    "config.build_ensemble",
    "recurrence.table_from_measure",
    "recurrence.mean_moment",
    "recurrence.path_sum_moment",
    "variance.variance_power",
    "variance.covariance_power",
    "charpoly.zeros",
    "charpoly.moment_gap",
    "asymptotics.limit_report",
    "variance.cumulants",
)


class Tracer:
    """In-memory span recorder. Install, run, uninstall, then read."""

    def __init__(self):
        self.names = list(LAYER_FUNCTIONS)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.op = -1  # op id stamped on new spans; -1 is set-up
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack = []  # [span index, time covered by children]
        self._undo = []

    def _wrap(self, nid, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                tracer.calls[nid] += 1
                tracer.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def install(self, package):
        """Patch every listed function of the imported package."""
        modules = [m for k, m in sys.modules.items() if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for nid, name in enumerate(self.names):
            parts = name.split(".")
            owner = sys.modules[f"{package.__name__}.{parts[0]}"]
            if len(parts) == 3:
                cls = getattr(owner, parts[1])
                raw = cls.__dict__[parts[2]]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(nid, raw.__func__))
                else:
                    new = self._wrap(nid, raw)
                setattr(cls, parts[2], new)
                self._undo.append((cls, parts[2], raw))
                continue
            fn = getattr(owner, parts[1])
            new = self._wrap(nid, fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, new)
                        self._undo.append((mod, attr, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self, wall_s):
        """calls, self_s and share (self time over the traced wall time)
        for every listed function."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[nid], "count")
            out[f"{name}.self_s"] = (self.self_s[nid], "s")
            out[f"{name}.share"] = (self.self_s[nid] / wall_s, "ratio")
        return out

    def write(self, path):
        """Write every span as one compressed .npz of parallel arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
        )
