"""Span tracer that times cqekit's public functions from outside the package.

Each traced function is replaced, in *every* cqekit module namespace that
binds it by name (and in module-level dicts such as ``cli.CURVES`` that hold
it), by a wrapper that records a span: name, start, end and parent.  Calls
that go through another module's imported name therefore cannot escape the
trace.  A function's self time is its span's duration minus the part that
its child spans cover; spans nest strictly because the benchmark is
single-threaded, so that part is the sum of the children's durations.

Counters and self times are aggregated for every call.  The spans themselves
are kept in memory, up to MAX_SPANS, and written out by ``dump``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# Layer name -> functions traced in that layer.  "qlinalg.eigvalsh" is the
# numpy eigensolve kernel that the qlinalg layer drives; "marginal_mat" is a
# method of qlinalg.PureStateVector.
TRACED = {
    "qlinalg": ("eigvalsh", "marginal_mat", "trace_norm", "matrix_sqrt_psd"),
    "channels": ("apply_isometry",),
    "entropics": (
        "channel_output_ensemble",
        "mutual_AX_B",
        "holevo_X_B",
        "coherent_A_given_BX",
        "cond_mutual_A_B_given_X",
        "cond_mutual_A_E_given_X",
        "cond_entropy_A_given_X",
        "verify_identities",
    ),
    "regions": ("region_from_state", "corner_points", "derive_children",
                "union_membership", "contains"),
    "bounds": ("dpi_check", "check_af", "check_mi", "check_fannes",
               "gentle_measurement_check", "random_density"),
    "closedform": ("ds_curve", "cef_curve", "shor_ce_curve", "cef_vs_timeshare",
                   "erasure_cef_vs_timeshare", "g"),
    "cli": ("main", "fmt"),
}

# Functions whose true results are counted, for a useful-work ratio.
PREDICATES = {"regions.contains"}
MAX_SPANS = 100_000  # spans kept for the trace file; counters see every call


class Tracer:
    """Traces while used as a context manager; not reentrant."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.accepted: Counter = Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: list = []

    def _wrap(self, name: str, fn):
        calls, self_s, accepted = self.calls, self.self_s, self.accepted
        spans, stack = self.spans, self._stack
        predicate = name in PREDICATES

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, name, start, end))
                else:
                    self.dropped += 1
            if predicate and result:
                accepted[name] += 1
            return result

        return traced

    def _rebind(self, old, new) -> None:
        """Point every cqekit name (and dict entry) bound to `old` at `new`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cqekit" or mod_name.startswith("cqekit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self._set(setattr, mod, attr, old, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is old:
                            self._set(dict.__setitem__, value, key, old, new)
                        elif isinstance(item, tuple) and any(x is old for x in item):
                            swapped = tuple(new if x is old else x for x in item)
                            self._set(dict.__setitem__, value, key, item, swapped)

    def _set(self, setter, target, key, old, new) -> None:
        setter(target, key, new)
        self._undo.append((setter, target, key, old))

    def __enter__(self) -> "Tracer":
        import cqekit.cli  # noqa: F401  -- every module that binds a traced name
        from cqekit.qlinalg import PureStateVector

        for layer, names in TRACED.items():
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                if name == "qlinalg.eigvalsh":
                    old = np.linalg.eigvalsh
                    self._set(setattr, np.linalg, "eigvalsh", old, self._wrap(name, old))
                elif name == "qlinalg.marginal_mat":
                    old = PureStateVector.marginal_mat
                    self._set(setattr, PureStateVector, "marginal_mat", old,
                              self._wrap(name, old))
                else:
                    old = getattr(sys.modules[f"cqekit.{layer}"], fn_name)
                    self._rebind(old, self._wrap(name, old))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            setter, target, key, old = self._undo.pop()
            setter(target, key, old)

    def dump(self, path, header: dict) -> None:
        """Write the kept spans as JSON: [id, parent id (-1 = root), name, start, end]."""
        doc = dict(header, dropped_spans=self.dropped, spans=self.spans)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
