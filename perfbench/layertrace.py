"""Per-layer tracing from outside the program.

`install()` wraps the public functions of each layer and rebinds every
name that refers to the original in every loaded `arquiver` module: the
layers import each other's functions by name (`from .linalg import
matmul`), so patching only the defining module would miss calls made from
the other layers.  Each call records a span (name, start, end, parent) in
compact arrays kept in memory; `Tracer.write` saves them when the round
ends.  Self time is a span's duration minus the time of the wrapped spans
it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from array import array

import numpy as np

# module -> function names; a name missing in a later version of the
# program is reported on stderr and its metrics read 0.
TARGETS = {
    "linalg": ["rref", "matmul"],
    "rep": [
        "hom_basis",
        "is_indecomposable",
        "decompose",
        "iso",
        "_charpoly_mod",
        "_factor_mod",
    ],
    "homological": ["min_presentation", "dtr_data", "ext1"],
    "stable": ["stable_hom"],
    "approx": ["canonical_precover", "contains", "right_minimal_reduce"],
    "arseq": ["verify_ar_sequence", "ar_end_in_subcat"],
    "knit": ["knit_cached", "enumerate_indec"],
}

# sympy's charpoly and factor_list, as `rep` calls them, form one layer.
ALIASES = {"rep._charpoly_mod": "rep.charpoly", "rep._factor_mod": "rep.charpoly"}

# rows x cols of the input to rref: < 256, < 4096, < 65536, >= 65536 entries
RREF_BUCKETS = ((256, "xs"), (4096, "s"), (65536, "m"))

CALLS = [
    "linalg.rref.xs",
    "linalg.rref.s",
    "linalg.rref.m",
    "linalg.rref.l",
    "linalg.matmul",
    "rep.hom_basis",
    "rep.is_indecomposable",
    "rep.decompose",
    "rep.iso",
    "rep.charpoly",
    "homological.min_presentation",
    "homological.dtr_data",
    "homological.ext1",
    "stable.stable_hom",
    "approx.canonical_precover",
    "approx.contains",
    "approx.right_minimal_reduce",
    "arseq.verify_ar_sequence",
]


def per_layer_names() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for base in CALLS:
        out.append((f"{base}.calls", "count", "lower"))
        out.append((f"{base}.self_s", "s", "lower"))
    out += [
        ("rep.EndAlgebra.builds", "count", "lower"),
        ("rep.EndAlgebra.self_s", "s", "lower"),
        ("arseq.sequences_found", "count", "higher"),
        ("arseq.verify_per_found", "ratio", "lower"),
        ("knit.knit_cached.calls", "count", "lower"),
        ("knit.enumerate_indec.calls", "count", "lower"),
        ("knit.enumerate_indec.self_s", "s", "lower"),
        ("trace.round_s", "s", "lower"),
    ]
    return out


def _rref_name(m) -> str:
    shape = np.shape(m)
    size = shape[0] * shape[1] if len(shape) == 2 else int(np.size(m))
    for limit, tag in RREF_BUCKETS:
        if size < limit:
            return f"linalg.rref.{tag}"
    return "linalg.rref.l"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.found = 0
        # one entry per open span: [span index, seconds spent in child spans]
        self._stack: list[list] = []

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name: str, fn, namer=None, on_result=None):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = namer(args[0]) if namer is not None else name
            idx = len(self.span_start)
            self.span_name.append(self._name_id(span))
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.calls[span] = self.calls.get(span, 0) + 1
                self.self_s[span] = self.self_s.get(span, 0.0) + dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_found(self, outcome) -> None:
        if getattr(outcome, "status", None) == "found":
            self.found += 1

    def install(self) -> None:
        import arquiver

        for info in pkgutil.iter_modules(arquiver.__path__):
            importlib.import_module(f"arquiver.{info.name}")
        loaded = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "arquiver" or key.startswith("arquiver.")
        ]
        for modname, fnames in TARGETS.items():
            mod = sys.modules.get(f"arquiver.{modname}")
            for fname in fnames:
                original = getattr(mod, fname, None) if mod is not None else None
                if original is None:
                    print(
                        f"perfbench: arquiver.{modname}.{fname} not found; "
                        "its metrics read 0",
                        file=sys.stderr,
                    )
                    continue
                key = f"{modname}.{fname}"
                span = ALIASES.get(key, key)
                namer = _rref_name if key == "linalg.rref" else None
                on_result = self._count_found if key == "arseq.ar_end_in_subcat" else None
                wrapper = self.wrap(span, original, namer, on_result)
                for other in loaded:
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)
        rep = sys.modules.get("arquiver.rep")
        end_cls = getattr(rep, "EndAlgebra", None)
        if end_cls is None:
            print("perfbench: arquiver.rep.EndAlgebra not found", file=sys.stderr)
        else:
            end_cls.__init__ = self.wrap("rep.EndAlgebra", end_cls.__init__)

    def layer_metrics(self) -> dict:
        """Totals of this process, under the names of per_layer_names()."""
        out = {}
        for base in CALLS:
            out[f"{base}.calls"] = self.calls.get(base, 0)
            out[f"{base}.self_s"] = self.self_s.get(base, 0.0)
        out["rep.EndAlgebra.builds"] = self.calls.get("rep.EndAlgebra", 0)
        out["rep.EndAlgebra.self_s"] = self.self_s.get("rep.EndAlgebra", 0.0)
        verify = self.calls.get("arseq.verify_ar_sequence", 0)
        out["arseq.sequences_found"] = self.found
        out["arseq.verify_per_found"] = verify / self.found if self.found else 0.0
        out["knit.knit_cached.calls"] = self.calls.get("knit.knit_cached", 0)
        out["knit.enumerate_indec.calls"] = self.calls.get("knit.enumerate_indec", 0)
        out["knit.enumerate_indec.self_s"] = self.self_s.get("knit.enumerate_indec", 0.0)
        return out

    def write(self, path: str) -> None:
        """Save every span: name index, parent span index, start and end (s)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
