"""Per-layer tracing from outside the program.

``Tracer.install`` replaces, at run time, every public function of the
mzeta modules and every method of ``ScaleSeries`` with a wrapper that records
a span (name, start, end, parent span, op id) in memory.  The wrapper is
installed under every module attribute that held the original, so calls
through ``from .x import f`` bindings are traced too.  Nothing is installed
unless a traced run asks for it; untraced runs execute the program as is.

A span's self time is its duration minus the time its child spans cover.
Work counts come from call arguments; ``repeat`` counts calls whose
arguments were already seen in the same process (an outside estimate of the
cache hit rate, not the real one).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "harness", "stieltjes", "mzv", "partial_sums", "scale", "stuffle", "exact")

# calls whose argument repeats are counted, keyed by the arguments named
REPEAT_KEYS = {
    "partial_sums.sum_basis": ("term", "precision"),
    "stieltjes.asymptotic_expansion": ("point", "order", "precision", "star"),
    "stieltjes.reg_series": ("center", "degree", "digits", "star"),
    "stieltjes.resolve_atom": ("name", "digits"),
    "mzv.zeta_value_with_error": ("s", "digits", "variant"),
    "stuffle.b_rational": ("I", "i", "j", "nvars"),
    # one resolved constant per distinct (point, order, star): the rest of
    # the calls are the N-doubling loop
    "stieltjes.truncated_log_sum": ("point", "order", "star"),
}


def _terms_nested(args) -> int:
    seq, n_top = args.get("point", args.get("s")), args["n_top"]
    return max(0, n_top - 1) * len(seq)


WORK = {
    "stieltjes.truncated_log_sum": _terms_nested,
    "mzv.zeta_truncated": _terms_nested,
    "partial_sums.basis_partial_sum": lambda args: max(0, args["n_top"] - 1),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, op, work, raised)
        self.stack: list[int] = []
        self.op_id = -1
        self.seen: dict[str, set] = defaultdict(set)
        self.repeats: dict[str, int] = defaultdict(int)

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        sig = inspect.signature(fn) if (name in REPEAT_KEYS or name in WORK) else None
        repeat_keys = REPEAT_KEYS.get(name)
        work_fn = WORK.get(name)
        seen, repeats = self.seen[name], self.repeats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            work = 0
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                named = bound.arguments
                if repeat_keys is not None:
                    key = repr(tuple(named.get(k) for k in repeat_keys))
                    if key in seen:
                        repeats[name] += 1
                    else:
                        seen.add(key)
                if work_fn is not None:
                    work = work_fn(named)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id, work, raised)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every public function and ScaleSeries method; once per process."""
        modules = {layer: importlib.import_module(f"mzeta.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        series = modules["scale"].ScaleSeries
        scale_file = inspect.getsourcefile(modules["scale"])
        for attr, raw in list(vars(series).items()):
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if not inspect.isfunction(fn) or attr == "__init__":
                continue
            if fn.__code__.co_filename != scale_file:
                continue  # dataclass-generated methods
            w = self._wrap(f"scale.ScaleSeries.{attr}", fn)
            setattr(series, attr, staticmethod(w) if static else w)
        # rebind every module-level name that held an original
        package = importlib.import_module("mzeta")
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])

    @contextlib.contextmanager
    def op(self):
        """Mark the spans recorded inside as one op."""
        self.op_id += 1
        yield

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals (calls, self seconds, work, raised, repeats), the
        seconds covered by root spans, and the raw spans."""
        spans = self.spans  # complete: summary runs outside every span
        child = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        per_name: dict[str, list] = {}
        root_s = 0.0
        for idx, (name, start, end, parent, _op, work, raised) in enumerate(spans):
            row = per_name.setdefault(name, [0, 0.0, 0, 0])
            row[0] += 1
            row[1] += (end - start) - child[idx]
            row[2] += work
            row[3] += raised is not None
            if parent < 0:
                root_s += end - start
        return {
            "names": {
                name: {"calls": c, "self_s": s, "work": w, "raised": r,
                       "repeats": self.repeats.get(name, 0)}
                for name, (c, s, w, r) in per_name.items()
            },
            "root_s": root_s,
            "spans": len(spans),
            "raw": spans,
        }
