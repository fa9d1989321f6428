"""Run one op in a child forked from the set-up process.

The set-up process has imported ``mzeta`` and computed nothing, so every
child starts with cold module caches: what a command-line user pays on each
request.  The child sends its result back as JSON through a pipe; the parent
times the op from just before the fork to the reaping of the child, and
reads the child's peak resident memory from ``wait4``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import time
import traceback
from dataclasses import dataclass, field

import mpmath

TRACEBACK_EXIT = 70  # the child's exit code when the op raised


@dataclass
class OpResult:
    latency_s: float  # fork to reaping: what the caller waits for
    work_s: float  # fork to the end of the work, before the result is sent
    maxrss_mb: float
    data: dict = field(default_factory=dict)

    @property
    def traceback(self) -> str | None:
        return self.data.get("traceback")


def run_in_child(fn, *args) -> OpResult:
    """Call ``fn(*args)`` in a forked child; ``fn`` returns a JSON-able dict."""
    # objects of the set-up process stay out of the child's garbage
    # collections, which would otherwise copy every page they touch
    gc.freeze()
    rd, wr = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(rd)
        code = 0
        try:
            payload = fn(*args)
        except BaseException:
            payload = {"traceback": traceback.format_exc()}
            code = TRACEBACK_EXIT
        # perf_counter is system-wide monotonic, so the parent can use it
        payload.setdefault("work_end", time.perf_counter())
        try:
            blob = json.dumps(payload).encode()
            with os.fdopen(wr, "wb") as out:
                out.write(blob)
        finally:
            os._exit(code)
    os.close(wr)
    with os.fdopen(rd, "rb") as inp:
        blob = inp.read()
    _, status, usage = os.wait4(pid, 0)
    latency = time.perf_counter() - start
    data = json.loads(blob) if blob else {}
    if os.waitstatus_to_exitcode(status) not in (0, TRACEBACK_EXIT):
        data.setdefault("traceback", f"child ended with status {status}")
    work = data.pop("work_end", start + latency) - start
    return OpResult(latency, work, usage.ru_maxrss / 1024.0, data)


class _Capture:
    """Module proxy recording the unrounded result of one entry point, so the
    calibration table can compare it with a closed form; every other
    attribute is the module's own."""

    def __init__(self, module, name: str, sink: dict):
        self._module, self._name, self._sink = module, name, sink

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if attr != self._name:
            return value

        def captured(*args, **kwargs):
            result = value(*args, **kwargs)
            self._sink["result"] = result
            return result

        return captured


def _unrounded(result) -> str | None:
    if result is None:
        return None
    value = result.value if hasattr(result, "value") else result[0]
    return mpmath.nstr(value, 60)


def cli_op(argv: list[str], tracer=None) -> dict:
    """Child body: one ``mzeta.cli.main`` request with captured output."""
    from mzeta import cli

    sink: dict = {}
    cli.stieltjes = _Capture(cli.stieltjes, "stieltjes_constant", sink)
    cli.mzv = _Capture(cli.mzv, "zeta_value_with_error", sink)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.op():
                code = cli.main(argv)
    data = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-500:],
        "unrounded": _unrounded(sink.get("result")),
    }
    if tracer is not None:
        data["work_end"] = time.perf_counter()
        data["trace"] = tracer.summary()
    return data


def verify_pass(seed: int, families, subsets: dict, digits: int, tracer=None) -> dict:
    """Child body: one verify pass in harness order.  Each family of
    ``families`` is its own run_identity call; each family of ``subsets``
    runs only its listed (check function, arguments) instances, at the
    digits run_identity would give them."""
    from mzeta import harness

    def run_family(name: str) -> list:
        if name in families:
            return harness.run_identity(name, seed, digits)
        return [getattr(harness, fn)(*args, min(digits, 8)) for fn, args in subsets[name]]

    if tracer is not None:
        tracer.install()
    calls = []
    for name in harness.IDENTITY_NAMES:
        if name not in families and name not in subsets:
            continue
        start = time.perf_counter()
        if tracer is None:
            checks = run_family(name)
        else:
            with tracer.op():
                checks = run_family(name)
        calls.append({
            "family": name,
            "seconds": time.perf_counter() - start,
            "checks": [c.to_json_dict(digits) for c in checks],
        })
    data = {"calls": calls}
    if tracer is not None:
        data["work_end"] = time.perf_counter()
        data["trace"] = tracer.summary()
    return data
