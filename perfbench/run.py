"""mzeta benchmark: one client, closed loop, ops timed from outside.

    python3 perfbench/run.py --workload constants --seed 1 --seconds 35 --trace 0

Workloads (see README.md for why each was chosen):

- ``constants``: seeded stream of ``mzeta stieltjes`` / ``mzeta expand``
- ``values``: seeded stream of ``mzeta zeta``, about 5% refused inputs
- ``verify``: one pass over the identity families of ``workloads.py``

Each request op runs ``mzeta.cli.main`` in a child forked from a set-up
process that has imported mzeta and computed nothing; a verify pass runs in
one such child.  Outputs are checked against ``references.json`` after the
timed window.  With ``--trace 0`` the last line holds the end-to-end
metrics; with ``--trace 1`` every op runs untraced and then traced, and the
last line holds the per-layer metrics of the traced runs.  Run from the root
of a checkout; exits 1 when ``src/mzeta`` is not there, 2 when
``MZETA_MAX_N`` is set (it changes the summation schedule and every timing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import ops
import refs
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

HARD_LIMIT_S = 150  # stop starting ops here whatever --seconds says
SETUP_PROBES = 7
VERIFY_SEED = 42

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _import_program():
    """Import the command-line module and, through it, every layer."""
    sys.path.insert(0, str(SRC))
    import mzeta.cli

    if Path(mzeta.__file__).resolve().parent != SRC / "mzeta":
        raise ImportError(f"mzeta imported from {mzeta.__file__}, not from {SRC}")
    return mzeta


def setup(workload: str, seed: int):
    """What each run pays before its first op: import and input generation."""
    _import_program()
    if workload == "verify":
        return [{"family": f} for f in workloads.VERIFY_FAMILIES]
    pool = refs.load_pool()[workload]
    return workloads.stream(workload, seed, pool)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that run ``setup`` and exit."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, cwd=ROOT,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile: n - ceil(0.9 n) samples lie beyond it."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def samples_beyond_p90(n: int) -> int:
    return n - math.ceil(0.9 * n)


def environment() -> dict:
    import mpmath

    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "MZETA_MAX_N": os.environ.get("MZETA_MAX_N"),
    }


# -- request workloads -------------------------------------------------------


def run_requests(stream: list[dict], seconds: float, traced: bool, min_ops: int):
    """Closed loop over the stream for ``seconds`` and at least ``min_ops`` ops.

    Returns [(op, untraced result, traced result or None, seconds since the
    start)] and the wall time.
    """
    done = []
    start = time.perf_counter()
    for op in stream:
        now = time.perf_counter()
        if now - start >= HARD_LIMIT_S:
            break
        if now - start >= seconds and len(done) >= min_ops:
            break
        plain = ops.run_in_child(ops.cli_op, op["argv"])
        traced_res = ops.run_in_child(ops.cli_op, op["argv"], spans.Tracer()) if traced else None
        done.append((op, plain, traced_res, time.perf_counter() - start))
    return done, time.perf_counter() - start


def request_result(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    stream = setup(workload, seed)
    setup_s = measure_setup(workload, seed)
    # one deal of the pool: the same ops for every seed, and at least 16
    # samples beyond the p90
    deal = workloads.deal_ops(workload)
    done, wall = run_requests(stream, seconds, trace, deal)
    if len(done) < deal:
        raise RuntimeError(f"only {len(done)} of {deal} ops done by {HARD_LIMIT_S} s")
    failures = []
    calib = []
    results = [(op, r) for op, plain, traced_res, _ in done for r in (plain, traced_res) if r is not None]
    for op, res in results:
        why = refs.check(op, res.data)
        if why:
            failures.append({"argv": op["argv"], "returned": why})
        ratio = refs.calibration(op, res.data)
        if ratio is not None:
            calib.append((op["cls"], ratio))
    latencies = [plain.latency_s for _, plain, _, _ in done]
    n = len(done)
    report = {
        "workload": workload,
        "seed": seed,
        "ops": n,
        "samples_beyond_p90": samples_beyond_p90(n),
        "refused_ops": sum(1 for op, *_ in done if op["code"] != 0),
        "failures": failures,
        "fail_ratio": len(failures) / len(results),
        "digest": refs.digest(
            refs.digest_record(op, plain.data) for op, plain, _, _ in done[: refs.DIGEST_OPS]
        ),
        "digest_ops": min(n, refs.DIGEST_OPS),
        "est_error_calibration_log10": refs.calibration_table(calib),
    }
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": n / wall,
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": p90(latencies),
            # wall time until the pool's first deal completed
            "pass_s": done[deal - 1][3],
            "peak_rss_mb": p90([plain.maxrss_mb for _, plain, _, _ in done]),
        }
    else:
        traced = [(plain, t) for _, plain, t, _ in done]
        metrics = layers.per_layer(traced)
        layers.write_spans(traced, workload, seed)
    return {"attempted": len(results), "failed": len(failures), "metrics": metrics}, report


# -- verify workload -------------------------------------------------------


def verify_result(seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    setup("verify", seed)
    setup_s = measure_setup("verify", seed)
    passes = []
    start = time.perf_counter()
    while True:
        args = (VERIFY_SEED, workloads.VERIFY_FAMILIES, workloads.VERIFY_SUBSETS, workloads.VERIFY_DIGITS)
        plain = ops.run_in_child(ops.verify_pass, *args)
        traced_res = ops.run_in_child(ops.verify_pass, *args, spans.Tracer()) if trace else None
        passes.append((plain, traced_res))
        elapsed = time.perf_counter() - start
        if elapsed + plain.latency_s > seconds or elapsed > HARD_LIMIT_S:
            break
    attempted = failed = 0
    failures = []
    for res in (r for pair in passes for r in pair if r is not None):
        if res.traceback:
            attempted += 1
            failed += 1
            failures.append({"pass": "traceback", "returned": res.traceback.strip().splitlines()[-1]})
            continue
        for call in res.data["calls"]:
            bad = [c for c in call["checks"] if not c["passed"]]
            attempted += len(call["checks"])
            failed += len(bad)
            failures.extend({"family": call["family"], "check": c} for c in bad)
    first = passes[0][0]
    report = {
        "workload": "verify",
        "seed": seed,
        "harness_seed": VERIFY_SEED,
        "families": list(workloads.VERIFY_FAMILIES),
        "family_subsets": {name: len(checks) for name, checks in workloads.VERIFY_SUBSETS.items()},
        "passes": len(passes),
        "family_s": {c["family"]: round(c["seconds"], 3) for c in first.data.get("calls", [])},
        "failures": failures,
        "fail_ratio": failed / max(attempted, 1),
        "digest": refs.digest(c["checks"] for c in first.data.get("calls", [])),
    }
    if not trace:
        lat = [p.latency_s for p, _ in passes]
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_p90_s": p90(lat),
            "pass_s": statistics.median(lat),
            "peak_rss_mb": max(p.maxrss_mb for p, _ in passes),
        }
    else:
        metrics = layers.per_layer(passes)
        layers.write_spans(passes, "verify", seed)
    return {"attempted": max(attempted, 1), "failed": failed, "metrics": metrics}, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="mzeta benchmark")
    ap.add_argument("--workload", required=True, choices=("constants", "values", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ns = ap.parse_args(argv)
    if os.environ.get("MZETA_MAX_N") is not None:
        return _fail("MZETA_MAX_N is set; it changes the summation schedule and every timing", 2)
    if not (SRC / "mzeta" / "__init__.py").is_file():
        return _fail(f"no mzeta sources under {SRC}; run from the root of a checkout", 1)
    if ns.setup_probe:
        setup(ns.workload, ns.seed)
        return 0
    _import_program()
    if ns.workload == "verify":
        result, report = verify_result(ns.seed, ns.seconds, bool(ns.trace))
    else:
        result, report = request_result(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    report["environment"] = environment()
    metrics = {
        name: {"value": value, "unit": END_TO_END.get(name) or layers.unit_of(name)}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
