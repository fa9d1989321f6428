"""Record the op pool and its reference values from the current commit.

    python3 perfbench/record_refs.py --workload constants --out constants.json
    python3 perfbench/record_refs.py --workload values --out values.json
    python3 perfbench/record_refs.py --merge constants.json values.json

Each candidate op of ``workloads.py`` runs once through ``mzeta.cli.main`` in
a fresh forked child, in pool order, until its class holds
``workloads.pool_size`` ops.  Its reference is a closed form where the package or
its tests name one, else the library value recomputed at extra digits
(constants +8 digits by extrapolation, values +10 digits).  Candidates are
kept out of the pool, and listed with what they returned, when they exit
with another code than expected, print a value off the reference, raise, or
take longer than ``SLOW_S`` (too slow for a 35 s run of at least 100 ops).
Refusals that are correct (a polar point) are dropped from the value
classes, since those classes hold ops that must succeed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import mpmath  # noqa: E402
from mpmath import mp  # noqa: E402

import ops  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402
from mzeta import cli, mzv, partial_sums, stieltjes  # noqa: E402

SLOW_S = 10.0
REF_LIMIT_S = 120
EXTRA_DIGITS = {"stieltjes": 8, "expand": 8, "zeta": 10}


def _parse(argv):
    # the CLI's own parser, so the reference reads argv exactly as the op does
    return cli._build_parser().parse_args(argv)


def closed_form(argv: list[str]):
    """Closed form named by the package or its tests, else None."""
    ns = _parse(argv)
    with mp.workdps(70):
        if ns.command == "stieltjes":
            point = cli._parse_int_list(ns.point)
            order = cli._parse_int_list(ns.order)
            if len(point) == 1:
                m, l = point[0], order[0]
                if m >= 1 or (m == 0 and l >= 1):
                    # the depth-1 constant g(m|l) is the slot em(l,m); the
                    # star variant differs only at the origin counting sum
                    return partial_sums.known_closed_form(partial_sums.em_slot_name(l, m))
            if point == (1, 1) and order == (0, 0):
                sign = 1 if ns.star else -1
                return (mp.euler**2 + sign * mp.zeta(2)) / 2
            return None
        if ns.command == "zeta":
            args = cli._parse_complex_list(ns.args)
            if len(args) == 1:
                return mp.zeta(mzv.to_mpc(args[0]))
            if tuple(args) == (2, 1) and not ns.star:
                return mp.zeta(3)
    return None


def library_value(argv: list[str]) -> dict:
    """Child body: the op's value(s) from the library at extra digits."""
    ns = _parse(argv)
    digits = ns.digits + EXTRA_DIGITS[ns.command]
    signal.alarm(REF_LIMIT_S)
    with mp.workdps(digits + 10):
        if ns.command == "stieltjes":
            point = cli._parse_int_list(ns.point)
            order = cli._parse_int_list(ns.order)
            v = stieltjes.stieltjes_constant(point, order, digits, star=ns.star)
            return {"value": refs.encode_number(v.value), "digits": digits}
        if ns.command == "expand":
            series = stieltjes.reg_series(cli._parse_int_list(ns.point), ns.degree, digits, star=ns.star)
            return {
                "coefficients": {
                    ",".join(map(str, ks)): refs.encode_number(v) for ks, v in series.coefficients.items()
                },
                "digits": digits,
            }
        args = cli._parse_complex_list(ns.args)
        v, _ = mzv.zeta_value_with_error(args, digits, "star" if ns.star else "strict")
        return {"value": refs.encode_number(v), "digits": digits}


def _timed_cli(argv, limit):
    def body():
        signal.alarm(limit)
        return ops.cli_op(argv)

    return ops.run_in_child(body)


def record(workload: str) -> dict:
    if workload == "constants":
        candidates = workloads.constants_candidates()
    else:
        candidates = workloads.values_candidates()
    pool: dict[str, list] = {}
    rejected = []
    dropped = []
    for cls, argvs in candidates.items():
        kept = pool.setdefault(cls, [])
        for argv in argvs:
            if len(kept) == workloads.pool_size(workload, cls):
                break
            res = _timed_cli(argv, int(SLOW_S) + 5)
            data = res.data
            line = f"{res.latency_s:7.3f} {cls:12s} {' '.join(argv)}"
            if res.latency_s > SLOW_S:
                dropped.append({"argv": argv, "why": f"slow: {res.latency_s:.1f} s"})
                print(line, "DROP slow", flush=True)
                continue
            if data.get("traceback") or data.get("code") != 0:
                what = refs.check({"argv": argv, "code": 0}, data)
                if workload == "values" and data.get("code") == 4 and not data.get("traceback"):
                    args = cli._parse_complex_list(_parse(argv).args)
                    if mzv.polar_description(args) is not None:
                        dropped.append({"argv": argv, "why": "polar point"})
                        print(line, "DROP polar", flush=True)
                        continue
                rejected.append({"argv": argv, "returned": what, "stderr": data.get("stderr", "")[-300:]})
                print(line, "REJECT", what, flush=True)
                continue
            op = {"argv": argv, "code": 0, "cost_s": round(res.latency_s, 4)}
            exact = closed_form(argv)
            lib = ops.run_in_child(library_value, argv)
            if lib.traceback:
                lib_ref = None
                print(line, "library reference failed:", lib.traceback.strip().splitlines()[-1], flush=True)
            else:
                lib_ref = lib.data
            if exact is not None:
                op["ref"] = {"value": refs.encode_number(exact)}
                op["source"] = "closed_form"
                if lib_ref is not None:
                    # the recorded route must agree with the closed form
                    with mp.workdps(80):
                        why = refs.off_by(
                            refs.ref_number(lib_ref["value"]), exact, refs.digits_of(argv)
                        )
                    if why:
                        print(line, "closed form disagrees with library:", why, flush=True)
            elif lib_ref is not None:
                op["ref"] = lib_ref.get("coefficients") or {"value": lib_ref["value"]}
                op["source"] = f"recorded@{lib_ref['digits']}"
            else:
                with mp.workdps(80):
                    printed = refs.printed_values(data["stdout"])
                    op["ref"] = {k: refs.encode_number(refs.parse_number(v)) for k, v in printed.items()}
                op["source"] = f"recorded@{refs.digits_of(argv)}"
            why = refs.check(op, data)
            if why:
                rejected.append({"argv": argv, "returned": why})
                print(line, "REJECT", why, flush=True)
                continue
            kept.append(op)
            print(line, op["source"], flush=True)
    if workload == "values":
        pool["refused"] = []
        for argv, code in workloads.REFUSED:
            res = _timed_cli(argv, 30)
            op = {"argv": argv, "code": code, "cost_s": round(res.latency_s, 4)}
            why = refs.check(op, res.data)
            if why:
                rejected.append({"argv": argv, "returned": why})
                print("REJECT refused", argv, why, flush=True)
            else:
                pool["refused"].append(op)
    return {"pool": pool, "rejected": rejected, "dropped": dropped}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("constants", "values"))
    ap.add_argument("--out")
    ap.add_argument("--merge", nargs="+")
    ns = ap.parse_args()
    if ns.merge:
        merged = {"pool": {}, "rejected": {}, "dropped": {}}
        for path in ns.merge:
            with open(path) as fh:
                part = json.load(fh)
            merged["pool"][part["workload"]] = part["pool"]
            merged["rejected"][part["workload"]] = part["rejected"]
            merged["dropped"][part["workload"]] = part["dropped"]
        merged["recorded_with"] = {
            "python": sys.version.split()[0],
            "mpmath": mpmath.__version__,
            "backend": mpmath.libmp.BACKEND,
        }
        with open(refs.REFERENCES, "w") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if os.environ.get("MZETA_MAX_N") is not None:
        print("error: unset MZETA_MAX_N before recording", file=sys.stderr)
        return 2
    start = time.perf_counter()
    result = record(ns.workload)
    result["workload"] = ns.workload
    with open(ns.out, "w") as fh:
        json.dump(result, fh)
    print(f"recorded {ns.workload} in {time.perf_counter() - start:.0f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
