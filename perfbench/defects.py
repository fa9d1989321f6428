"""List the inputs that fail at this commit and what they return.

    python3 perfbench/defects.py

The timed workloads hold only ops that succeed, so these inputs are kept
out of them; this script counts them instead.  It re-runs every candidate
that ``record_refs.py`` rejected (``references.json``, key ``rejected``) and
two inputs named in the project's defect list, checks each against a fresh
reference, and prints one line per input with what it returned now.  Exit
code 0 means every listed input still fails as recorded, 1 means some now
pass (the defect list and the pool should be recorded again).
"""

from __future__ import annotations

import json
import sys

import record_refs  # puts src/ on sys.path
import ops
import refs
import workloads

# inputs that fail outside any candidate class: the expected behaviour is a
# clean exit with the listed code
NAMED = (
    (["stieltjes", "--point=1,1", "--order=1,0", "--method=closed_form_assembly", "--output=json"], 0),
    (["zeta", "--args=1,1,1,1,1,1,1", "--depth-cap=8", "--output=json"], 4),
)


def reference_op(argv: list[str], code: int) -> dict:
    op = {"argv": argv, "code": code}
    if code != 0:
        return op
    exact = record_refs.closed_form(argv)
    if exact is not None:
        op["ref"] = {"value": refs.encode_number(exact)}
        return op
    lib = ops.run_in_child(record_refs.library_value, argv)
    if lib.traceback:
        raise RuntimeError(f"no reference for {argv}: {lib.traceback.strip().splitlines()[-1]}")
    op["ref"] = lib.data.get("coefficients") or {"value": lib.data["value"]}
    return op


def main() -> int:
    with open(refs.REFERENCES) as fh:
        rejected = json.load(fh)["rejected"]
    expected = {tuple(argv): code for argv, code in workloads.REFUSED}
    cases = [(e["argv"], expected.get(tuple(e["argv"]), 0)) for items in rejected.values() for e in items]
    cases += list(NAMED)
    still = 0
    for argv, code in cases:
        res = ops.run_in_child(ops.cli_op, argv)
        why = refs.check(reference_op(argv, code), res.data)
        still += why is not None
        print(f"{'FAIL' if why else 'PASS'} {' '.join(argv)}: {why or 'now correct'}", flush=True)
    print(f"{still} of {len(cases)} inputs fail")
    return 0 if still == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
