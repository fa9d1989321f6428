"""Reference values, output checks, the est_error calibration and digests."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import mpmath
from mpmath import mp

REFERENCES = Path(__file__).with_name("references.json")
DIGEST_OPS = 100  # the digest covers the first ops of the stream only

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = re.compile(rf"^(?P<re>{_NUM})(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)j$")


def load_pool(path: Path = REFERENCES) -> dict:
    """{workload: {class: [op, ...]}}; an op holds argv, the expected exit
    code, its class under "cls" and, for exit 0, the reference value(s)."""
    with open(path) as fh:
        pool = json.load(fh)["pool"]
    for classes in pool.values():
        for cls, ops in classes.items():
            for op in ops:
                op["cls"] = cls
    return pool


def parse_number(text: str):
    """A value as the CLI prints it: real, or re+imj."""
    m = _COMPLEX.match(text)
    if m:
        return mp.mpc(mp.mpf(m.group("re")), mp.mpf(m.group("im")))
    return mp.mpf(text)


def ref_number(ref):
    if isinstance(ref, list):
        return mp.mpc(mp.mpf(ref[0]), mp.mpf(ref[1]))
    return mp.mpf(ref)


def encode_number(x, digits: int = 60):
    """A reference value for the JSON table."""
    with mp.workdps(digits + 10):
        z = mp.mpc(x)
        if z.imag == 0:
            return mpmath.nstr(z.real, digits)
        return [mpmath.nstr(z.real, digits), mpmath.nstr(z.imag, digits)]


def off_by(value, ref, digits: int) -> str | None:
    """None when value is within what ``digits`` digits allow, else the gap."""
    with mp.workdps(80):
        tol = mp.mpf(10) ** (1 - digits) * max(1, abs(ref))
        gap = abs(value - ref)
        if gap > tol:
            return f"off the reference by {mpmath.nstr(gap, 3)} > {mpmath.nstr(tol, 3)}"
    return None


def digits_of(argv: list[str]) -> int:
    for tok in argv:
        if tok.startswith("--digits="):
            return int(tok.split("=", 1)[1])
    return 12


def printed_values(stdout: str) -> dict[str, str]:
    """The numbers an op printed, keyed by "value" or Taylor coefficient."""
    payload = json.loads(stdout)
    if "taylor_coefficients" in payload:
        return dict(payload["taylor_coefficients"])
    return {"value": payload["value"]}


def check(op: dict, data: dict) -> str | None:
    """None when the op's output is correct, else why it is not."""
    if data.get("traceback"):
        return "traceback: " + data["traceback"].strip().splitlines()[-1]
    code = data.get("code")
    if code != op["code"]:
        return f"exit code {code}, expected {op['code']}"
    if op["code"] != 0:
        return None
    digits = digits_of(op["argv"])
    with mp.workdps(80):
        try:
            got = printed_values(data["stdout"])
        except (ValueError, KeyError) as exc:
            return f"unparsable output: {exc}"
        if set(got) != set(op["ref"]):
            return f"printed {sorted(got)}, expected {sorted(op['ref'])}"
        for key, text in got.items():
            why = off_by(parse_number(text), ref_number(op["ref"][key]), digits)
            if why:
                return f"{key}: {text} is {why}"
    return None


def calibration(op: dict, data: dict) -> float | None:
    """log10(true error / reported est_error) for ops with a closed form."""
    if op.get("source") != "closed_form" or data.get("code") != 0:
        return None
    unrounded = data.get("unrounded")
    if not unrounded:
        return None
    with mp.workdps(80):
        est = mp.mpf(json.loads(data["stdout"])["est_error"])
        true = abs(parse_number(unrounded.replace(" ", "").strip("()")) - ref_number(op["ref"]["value"]))
        if est <= 0:
            return None
        true = max(true, mp.mpf(10) ** -58)  # the closed form carries 60 digits
        return float(mpmath.log10(true / est))


def calibration_table(entries: list[tuple[str, float]]) -> dict:
    """Per class: count, median, min and max of the log10 ratios."""
    by_cls: dict[str, list[float]] = {}
    for cls, value in entries:
        by_cls.setdefault(cls, []).append(value)
    out = {}
    for cls, vals in sorted(by_cls.items()):
        vals.sort()
        out[cls] = {
            "n": len(vals),
            "median": round(vals[len(vals) // 2], 2),
            "min": round(vals[0], 2),
            "max": round(vals[-1], 2),
        }
    return out


def digest(records) -> str:
    """sha256 over (argv, exit code, printed values) of each record."""
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def digest_record(op: dict, data: dict):
    code = data.get("code")
    values = None
    if code == 0:
        try:
            values = printed_values(data["stdout"])
        except (ValueError, KeyError):
            values = data.get("stdout")
    return [op["argv"], code, values]
