"""Command-line front end with reproducible JSON output.

Subcommands: ``stieltjes`` (one constant), ``zeta`` (continued values),
``verify`` (identity checks), ``expand`` (regularised series around a point).
All randomness flows from --seed through one deterministic generator, and
numbers are formatted as fixed-digit decimal strings, so identical command
lines produce byte-identical output.

Exit codes: 0 success, 1 failed verification, 2 parse error / unknown name,
3 precision unreachable, 4 polar point.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

import mpmath
from mpmath import mp

from . import __version__, harness, mzv, stieltjes, stuffle
from .config import DEPTH_CAP, max_n, to_mpf
from .errors import PolarPointError, PoleProximityError, PrecisionUnreachableError

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_PARSE = 2
EXIT_PRECISION = 3
EXIT_POLAR = 4

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?\d+(?:\.\d+)?)(?:(?P<im>[+-]\d+(?:\.\d+)?)[ij])?$"
)


class CliParseError(Exception):
    pass


def _parse_int_list(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise CliParseError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_complex_list(text: str) -> tuple:
    out = []
    for tok in text.split(","):
        m = _COMPLEX_RE.match(tok.strip())
        if m is None:
            raise CliParseError(f"cannot parse complex number {tok!r}")
        re_part = m.group("re")
        im_part = m.group("im")
        if im_part is None:
            # keep exact rationals so polar detection stays exact
            out.append(int(re_part) if "." not in re_part else Fraction(re_part))
        else:
            # both parts exact, rounded once at the working precision
            parts = Fraction(re_part), Fraction(im_part)
            if max(map(abs, parts)) > sys.float_info.max:
                raise CliParseError(f"complex number {tok!r} is out of range")
            out.append(mp.mpc(*map(to_mpf, parts)))
    return tuple(out)


def _fmt(x, digits: int) -> str:
    if isinstance(x, Fraction):
        return str(x)
    z = mp.mpc(x)
    if z.imag == 0:
        return mpmath.nstr(z.real, digits, strip_zeros=False)
    sign = "+" if z.imag >= 0 else "-"
    return (
        f"{mpmath.nstr(z.real, digits, strip_zeros=False)}"
        f"{sign}{mpmath.nstr(abs(z.imag), digits, strip_zeros=False)}j"
    )


def _emit(payload: dict, output: str, text_lines: list[str]) -> None:
    try:
        print(json.dumps(payload, sort_keys=True, indent=2) if output == "json" else "\n".join(text_lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`): as Python's docs advise for
        # SIGPIPE, point stdout at devnull so that no later flush raises, and
        # let the command return its own exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzeta",
        description="Multiple Stieltjes constants and multiple zeta values",
    )
    parser.add_argument("--version", action="version", version=f"mzeta {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=12, help="target digits (<= 50)")
    common.add_argument("--output", choices=("json", "text"), default="text")
    # the commands that take a point refuse one deeper than the cap
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument(
        "--depth-cap", type=int, default=4, help=f"maximum depth (<= {DEPTH_CAP})"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stieltjes", parents=[capped], help="one multiple Stieltjes constant")
    p.set_defaults(run=_cmd_stieltjes)
    p.add_argument("--point", required=True, help="comma-separated integers")
    p.add_argument("--order", required=True, help="comma-separated naturals")
    p.add_argument("--star", action="store_true", help="weak-inequality variant")
    p.add_argument(
        "--method",
        choices=("extrapolation", "closed_form_assembly"),
        default="extrapolation",
    )

    p = sub.add_parser("zeta", parents=[capped], help="continued multiple zeta value")
    p.set_defaults(run=_cmd_zeta)
    p.add_argument("--args", required=True, help='complex list, e.g. "2,1" or "1.5+0.5i"')
    p.add_argument("--star", action="store_true")

    p = sub.add_parser("verify", parents=[common], help="run identity checks")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("identity", help="identity name or 'all'")
    p.add_argument("--seed", type=int, default=42, help="seed for sampled points")
    p.add_argument("--depth", type=int, default=None, help="restrict to one depth")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers")

    p = sub.add_parser("expand", parents=[capped], help="regularised series around a point")
    p.set_defaults(run=_cmd_expand)
    p.add_argument("--point", required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--star", action="store_true")
    return parser


def _validate_config(ns: argparse.Namespace) -> None:
    if not 1 <= ns.digits <= 50:
        raise CliParseError("--digits must be in 1..50")
    if "depth_cap" in ns and not 0 <= ns.depth_cap <= DEPTH_CAP:
        raise CliParseError(f"--depth-cap must be in 0..{DEPTH_CAP}")
    try:
        max_n()
    except ValueError as exc:
        raise CliParseError(str(exc)) from exc


def _check_depth(depth: int, ns: argparse.Namespace) -> None:
    if depth > ns.depth_cap:
        raise CliParseError(f"depth {depth} exceeds --depth-cap {ns.depth_cap}")


def _cmd_stieltjes(ns: argparse.Namespace) -> int:
    point = _parse_int_list(ns.point)
    order = _parse_int_list(ns.order)
    if len(point) != len(order):
        raise CliParseError("--point and --order must have equal length")
    _check_depth(len(point), ns)
    if any(k < 0 for k in order):
        raise CliParseError("--order entries must be >= 0")
    value = stieltjes.stieltjes_constant(point, order, ns.digits, star=ns.star, method=ns.method)
    payload = {
        "point": list(point),
        "order": list(order),
        "star": ns.star,
        "method": value.method,
        "value": _fmt(value.value, ns.digits),
        "est_error": mpmath.nstr(value.est_error, 3),
    }
    lines = [payload["value"], f"est_error: {payload['est_error']}", f"method: {value.method}"]
    _emit(payload, ns.output, lines)
    return EXIT_OK


def _cmd_zeta(ns: argparse.Namespace) -> int:
    args = _parse_complex_list(ns.args)
    _check_depth(len(args), ns)
    variant = "star" if ns.star else "strict"
    value, est = mzv.zeta_value_with_error(args, ns.digits, variant)
    payload = {
        "args": [_fmt(a, ns.digits) for a in args],
        "variant": variant,
        "value": _fmt(value, ns.digits),
        "est_error": mpmath.nstr(est, 3),
    }
    _emit(payload, ns.output, [payload["value"], f"est_error: {payload['est_error']}"])
    return EXIT_OK


def _cmd_verify(ns: argparse.Namespace) -> int:
    if ns.identity == "all":
        names = list(harness.IDENTITY_NAMES)
    elif ns.identity in harness.IDENTITY_NAMES:
        names = [ns.identity]
    else:
        print(f"unknown identity: {ns.identity}", file=sys.stderr)
        return EXIT_PARSE
    jobs = ns.jobs if ns.jobs is not None else min(len(names), os.cpu_count() or 1)
    checks = harness.verify(names, seed=ns.seed, digits=ns.digits, jobs=jobs)
    if ns.depth is not None:
        def depth_of(c):
            for key in ("s", "point", "depth"):
                if key in c.params:
                    v = c.params[key]
                    return v if isinstance(v, int) else len(v)
            return None
        checks = [c for c in checks if depth_of(c) == ns.depth]
    payload = harness.report(checks, ns.digits)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        params = ", ".join(f"{k}={v}" for k, v in sorted(c.params.items(), key=lambda kv: kv[0]))
        lines.append(
            f"{status} {c.name} [{params}] gap={mpmath.nstr(c.abs_gap, 3)} "
            f"tol={mpmath.nstr(c.tolerance, 3)}"
        )
    s = payload["summary"]
    lines.append(f"total={s['total']} passed={s['passed']} failed={s['failed']}")
    _emit(payload, ns.output, lines)
    return EXIT_OK if s["failed"] == 0 else EXIT_FAILED_CHECK


def _cmd_expand(ns: argparse.Namespace) -> int:
    point = _parse_int_list(ns.point)
    if not 0 <= ns.degree <= 8:
        raise CliParseError("--degree must be in 0..8")
    _check_depth(len(point), ns)
    series = stieltjes.reg_series(point, ns.degree, ns.digits, star=ns.star)
    coeffs = {
        ",".join(map(str, ks)): _fmt(v, ns.digits)
        for ks, v in sorted(series.coefficients.items())
    }
    payload = {
        "center": list(point),
        "degree": ns.degree,
        "star": ns.star,
        "taylor_coefficients": coeffs,
    }
    lines = [f"center: {list(point)}  degree: {ns.degree}"]
    if stieltjes.in_closure(point) and not ns.star:
        iset = stieltjes.index_set(point)
        blocks = []
        for i in iset:
            if i == 0:
                continue
            f_i = stuffle.f_rational(iset, i)
            blocks.append({"i": i, "sign": stuffle.inversion_sign(iset, i), "f": f_i.to_json_dict()})
        payload["singular_blocks"] = blocks
        lines.append(f"index set: {list(iset)}; singular blocks: {len(blocks)}")
    for key, val in coeffs.items():
        lines.append(f"  [{key or '-'}] {val}")
    _emit(payload, ns.output, lines)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on parse errors; pass its code through
        return int(exc.code or 0)
    try:
        _validate_config(ns)
        with mp.workdps(ns.digits + 10):
            return ns.run(ns)
    except (CliParseError, PolarPointError, PrecisionUnreachableError, PoleProximityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliParseError):
            return EXIT_PARSE
        return EXIT_POLAR if isinstance(exc, PolarPointError) else EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
