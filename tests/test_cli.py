import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import mzeta
from mzeta import mzv, stieltjes
from mzeta.cli import main
from mzeta.config import DEPTH_CAP
from mzeta.mzv import nested_sums
from mzeta.stieltjes import asymptotic_expansion

SRC = str(Path(mzeta.__file__).resolve().parents[1])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args, timeout):
    """A fresh interpreter with this checkout's package on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


class TestStieltjesCommand:
    def test_half_log_2pi(self, capsys):
        code, out, _ = run_cli(capsys, "stieltjes", "--point", "0", "--order", "1")
        assert code == 0
        assert out.splitlines()[0] == "0.918938533205"

    def test_euler(self, capsys):
        code, out, _ = run_cli(capsys, "stieltjes", "--point", "1", "--order", "0")
        assert code == 0
        assert out.splitlines()[0] == "0.577215664902"

    def test_depth_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "stieltjes", "--point", "1,1", "--order", "0,0", "--digits", "12"
        )
        assert code == 0
        assert out.splitlines()[0] == "-0.655878071520"

    def test_assembly_past_a_lower_shells_pole(self, capsys):
        # shells 0..2 of the reversed prefix (s2, s1) have a pole at s2 = 1,
        # 1e-8 from every sample; shell 3, the correction's own, has none
        code, out, _ = run_cli(
            capsys, "stieltjes", "--point=-2,1", "--order=1,0", "--digits=12",
            "--method=closed_form_assembly",
        )
        assert code == 0
        assert out.splitlines()[0] == "-0.241564612146"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "stieltjes", "--point", "0", "--order", "0", "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"].startswith("-1.0")
        assert data["method"] == "extrapolation"

    def test_length_mismatch_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "stieltjes", "--point", "1,1", "--order", "0")
        assert code == 2
        assert "equal length" in err

    def test_bad_integers_are_parse_errors(self, capsys):
        code, _, _ = run_cli(capsys, "stieltjes", "--point", "x", "--order", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, depth, cap",
        [
            (["--point=1,1,1,1,1", "--order=0,0,0,0,0"], 5, 4),
            (["--point=1,1,1", "--order=0,0,0", "--depth-cap=2"], 3, 2),
        ],
    )
    def test_depth_above_the_cap_is_parse_error(self, capsys, argv, depth, cap):
        code, out, err = run_cli(capsys, "stieltjes", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: depth {depth} exceeds --depth-cap {cap}\n"

    @pytest.mark.parametrize("point", [-150, -200, -1000])
    def test_large_negative_point_is_refused_at_once(self, capsys, point):
        # the cells of t^-a log t, or their coefficients (-150, past X^168),
        # outgrow the float range before any cut reaches the target at N = 64
        code, out, err = run_cli(capsys, "stieltjes", f"--point={point}", "--order=1")
        assert (code, out) == (3, "")
        assert err.startswith(f"error: g({point}|1) did not stabilise")

    @pytest.mark.parametrize(
        "point, value",
        [("1000000", "1.00000000000"), ("10000000", "1.00000000000"), ("10000000,1", "1.10499468238e-3010300")],
    )
    def test_large_positive_point_is_answered(self, capsys, point, value):
        # every cell past the constant lies below the target at N = 64: one
        # probe at the first cell's X-order places the cut; 2^-(10^7) at (10^7, 1)
        order = ",".join("0" for _ in point.split(","))
        code, out, err = run_cli(capsys, "stieltjes", f"--point={point}", f"--order={order}")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == value


class TestZetaCommand:
    def test_zeta_zero(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--args", "0")
        assert code == 0
        assert out.splitlines()[0] == "-0.500000000000"

    def test_euler_relation_point(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--args", "2,1")
        assert code == 0
        assert out.splitlines()[0].startswith("1.20205690316")

    def test_polar_point_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--args", "1")
        assert code == 4
        assert "polar hyperplane s1=1" in err

    def test_complex_argument(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--args", "2+0.5i", "--digits", "10")
        assert code == 0
        assert "j" in out.splitlines()[0]

    def test_complex_parts_are_parsed_exactly(self, capsys):
        # through float, 0.1+0i was 0.1000000000000000055.. and 17 of 40 digits moved
        _, real, _ = run_cli(capsys, "zeta", "--args=0.1", "--digits=40")
        _, cplx, _ = run_cli(capsys, "zeta", "--args=0.1+0i", "--digits=40")
        assert cplx == real
        code, out, _ = run_cli(capsys, "zeta", "--args=0.1+0.3i", "--digits=40", "--output=json")
        re_part, im_part = re.fullmatch(r"(-?[\d.]+)([+-][\d.]+)j", json.loads(out)["value"]).groups()
        with mp.workdps(60):
            ref = mp.zeta(mp.mpc(mp.mpf(1) / 10, mp.mpf(3) / 10))
            assert code == 0 and abs(mp.mpc(mp.mpf(re_part), mp.mpf(im_part)) - ref) < mp.mpf(10) ** -39

    def test_star_variant(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--args", "2,1", "--star", "--digits", "10")
        assert code == 0
        assert out.splitlines()[0].startswith("2.404113806")

    def test_unparseable_args(self, capsys):
        code, _, _ = run_cli(capsys, "zeta", "--args", "2;1")
        assert code == 2

    @pytest.mark.parametrize("args", ["1{z}+1i", "1{z}+1i,2", "2,1.5-1{z}i"])
    def test_complex_beyond_float_range_is_parse_error(self, capsys, args):
        code, out, err = run_cli(capsys, "zeta", f"--args={args.format(z='0' * 400)}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: complex number") and err.endswith("is out of range\n")

    def test_max_n_env_bounds_precision(self, capsys, monkeypatch):
        # under a cap of 16 no level passes N = 8, and no correction order
        # gets below the remainder floor e^(-16 pi) ~ 1e-22 there
        monkeypatch.setenv("MZETA_MAX_N", "16")
        code, _, err = run_cli(
            capsys, "stieltjes", "--point", "1", "--order", "0", "--digits", "40"
        )
        assert code == 3
        assert "did not stabilise" in err

    @pytest.mark.parametrize("digits, probes", [(30, False), (8, True)])
    def test_small_cap_refuses_before_building_expansions(self, capsys, monkeypatch, digits, probes):
        # at N = 8 the expansion's floor is e^(-16 pi) ~ 1e-22: a 30-digit
        # target is refused before any correction order is tried
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return asymptotic_expansion(*args, **kwargs)

        monkeypatch.setenv("MZETA_MAX_N", "16")
        monkeypatch.setattr(stieltjes, "asymptotic_expansion", spy)
        argv = ["--point=2,1,1", "--order=1,1,1", f"--digits={digits}"]
        code, _, err = run_cli(capsys, "stieltjes", *argv)
        assert bool(calls) == probes
        if not probes:
            assert code == 3 and "did not stabilise to 30 digits by N=16" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeta", "--args=0.5", "--digits=45"],
            ["stieltjes", "--point=1", "--order=0", "--digits=40"],
            ["expand", "--point=1", "--degree=0", "--digits=40"],
        ],
    )
    def test_value_memos_follow_the_cap(self, capsys, monkeypatch, argv):
        # in one process: a value reached under the default cap is not
        # served from the memo once a cap that cannot reach it is set
        monkeypatch.delenv("MZETA_MAX_N", raising=False)
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setenv("MZETA_MAX_N", "16")
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (3, "")

    def test_max_n_env_bounds_zeta_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("MZETA_MAX_N", "16")
        code, _, err = run_cli(capsys, "zeta", "--args", "0.5", "--digits", "45")
        assert code == 3
        assert "did not reach" in err

    @pytest.mark.parametrize("raw", ["abc", "1", "2", "15"])
    def test_bad_max_n_env_is_parse_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("MZETA_MAX_N", raw)
        code, out, err = run_cli(capsys, "zeta", "--args=2.5,1.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: MZETA_MAX_N must be")

    @pytest.mark.parametrize(
        "argv, cap",
        [
            (["stieltjes", "--point=1", "--order=0", "--digits=12"], 64),
            (["stieltjes", "--point=1", "--order=0", "--digits=12", "--star"], 64),
            (["zeta", "--args=2", "--digits=5"], 16),
            (["zeta", "--args=2", "--digits=5"], 17),
        ],
    )
    def test_no_sweep_passes_the_cap(self, capsys, monkeypatch, argv, cap):
        last = []

        def spy(s, tops, *args, **kwargs):
            last.append(max(tops) - 1)  # the largest index summed
            return nested_sums(s, tops, *args, **kwargs)

        monkeypatch.setenv("MZETA_MAX_N", str(cap))
        monkeypatch.setattr(mzv, "nested_sums", spy)
        mzv.zeta_value_with_error.cache.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code in (0, 3)
        assert last and max(last) <= cap
        if "--star" not in argv:  # a star sum's top bound N + 1 sums n <= N
            assert max(last) < cap

    def test_fifty_digit_constant_sums_no_index_past_256(self, capsys, monkeypatch):
        # N stays near the digit count and the correction order rises
        # instead: a deterministic guard on the schedule, not a timing
        last = []

        def spy(s, tops, *args, **kwargs):
            last.append(max(tops) - 1)  # the largest index summed
            return nested_sums(s, tops, *args, **kwargs)

        monkeypatch.delenv("MZETA_MAX_N", raising=False)
        monkeypatch.setattr(mzv, "nested_sums", spy)
        code, out, _ = run_cli(capsys, "stieltjes", "--point=1,1", "--order=0,0", "--digits=50")
        with mp.workdps(60):
            gamma00 = (mp.euler**2 - mp.zeta(2)) / 2  # (H^2 - H^(2))/2 regularised
            assert (code, out.splitlines()[0]) == (0, mp.nstr(gamma00, 50, strip_zeros=False))
        assert last and max(last) <= 256

    def test_fifty_digit_value_sums_no_index_past_256(self, capsys, monkeypatch):
        # the value route plans its N and K from the shell norms instead of
        # doubling N (to 2048 here): a deterministic guard on the schedule
        last = []

        def spy(s, tops, *args, **kwargs):
            last.append(max(tops) - 1)  # the largest index summed
            return nested_sums(s, tops, *args, **kwargs)

        monkeypatch.delenv("MZETA_MAX_N", raising=False)
        monkeypatch.setattr(mzv, "nested_sums", spy)
        mzv.zeta_value_with_error.cache.clear()
        code, out, _ = run_cli(capsys, "zeta", "--args=0.25,-1.5+0.5i", "--digits=50")
        with mp.workdps(70):  # perfbench's 60-digit reference, rounded to 50
            ref = mp.mpc(
                "-0.00694976597239280988180815320389775787766145236671070103147071",
                "0.0307518809934030802416455689369904905843333683131925590017193",
            )
            expect = f"{mp.nstr(ref.real, 50, strip_zeros=False)}+{mp.nstr(ref.imag, 50, strip_zeros=False)}j"
        assert (code, out.splitlines()[0]) == (0, expect)
        assert last and max(last) <= 256

    def test_depth_cap_above_value_cap_is_parse_error(self, capsys):
        too_deep = ",".join(["1"] * (DEPTH_CAP + 1))
        code, _, err = run_cli(capsys, "zeta", f"--args={too_deep}", f"--depth-cap={DEPTH_CAP + 2}")
        assert code == 2
        assert err == f"error: --depth-cap must be in 0..{DEPTH_CAP}\n"

    @pytest.mark.parametrize("arg", ["99999999999999999999", "-99999999999"])
    def test_huge_exponent_fails_fast(self, arg):
        # no N reaches the target: every tail estimate stays above it, so
        # the schedule runs to its caps without a single nested-sum sweep;
        # the positive exponent then falls back on the integral-test bound
        proc = run_python(["-m", "mzeta.cli", "zeta", f"--args={arg}", "--digits=5"], timeout=30)
        if arg.startswith("-"):
            assert proc.returncode == 3
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: zeta value at")
        else:
            assert proc.returncode == 0
            assert proc.stdout.splitlines()[0] == "1.0000"

    def test_pole_proximity_names_the_factor(self, capsys):
        # not on the polar set (the exact check passes), but 1e-17 from it
        code, _, err = run_cli(capsys, "zeta", "--args=1.00000000000000001,2")
        assert code == 3
        assert err == "error: reciprocal factor 1/(s1-1) is singular\n"

    def test_star_constant_at_origin(self, capsys):
        # weak top bound shifts the counting constant to zero
        code, out, _ = run_cli(capsys, "stieltjes", "--point", "0", "--order", "0", "--star")
        assert code == 0
        assert out.splitlines()[0] == "0.0"


class TestVerifyCommand:
    def test_unknown_identity(self, capsys):
        code, _, err = run_cli(capsys, "verify", "no-such-check")
        assert code == 2
        assert "unknown identity" in err

    def test_limits_origin_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "limits-origin", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["failed"] == 0
        assert data["summary"]["total"] >= 2

    def test_unicity_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "unicity")
        assert code == 0
        assert out.strip().splitlines()[-1] == "total=3 passed=3 failed=0"

    def test_byte_identical_json(self, capsys):
        _, out1, _ = run_cli(
            capsys, "verify", "unicity", "--seed", "42", "--digits", "9", "--output", "json"
        )
        _, out2, _ = run_cli(
            capsys, "verify", "unicity", "--seed", "42", "--digits", "9", "--output", "json"
        )
        assert out1 == out2

    def test_depth_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "unicity", "--depth", "1", "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["total"] == 1

    def test_corollary_depth_one_gap_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "comb-form-cor", "--depth", "1", "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["failed"] == 0
        assert all(c["abs_gap"] == "0.0" for c in data["checks"])


class TestExpandCommand:
    def test_depth_one_blocks_and_coefficients(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--point", "1", "--degree", "2", "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        coeffs = data["taylor_coefficients"]
        assert coeffs["0"].startswith("0.577215")
        assert coeffs["1"].startswith("0.0728158")
        assert coeffs["2"].startswith("-0.004845")
        blocks = data["singular_blocks"]
        assert len(blocks) == 1 and blocks[0]["i"] == 1 and blocks[0]["sign"] == 1
        assert blocks[0]["f"]["den"] == [{"coef": "1", "powers": [1]}]

    def test_convergent_point_has_no_singular_blocks(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--point", "2", "--degree", "1", "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["singular_blocks"] == []
        assert data["taylor_coefficients"]["0"].startswith("1.6449340")
        assert data["taylor_coefficients"]["1"].startswith("-0.93754825")

    def test_depth_two_three_blocks(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--point", "1,1", "--degree", "1", "--digits", "10",
            "--output", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert [b["i"] for b in data["singular_blocks"]] == [1, 2]
        assert data["taylor_coefficients"]["0,0"].startswith("-0.65587807")

    def test_degree_cap(self, capsys):
        code, _, _ = run_cli(capsys, "expand", "--point", "1", "--degree", "9")
        assert code == 2


def test_closed_stdout_exits_quietly_with_the_command_code(capsys, monkeypatch):
    # the reader of the pipe left before the value was written
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        code = main(["stieltjes", "--point=10000000", "--order=0"])
        monkeypatch.undo()
    assert code == 0
    assert capsys.readouterr().err == ""


def test_head_of_the_output_leaves_stderr_empty():
    # `mzeta stieltjes --point=10000000 --order=0 | head -c 5`: no traceback
    # from the write, nor from the flush at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mzeta.cli", "stieltjes", "--point=10000000", "--order=0"],
        stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
    )
    os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_cli_import_leaves_the_process_pool_out():
    # only a parallel verify run needs concurrent.futures
    script = "import sys, mzeta.cli; print('concurrent.futures' in sys.modules)"
    proc = run_python(["-c", script], timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "False\n"


def test_each_subcommand_names_its_handler():
    from mzeta import cli

    parser = cli._build_parser()
    for argv, handler in (
        (["stieltjes", "--point=1", "--order=0"], cli._cmd_stieltjes),
        (["zeta", "--args=2"], cli._cmd_zeta),
        (["verify", "unicity"], cli._cmd_verify),
        (["expand", "--point=1"], cli._cmd_expand),
    ):
        ns = parser.parse_args(argv)
        assert ns.command == argv[0] and ns.run is handler


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0


# -- fuzzing ------------------------------------------------------------------
#
# Command lines with at least one input that must be refused before any
# computation starts (so each example is cheap), in every position the
# parser and validators read, among otherwise random options.

COMMANDS = ("stieltjes", "zeta", "verify", "expand")
BAD_INTS = ("x", "", "1.5", "1e3", "1+0i", "--1", "0x10")
BAD_COMPLEX = ("x", "", "1e3", "1+i", "i", "1.5+", "2;1", "--1", "1_0", "inf")
INT_OPTIONS = {
    "stieltjes": ("--digits", "--depth-cap"),
    "zeta": ("--digits", "--depth-cap"),
    "verify": ("--digits", "--seed", "--depth", "--jobs"),
    "expand": ("--digits", "--depth-cap", "--degree"),
}
# flags that another command takes but this one does not read
FOREIGN = {
    "stieltjes": "--seed",
    "zeta": "--seed",
    "verify": "--depth-cap",
    "expand": "--seed",
}
FAULTS = {
    "stieltjes": ("digits", "depth-cap", "not-an-int", "too-deep", "malformed", "negative-order", "mismatch", "foreign"),
    "zeta": ("digits", "depth-cap", "not-an-int", "too-deep", "malformed", "foreign"),
    "verify": ("digits", "not-an-int", "identity", "foreign"),
    "expand": ("digits", "depth-cap", "not-an-int", "too-deep", "malformed", "degree", "foreign"),
}


def _int_list(draw, depth, low=-3, high=4):
    return [str(draw(st.integers(low, high))) for _ in range(depth)]


def _complex_token(draw):
    re_part = draw(st.sampled_from(("0", "1", "2", "-1", "0.5", "2.5", "-1.5")))
    return re_part + draw(st.sampled_from(("", "+1i", "-0.5j")))


def _with_bad_token(draw, tokens, bad):
    # an empty integer list alone is the depth-0 point, not a malformed one
    tokens = list(tokens)
    token = draw(st.sampled_from([b for b in bad if b or tokens]))
    tokens.insert(draw(st.integers(0, len(tokens))), token)
    return ",".join(tokens)


@st.composite
def refused_command_lines(draw):
    command = draw(st.sampled_from(COMMANDS))
    fault = draw(st.sampled_from(FAULTS[command]))
    cap = draw(st.integers(0, DEPTH_CAP))
    depth = draw(st.integers(0, cap))
    if fault == "too-deep":
        depth = draw(st.integers(cap + 1, DEPTH_CAP + 2))
    opts = {"--digits": str(draw(st.integers(1, 50)))}
    if "--depth-cap" in INT_OPTIONS[command]:
        opts["--depth-cap"] = str(cap)
    if fault == "digits":
        opts["--digits"] = str(draw(st.one_of(st.integers(max_value=0), st.integers(min_value=51))))
    elif fault == "depth-cap":
        opts["--depth-cap"] = str(
            draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=DEPTH_CAP + 1)))
        )
    elif fault == "not-an-int":
        opts[draw(st.sampled_from(INT_OPTIONS[command]))] = draw(st.sampled_from(BAD_INTS))
    elif fault == "foreign":
        opts[FOREIGN[command]] = str(draw(st.integers(0, DEPTH_CAP)))
    argv = [command]
    if command == "stieltjes":
        point, order = _int_list(draw, depth), _int_list(draw, depth, 0, 3)
        if fault == "negative-order":
            point, order = point or ["1"], order or ["0"]
            order[draw(st.integers(0, len(order) - 1))] = str(draw(st.integers(-5, -1)))
        if fault == "mismatch":
            order.append("0")
        point_s = _with_bad_token(draw, point, BAD_INTS) if fault == "malformed" else ",".join(point)
        argv += [f"--point={point_s}", f"--order={','.join(order)}"]
        argv += draw(st.sampled_from(([], ["--star"], ["--method=closed_form_assembly"])))
    elif command == "zeta":
        args = [_complex_token(draw) for _ in range(depth)]
        text = _with_bad_token(draw, args, BAD_COMPLEX) if fault == "malformed" else ",".join(args)
        argv += [f"--args={text}"] + draw(st.sampled_from(([], ["--star"])))
    elif command == "verify":
        names = ("all", "limits-origin", "no-such-check", "ALL", "")
        name = draw(st.sampled_from(names[2:] if fault == "identity" else names))
        argv += [name]
    else:
        point = _int_list(draw, depth)
        text = _with_bad_token(draw, point, BAD_INTS) if fault == "malformed" else ",".join(point)
        degree = draw(st.integers(0, 8))
        if fault == "degree":
            degree = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=9)))
        argv += [f"--point={text}"]
        opts.setdefault("--degree", str(degree))
    argv += [f"{k}={v}" for k, v in opts.items()]
    argv += draw(st.sampled_from(([], ["--output=json"], ["--output=text"])))
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=refused_command_lines())
def test_fuzzed_refusals_exit_two_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2, (argv, code, out.getvalue())
    assert out.getvalue() == ""
    assert err.getvalue().strip(), argv


@st.composite
def cheap_command_lines(draw):
    """Shallow, low-digit requests: valid, polar, near-polar or refused."""
    command = draw(st.sampled_from(("stieltjes", "zeta", "expand")))
    argv = [command, f"--digits={draw(st.integers(1, 8))}"]
    if command == "zeta":
        args = [_complex_token(draw) for _ in range(draw(st.integers(0, 2)))]
        argv += [f"--args={','.join(args)}"] + draw(st.sampled_from(([], ["--star"])))
    elif command == "stieltjes":
        point, order = _int_list(draw, 1), _int_list(draw, 1, -1, 2)
        argv += [f"--point={point[0]}", f"--order={order[0]}"]
        argv += draw(st.sampled_from(([], ["--star"], ["--method=closed_form_assembly"])))
    else:
        argv += [f"--point={_int_list(draw, 1)[0]}", f"--degree={draw(st.integers(-1, 2))}"]
    return argv + draw(st.sampled_from(([], ["--output=json"])))


@settings(max_examples=60, deadline=None)
@given(argv=cheap_command_lines(), max_n=st.sampled_from((None, "16", "17", "64", "1000")))
def test_fuzzed_cheap_requests_exit_zero_to_four_without_a_traceback(argv, max_n):
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("MZETA_MAX_N", None)
    if max_n is not None:
        os.environ["MZETA_MAX_N"] = max_n
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop("MZETA_MAX_N", None)
        if saved is not None:
            os.environ["MZETA_MAX_N"] = saved
    assert code in range(5), (argv, code)
    assert bool(out.getvalue()) == (code in (0, 1)), argv
