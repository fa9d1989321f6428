"""Per-layer metrics from the traced runs, and the span file.

Every ``*_s`` and ``*.calls`` metric is per op: per CLI request in the
``constants`` and ``values`` workloads, per verify pass in ``verify``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import spans
import workloads

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

# (metric, span name, field of that name's totals over the run)
FUNCTION_METRICS = (
    ("partial_sums.sum_basis.calls", "partial_sums.sum_basis", "calls"),
    ("partial_sums.sum_basis.repeat_ratio", "partial_sums.sum_basis", "repeat_ratio"),
    ("partial_sums.sum_sequence.calls", "partial_sums.sum_sequence", "calls"),
    ("partial_sums.sum_sequence.self_s", "partial_sums.sum_sequence", "self_s"),
    ("partial_sums.resolve_constant.calls", "partial_sums.resolve_constant", "calls"),
    ("partial_sums.resolve_constant.self_s", "partial_sums.resolve_constant", "self_s"),
    ("partial_sums.basis_partial_sum.terms", "partial_sums.basis_partial_sum", "work"),
    ("stieltjes.truncated_log_sum.calls", "stieltjes.truncated_log_sum", "calls"),
    ("stieltjes.truncated_log_sum.self_s", "stieltjes.truncated_log_sum", "self_s"),
    ("stieltjes.truncated_log_sum.terms", "stieltjes.truncated_log_sum", "work"),
    ("stieltjes.asymptotic_expansion.calls", "stieltjes.asymptotic_expansion", "calls"),
    ("stieltjes.asymptotic_expansion.self_s", "stieltjes.asymptotic_expansion", "self_s"),
    ("stieltjes.asymptotic_expansion.repeat_ratio", "stieltjes.asymptotic_expansion", "repeat_ratio"),
    ("stieltjes.reg_series.calls", "stieltjes.reg_series", "calls"),
    ("stieltjes.reg_series.self_s", "stieltjes.reg_series", "self_s"),
    ("stieltjes.reg_series.repeat_ratio", "stieltjes.reg_series", "repeat_ratio"),
    ("stieltjes.resolve_atom.calls", "stieltjes.resolve_atom", "calls"),
    ("stieltjes.resolve_atom.repeat_ratio", "stieltjes.resolve_atom", "repeat_ratio"),
    ("mzv.zeta_truncated.calls", "mzv.zeta_truncated", "calls"),
    ("mzv.zeta_truncated.self_s", "mzv.zeta_truncated", "self_s"),
    ("mzv.zeta_truncated.terms", "mzv.zeta_truncated", "work"),
    ("mzv.zeta_tail.calls", "mzv.zeta_tail", "calls"),
    ("mzv.zeta_tail.self_s", "mzv.zeta_tail", "self_s"),
    ("mzv.zeta_tail.raised", "mzv.zeta_tail", "raised"),
    ("mzv.zeta_tail_via_values.calls", "mzv.zeta_tail_via_values", "calls"),
    ("mzv.zeta_value_with_error.calls", "mzv.zeta_value_with_error", "calls"),
    ("mzv.zeta_value_with_error.repeat_ratio", "mzv.zeta_value_with_error", "repeat_ratio"),
    ("mzv.reg_via_tails.calls", "mzv.reg_via_tails", "calls"),
    ("mzv.reg_via_tails.self_s", "mzv.reg_via_tails", "self_s"),
    ("stuffle.b_rational.repeat_ratio", "stuffle.b_rational", "repeat_ratio"),
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s/op"
    if metric.endswith(("ratio", "sums_per_constant")):
        return "ratio"
    return "count/op"


def _merge(summaries: list[dict]) -> dict[str, dict]:
    total: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for summary in summaries:
        for name, row in summary["names"].items():
            for key, value in row.items():
                total[name][key] += value
    return total


def verify_order() -> list[str]:
    """The families a verify pass times, in harness order."""
    from mzeta import harness

    timed = set(workloads.VERIFY_FAMILIES) | set(workloads.VERIFY_SUBSETS)
    return [name for name in harness.IDENTITY_NAMES if name in timed]


def per_layer(pairs) -> dict[str, float]:
    """Per-layer metrics from (untraced, traced) result pairs of one run."""
    traced = [t for _, t in pairs if t is not None and "trace" in t.data]
    summaries = [t.data["trace"] for t in traced]
    n = max(len(traced), 1)
    names = _merge(summaries)
    out: dict[str, float] = {}
    for metric, name, field in FUNCTION_METRICS:
        row = names.get(name, {})
        calls = row.get("calls", 0)
        if field == "repeat_ratio":
            out[metric] = row.get("repeats", 0) / calls if calls else 0.0
        else:
            out[metric] = row.get(field, 0) / n
    by_layer: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for name, row in names.items():
        layer = name.split(".", 1)[0]
        by_layer[layer][0] += row["self_s"]
        by_layer[layer][1] += row["calls"]
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = by_layer[layer][0] / n
    for layer in ("exact", "scale", "stuffle"):
        out[f"{layer}.calls"] = by_layer[layer][1] / n
    family_s = defaultdict(float)
    for t in traced:
        for call in t.data.get("calls", []):
            family_s[call["family"]] += call["seconds"]
    for family in verify_order():
        out[f"harness.{family}_s"] = family_s[family] / n
    sums = names.get("stieltjes.truncated_log_sum", {})
    distinct = sums.get("calls", 0) - sums.get("repeats", 0)
    out["stieltjes.sums_per_constant"] = sums.get("calls", 0) / distinct if distinct else 0.0
    plain_s = sum(p.latency_s for p, t in pairs if t is not None)
    traced_s = sum(t.latency_s for t in traced)
    work_s = sum(t.work_s for t in traced)
    root_s = sum(s["root_s"] for s in summaries)
    # the overhead includes sending the spans; the op time stops before that
    out["trace.overhead_ratio"] = traced_s / plain_s if plain_s else 0.0
    out["trace.op_s"] = work_s / n
    out["trace.outside_s"] = (work_s - root_s) / n
    out["trace.spans"] = sum(s["spans"] for s in summaries) / n
    return out


def write_spans(pairs, workload: str, seed: int) -> Path:
    """All spans of the run, one JSON line per op, written at the end."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, (_, t) in enumerate(pairs):
            if t is None or "trace" not in t.data:
                continue
            fh.write(json.dumps({"op": i, "spans": t.data["trace"].get("raw", [])}) + "\n")
    return path
