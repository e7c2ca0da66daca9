"""Judge two results files of ``perf/run.py`` against the benchmark's bounds.

    python3 perf/compare.py A.json B.json

A is the base (the parent commit, or the earlier set of runs), B the
candidate. One row per workload x end-to-end metric: both values, the
ratio B/A, and a verdict from the bound ``BENCHMARK.json`` fixes for it:

``better``      B beats A by more than the bound
``within``      B is no further from A than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  a timing whose run was too disturbed to say: in A or B the
                all-request median sits further above the best-chunk
                median (``noise_ratio``) than the bound allows; for
                ``setup_s``, the run's own set-ups lie further apart

Exit status is non-zero on any ``worse`` and on any rise in failed_share.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
)
TIMING_UNITS = {"ms", "s", "1/s"}


def verdict(metric: dict, a: float, b: float, noise: float) -> str:
    bound = metric["bound"]
    if metric["unit"] in TIMING_UNITS and noise - 1.0 > bound:
        return "unresolved"
    worse_by = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':10s} {'metric':26s} {'A (base)':>14s} {'B':>14s} "
        f"{'B/A':>8s} {'bound':>7s}  verdict"
    ]
    bad = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name:10s} missing from B")
            bad = True
            continue
        run_a, run_b = a["workloads"][name], b["workloads"][name]
        noise = max(run_a["noise_ratio"], run_b["noise_ratio"])
        setup_noise = max(
            max(run["setup"]["samples_s"]) / min(run["setup"]["samples_s"])
            for run in (run_a, run_b)
        )
        for metric in SPEC["end_to_end"]:
            value_a = run_a["metrics"][metric["name"]]["value"]
            value_b = run_b["metrics"][metric["name"]]["value"]
            word = verdict(
                metric, value_a, value_b,
                setup_noise if metric["name"] == "setup_s" else noise,
            )
            bad |= word == "worse"
            lines.append(
                f"{name:10s} {metric['name']:26s} {value_a:14.6g} {value_b:14.6g} "
                f"{value_b / value_a:8.4f} {metric['bound']:7.2g}  {word}"
            )
        rose = run_b["failed_share"] > run_a["failed_share"]
        bad |= rose
        lines.append(
            f"{name:10s} {'failed_share':26s} {run_a['failed_share']:14.6g} "
            f"{run_b['failed_share']:14.6g} {'':8s} {'0':>7s}  "
            f"{'rose' if rose else 'not risen'}"
        )
        if run_a["sha_requests"] == run_b["sha_requests"] and run_a["seed"] == run_b["seed"]:
            same = run_a["logits_sha256"] == run_b["logits_sha256"]
            lines.append(
                f"{name:10s} outputs {'equal' if same else 'DIFFER'} "
                f"(sha256 over the first {run_a['sha_requests']} requests)"
            )
        else:
            lines.append(f"{name:10s} outputs not comparable (different seed or sizes)")
    return lines, bad


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in sys.argv[1:])
    lines, bad = compare(a, b)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
