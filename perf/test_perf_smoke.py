"""The benchmark still runs, names what BENCHMARK.json declares, and counts
what the cost model predicts. No timing is asserted here: the run reports,
``perf/compare.py`` judges."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core import C2PIPipeline
from repro.models import resnet20
from repro.mpc.costs import dealer_label_traffic
from repro.mpc.preprocessing import material_plan

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXACT = ("online_bytes_per_request", "offline_bytes_per_request", "rounds_per_request")


def test_declared_names_are_well_formed_and_unique():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert SPEC["paths"] == ["perf"]


def test_smoke_run_reports_declared_names_and_exact_counts(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "perf" / "run.py"),
         "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""  # nothing left open for the interpreter to warn about

    # What was printed: one block per workload, one line per metric.
    printed: dict[str, list[str]] = {}
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            printed[line[3:]] = block = []
        elif printed and not line.startswith("results:"):
            block.append(line.split()[0])
    declared = [metric["name"] for metric in SPEC["end_to_end"]]
    assert list(printed) == [workload["name"] for workload in SPEC["workloads"]]
    for names in printed.values():
        assert names == declared + ["failed_share"]

    # Channel accounting and costs.py, worked out here for resnet20 @ 3.5.
    victim = resnet20(width_mult=0.25, rng=np.random.default_rng(0)).eval()
    pipeline = C2PIPipeline(victim, 3.5, noise_magnitude=0.1, seed=5)
    result = pipeline.infer(np.zeros((1, 3, 32, 32), dtype=np.float32))
    program = pipeline.program
    predicted_bytes = (
        sum(dealer_label_traffic(material_plan(program, 1)).values())
        + 8 * int(np.prod(program.input_shape))  # the input share
        + 8 * int(np.prod(program.output_shape))  # the noised reveal
    )
    assert result.total_bytes == predicted_bytes == 3_492_864
    rounds = result.crypto_rounds + 1  # + the noised reveal
    assert rounds == 35

    workloads = json.loads(out.read_text(encoding="utf-8"))["workloads"]
    counts = {
        name: tuple(entry["metrics"][metric]["value"] for metric in EXACT)
        for name, entry in workloads.items()
    }
    offline_bytes = counts["socket_b1"][1]  # what crossed the wire
    assert offline_bytes > 0
    for name, entry in workloads.items():
        assert counts[name] == (predicted_bytes, offline_bytes, rounds), name
        assert entry["failed_share"] == 0
        assert entry["correct"], entry["verified"]
