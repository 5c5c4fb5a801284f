"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Runs all four workloads and their traced runs at a tenth of the length
and checks that every metric ``BENCHMARK.json`` names comes back finite.
Not part of tier-1 (``testpaths`` stays ``tests``).
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_run_reports_every_metric():
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "7"],
        cwd=ROOT, check=True, timeout=170,
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = json.loads((BENCH / "out" / "result.json").read_text())
    assert set(report["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, entry in report["workloads"].items():
        assert entry["failed"] == 0, name
        for metric in spec["end_to_end"]:
            assert NAME_RULE.fullmatch(metric["name"])
            value = entry["end_to_end"][metric["name"]]["median"]
            assert math.isfinite(value), (name, metric["name"])
        for metric in spec["per_layer"]:
            assert NAME_RULE.fullmatch(metric["name"])
            value = entry["per_layer"][metric["name"]]["value"]
            assert math.isfinite(value), (name, metric["name"])
