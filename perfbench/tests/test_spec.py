"""BENCHMARK.json agrees with the benchmark's own metric tables."""

import json
import subprocess
import sys
from pathlib import Path

import run
from layers import PER_LAYER
from stats import check_metric_name
from workloads import WORKLOADS

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_tables_match_the_spec():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        check_metric_name(m["name"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_refuses_to_run_without_the_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text((BENCH / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "ideal-static", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
