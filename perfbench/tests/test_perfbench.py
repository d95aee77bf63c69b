"""Smoke tests for the benchmark itself, at the ``tiny`` size.

    python3 -m pytest -q perfbench/tests

They check what the benchmark emits and that its correctness gate and
guards bite; they time nothing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from probe import EVENT_OWNERS  # noqa: E402

TIMEOUT = 600


def _bench(*args, env=None, runner=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(runner), "--size", "tiny", "--seconds", "0",
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT,
        env=env if env is not None else _env())
    return proc


def _env(**extra):
    env = {key: value for key, value in os.environ.items()
           if key != "REPRO_KERNEL"}
    env.update(extra)
    return env


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = _result(_bench("--workload", workload, "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_ledger_complete_and_events_attributed(workload):
    result = _result(_bench("--workload", workload, "--trace", "1"))
    assert result["correct"] is True, result
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    for name, metric in metrics.items():
        assert metric["unit"] == run.PER_LAYER[name]
    owned = sum(metrics[f"{owner}.events"]["value"] for owner in EVENT_OWNERS)
    owned += metrics["unattributed.events"]["value"]
    assert owned == metrics["core.events"]["value"] > 0
    assert metrics["failed_ratio"]["value"] == 0

    spans = (ROOT / ".perfbench-work" / f"{workload}.spans.tsv")
    rows = spans.read_text().splitlines()
    assert rows[0] == "name\tstart\tend\tparent"
    names = set()
    for number, row in enumerate(rows[1:]):
        name, start, end, parent = row.split("\t")
        names.add(name)
        assert float(start) <= float(end)
        assert -1 <= int(parent) < number
    assert "core" in names


def test_corrupted_pin_is_a_failed_operation(capsys):
    honest = run.measure("dense_bss", 3, 0, "tiny", False, {})
    assert honest["failed"] == 0
    corrupt = dict(honest["fingerprints"])
    corrupt["cell"] = dict(corrupt["cell"], rx_frames=-1)
    result = run.measure("dense_bss", 3, 0, "tiny", False,
                         {"dense_bss/tiny/3": corrupt})
    assert result["failed"] == result["attempted"] >= 1
    run.report(result)
    assert "fingerprints FAILED" in capsys.readouterr().out


def test_recorded_pins_are_checked_and_results_compare(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    monkeypatch.setattr(run, "PINNED", tmp_path / "pins.json")
    saved = tmp_path / "results.json"
    args = ["--workload", "dense_bss", "--seed", "3", "--size", "tiny",
            "--seconds", "0"]
    assert run.main(args + ["--record-pins"]) == 0
    assert "dense_bss/tiny/3" in json.loads(run.PINNED.read_text())
    assert run.main(args + ["--out", str(saved)]) == 0
    result = json.loads(saved.read_text())["results"][0]
    assert result["pinned"] and result["failed"] == 0
    capsys.readouterr()
    assert run.main(["--compare", str(saved), str(saved)]) == 0
    assert "x1.000" in capsys.readouterr().out


def test_refuses_a_forced_kernel():
    proc = _bench("--workload", "dense_bss", env=_env(REPRO_KERNEL="python"))
    assert proc.returncode == 2
    assert "REPRO_KERNEL" in proc.stderr
    assert proc.stdout.strip() == ""


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "dense_bss",
                  runner=tmp_path / "perfbench" / "run.py")
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


def test_compare_refuses_different_kernels(tmp_path, capsys):
    saved = {"results": [{"workload": "dense_bss", "trace": False,
                          "metrics": {"run_s": 1.0}}]}
    before, after = tmp_path / "a.json", tmp_path / "b.json"
    before.write_text(json.dumps(dict(saved, env={"kernel": "python"})))
    after.write_text(json.dumps(dict(saved, env={"kernel": "c"})))
    assert run.main(["--compare", str(before), str(after)]) == 2
    assert "kernels differ" in capsys.readouterr().err
    after.write_text(json.dumps(dict(saved, env={"kernel": "python"})))
    assert run.main(["--compare", str(before), str(after)]) == 0
