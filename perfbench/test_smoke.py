"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import grambounds  # noqa: E402
import grambounds.cli  # noqa: E402
import grambounds.compare  # noqa: E402
import grambounds.verify  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, namespaces  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bindings():
    return {(ns.__name__, attr): value for ns in namespaces(grambounds) for attr, value in vars(ns).items()}


def test_untraced_run_emits_every_end_to_end_metric(tmp_path):
    for name in workloads.WORKLOADS:
        result = run.run_untraced(name, 3, 0.01, str(tmp_path), sizes=workloads.TINY)
        assert result["correct"], result["detail"]["problems"]
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
        for m in BENCHMARK["end_to_end"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_emits_per_layer_metrics_and_removes_its_wrappers(tmp_path):
    before = bindings()
    first = run.run_traced(3, 0.01, str(tmp_path), sizes=workloads.TINY)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    assert first["correct"]
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
    assert first["metrics"]["corpus.verify.cases_per_spec"]["value"] == workloads.CASES_PER_SPEC

    second = run.run_traced(4, 0.01, str(tmp_path), sizes=workloads.TINY)
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            assert second["metrics"][name]["value"] == m["value"], name


def test_large_traces_the_families_it_runs_untraced(monkeypatch, tmp_path):
    fields = []
    real = grambounds.core.VectorFamily

    def recording(rows, field):
        fields.append(field)
        return real(rows, field=field)

    monkeypatch.setattr(grambounds.core, "VectorFamily", recording)
    wl = workloads.make("large", 3, workloads.TINY, str(tmp_path))
    loop = workloads.run_loop(wl, 0.2, Tracer(grambounds))
    assert wl.failed == 0 and len(loop.traced_s) >= 2
    untraced, traced = fields[0::2], fields[1::2]
    assert traced == untraced[:len(traced)]
    assert set(traced) == {"real", "complex"}


def test_workload_is_required_untraced_and_optional_traced():
    assert run.parse_args(["--trace", "1"]).workload == "all"
    assert run.parse_args(["--trace", "1", "--workload", "large"]).workload == "large"
    with pytest.raises(SystemExit):
        run.parse_args(["--trace", "0"])


def _too_small(real):
    def evaluator(*args):
        r = real(*args)
        return dataclasses.replace(r, value=0.5 * r.lhs - 1.0)
    return evaluator


@pytest.mark.parametrize("name, module, attr, fake", [
    ("corpus", grambounds.verify, "frobenius_bound", _too_small),
    ("large", grambounds.verify, "frobenius_bound", _too_small),
    ("compute", grambounds.cli, "frobenius_bound", _too_small),
    ("scan", grambounds.compare, "gap_closed_form", lambda real: lambda b, p: abs(real(b, p)) + 1.0),
])
def test_wrong_result_counts_as_failure(monkeypatch, tmp_path, name, module, attr, fake):
    monkeypatch.setattr(module, attr, fake(getattr(module, attr)))
    wl = workloads.make(name, 3, workloads.TINY, str(tmp_path))
    workloads.run_loop(wl, 0.01)
    assert 0 < wl.failed <= wl.attempted


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "corpus", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
