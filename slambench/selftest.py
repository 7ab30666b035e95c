"""The benchmark's own tests.  Run from the root of a checkout::

    python3 -m pytest slambench/selftest.py -q

The file name keeps it out of the repository's default test collection: the
smoke runs start shard pools and take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOAD_NAMES  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "slambench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_metric_names_use_safe_characters():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in BENCHMARK[section]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    names += list(measure.END_TO_END) + list(measure.PER_LAYER)
    assert [n for n in names if not NAME.match(n)] == []


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == measure.END_TO_END
    assert _declared("per_layer") == measure.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)


def test_tracer_restores_every_wrapped_function_by_identity():
    from repro.engine import RenderEngine
    from repro.testing.scenarios import DEFAULT_LIBRARY

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.n_sites > 0
        patched = [(owner, attr, orig) for owner, attr, orig in tracer._patched]
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in patched)
        spec = DEFAULT_LIBRARY.get("dense_random").build()
        RenderEngine().render(spec.cloud, spec.camera, spec.view_poses(1)[0])
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    assert all(vars(owner)[attr] is orig for owner, attr, orig in patched)
    summary = tracer.summary()
    assert summary["engine.render"]["calls"] == 1
    assert "gaussians.step3" in summary and tracer.pixels > 0


def test_work_records_are_keyed_by_the_code(tmp_path):
    program = tmp_path / "src" / "repro" / "core.py"
    program.parent.mkdir(parents=True)
    program.write_text("SALT = 1\n")
    before = measure.code_identity(tmp_path)
    assert measure.code_identity(tmp_path) == before
    program.write_text("SALT = 2\n")
    assert measure.code_identity(tmp_path) != before


def test_a_pass_that_raises_is_reported_not_fatal(capsys):
    class Broken:
        def run_pass(self, realisation, trace=False):
            raise RuntimeError("diverged")

    assert measure.run_pass(Broken(), 0) is None
    assert "RuntimeError: diverged" in capsys.readouterr().err


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_smoke_run(workload, trace):
    run = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
               "--size", "tiny")  # fmt: skip
    assert run.returncode == 0, run.stderr[-3000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, run.stdout[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "slambench", ignore=shutil.ignore_patterns("out"))
    run = _run("--workload", "slam-tum", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert run.returncode != 0
    assert run.stdout.strip() == ""
