"""The benchmark's own tests: smoke runs, the metric contract, wrappers.

Run from the repository root::

    PYTHONPATH=src python -m pytest repobench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

from layers import LayerTracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("video-static", "video-full", "cells-sharded", "train-parrot")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [
            sys.executable,
            os.path.join("repobench", "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            *extra,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_spec_lists_every_workload():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "repobench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    result = _run(ROOT, workload, trace, "--tiny")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[-2].startswith("conditions ")
    payload = json.loads(lines[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True
    assert payload["failed"] == 0
    assert payload["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in payload["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in payload["metrics"].values())
    conditions = json.loads(lines[-2][len("conditions "):])
    allowed = len(os.sched_getaffinity(0))
    assert len(conditions["cpu_affinity"]) == (
        allowed if workload == "cells-sharded" else 1
    )
    assert "steal_fraction" in conditions


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "repobench", ignore=shutil.ignore_patterns("__pycache__")
    )
    result = _run(tmp_path, "train-parrot", 0)
    assert result.returncode != 0
    assert result.stdout == ""


class _Target:
    def work(self, x):
        return x + 1


def test_wrappers_restore_every_attribute():
    module = types.ModuleType("fake")
    module.helper = lambda x: 2 * x
    original_method = _Target.__dict__["work"]
    original_helper = module.helper
    with LayerTracer() as tracer:
        method_probe = tracer.wrap(_Target, "work", "work")
        helper_probe = tracer.wrap(
            module, "helper", "helper", counts=lambda x: {"items": float(x)}
        )
        assert _Target.__dict__["work"] is not original_method
        # Off: calls pass straight through and record nothing.
        assert _Target().work(1) == 2 and module.helper(3) == 6
        assert method_probe.calls == 0 and helper_probe.calls == 0
        tracer.on = True
        assert _Target().work(1) == 2 and module.helper(3) == 6
        assert method_probe.calls == 1 and helper_probe.count("items") == 3.0
    assert _Target.__dict__["work"] is original_method
    assert module.helper is original_helper


def test_wrappers_restore_after_an_error():
    original = _Target.__dict__["work"]
    with pytest.raises(RuntimeError):
        with LayerTracer() as tracer:
            tracer.wrap(_Target, "work", "work")
            raise RuntimeError("boom")
    assert _Target.__dict__["work"] is original


def test_wrap_refuses_inherited_attributes():
    class Child(_Target):
        pass

    with LayerTracer() as tracer:
        with pytest.raises(AttributeError):
            tracer.wrap(Child, "work", "work")
    assert "work" not in Child.__dict__


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_layer_patches_round_trip(workload):
    import run

    bench = run.make_workload(workload, tiny=True)
    tracer = LayerTracer()
    bench.install(tracer)
    patched = [(owner, attr, original) for owner, attr, original in tracer._patches]
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is not original
    tracer.restore()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
