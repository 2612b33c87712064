"""The benchmark's workloads run clean on the current sources: set-up, two
iterations and their checks, with no failed operation and the second
iteration repeating the first. A contract break in what the benchmark calls
(``forward_logits``, ``generate_greedy``, the evalkit helpers) fails here
instead of in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from medlm import trainer as TR

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["pretrain", "finetune", "generate"])
def test_workload_runs_clean(workloads, name, tmp_path, monkeypatch):
    monkeypatch.setattr(TR, "optim_step", TR.optim_step)  # StepClock rebinds it
    workload = workloads.WORKLOADS[name](str(tmp_path / name), seed=0)
    workload.setup()
    for _ in range(2):
        it = workload.iterate()
        workload.check(it)
        assert it.attempted > 0
        assert it.failed == 0
        assert it.same_as_first
