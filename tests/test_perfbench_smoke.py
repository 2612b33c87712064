"""The benchmark's workloads run clean on the current sources: set-up, two
iterations and their checks, with no failed operation and the second
iteration repeating the first. A contract break in what the benchmark calls
(``forward_logits``, ``generate_greedy``, the evalkit helpers) fails here
instead of in a benchmark run."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from medlm import model as M
from medlm import trainer as TR

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"


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


def test_generate_reuses_its_decode_plan(workloads, tmp_path, monkeypatch):
    """The ``generate`` workload decodes every request on one table, so
    ``generate_greedy`` builds its ``decode_plan`` at most once in the first
    iteration and not at all in the second."""
    builds = []
    decode_plan = M.decode_plan

    def recording(*args):
        builds.append(args)
        return decode_plan(*args)

    workload = workloads.WORKLOADS["generate"](str(tmp_path / "generate"), seed=0)
    workload.setup()
    monkeypatch.setattr(M, "decode_plan", recording)
    counts = []
    for _ in range(2):
        workload.check(workload.iterate())
        counts.append(len(builds) - sum(counts))
    assert counts[0] <= 1 and counts[1] == 0, counts


def test_generate_steps_run_on_vectors(workloads, tmp_path, monkeypatch):
    """In the ``generate`` workload every token after a request's first is
    one ``decode_logits`` call on one token, which runs the vector step
    (``model._decode_step``) and not the matrix path of the prefill."""
    steps = []
    decode_step = M._decode_step

    def recording(*args):
        steps.append(args[-1])  # the position it decodes
        return decode_step(*args)

    workload = workloads.WORKLOADS["generate"](str(tmp_path / "generate"), seed=0)
    workload.setup()
    monkeypatch.setattr(M, "_decode_step", recording)
    it = workload.iterate()
    workload.check(it)
    assert it.failed == 0
    assert len(steps) == sum(len(out) - 1 for out in it.outputs) > 0


def test_traced_pretrain_run_is_correct(tmp_path):
    """``perfbench/run.py --workload pretrain --trace 1``, run on a copy of
    the checkout so its output directories stay out of it. The tracer hooks
    the ops of ``medlm.tensor`` by name, so an op change that breaks a traced
    run, or makes it write other bytes than an untraced one, fails here."""
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pretrain",
                           "--trace", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    record = json.loads((tmp_path / ".perfbench_out" / "pretrain.json").read_text())
    assert record["selftest_identical_outputs"] is True
    assert record["per_layer"]["tensor.feed_forward.calls"] > 0
