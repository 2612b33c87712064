"""The benchmark's three workloads, each a closed loop with one client.

Every workload has a timed ``setup`` (the benchmark's set-up time), a
timed ``iterate`` that is repeated for the measured window, and an
untimed ``check`` of the iteration's outputs. medlm only sees a config
file, the data ``medlm data build`` makes from it and, for ``generate``,
prompt ids; the seed reaches medlm through the config.

- ``pretrain``: ``medlm train cpt`` from random init on packed 128-token
  blocks, full-parameter AdamW on about 132k parameters. Long sequences,
  large matmuls and the full optimizer; no decoding, no LoRA.
- ``finetune``: ``medlm train sft`` (LoRA r16) then ``medlm train dpo``
  (LoRA r8) from a ``cpt.ckpt`` written in set-up. Short variable-length
  sequences, so graph bookkeeping dominates and the optimizer (about 8k
  adapter parameters) does almost nothing. DPO adds two no-grad
  reference forwards per pair; its epochs are sized to about half of
  ``wall_s`` so a DPO-only change can show.
- ``generate``: greedy decoding of every dialogue prompt (48 new tokens)
  and every 2-shot MCQ prompt (4 new tokens) on an untrained model, then
  evalkit scoring. The only no-grad, no-optimizer workload, and the only
  one a KV cache or the LCS kernel can move. MCQ prompts are issued
  twice per iteration so that a third of the requests are dialogue ones:
  p50 then falls among MCQ requests and p90 among dialogue requests,
  neither on the boundary between the two shapes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from medlm import cli
from medlm import data as D
from medlm import evalkit as E
from medlm import model as M
from medlm import tensor as T
from medlm import trainer as TR

# Model, data and stage settings of configs/synthetic.json, copied so that
# edits to that example config do not change what the benchmark measures.
MODEL = {"d_model": 64, "n_layers": 2, "n_heads": 2, "max_seq_len": 256}
DATA = {"block_size": 128, "min_span": 20, "n_diseases": 20, "holdout_fraction": 0.1}
# SFT and DPO get a fixed stage seed, which sets their batch order. SFT
# sequences are 24 to 123 positions long, so the batch that holds the most
# long ones sets peak memory; with the order drawn from the workload seed,
# peak_rss_mb moved about 20% between seeds. The workload seed still sets
# the corpus and every other seed.
STAGES = {
    "cpt": {"learning_rate": 0.01, "batch_size": 8},
    "sft": {"learning_rate": 0.005, "batch_size": 8, "seed": 1,
            "lora": {"rank": 16, "alpha": 32, "dropout": 0.0}},
    "dpo": {"learning_rate": 0.003, "batch_size": 8, "beta": 0.1, "seed": 1,
            "lora": {"rank": 8, "alpha": 16, "dropout": 0.0}},
}
# Epochs per iteration: about 1.3 s of CPT; SFT and DPO about 0.6 s each.
EPOCHS = {"cpt": 4, "sft": 1, "dpo": 3}

FEW_SHOT_K = 2
MCQ_NEW_TOKENS = 4
DIALOGUE_NEW_TOKENS = 48
MCQ_REPEATS = 2
GENERATE_LORA = {"rank": 16, "alpha": 32.0, "dropout": 0.0}
TIE_TOLERANCE = 1e-9


class Iteration:
    """What one timed iteration did; ``check`` fills in ``failed``."""

    def __init__(self):
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.latencies = []  # seconds per request (generate) or per training step
        self.tokens = 0
        self.outputs = {}  # op -> fingerprint compared across iterations
        self.losses = {}
        self.scores = []
        self.same_as_first = True


def _cli(argv):
    """Run medlm's CLI in-process with its chatter captured; (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:
            traceback.print_exc(file=buf)
            rc = 1
    return rc, buf.getvalue()


def _report(what, detail=""):
    print(f"check failed: {what} {detail}".rstrip()[:2000], file=sys.stderr)


class StepClock:
    """Records when ``trainer.optim_step`` returns; the intervals between
    returns are training step times. It stays installed in untraced runs:
    one clock read per step is the whole cost."""

    def __init__(self):
        self.marks = []
        inner = TR.optim_step

        def optim_step(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.marks.append(time.perf_counter())
            return result

        TR.optim_step = optim_step

    def intervals(self):
        marks, self.marks = self.marks, []
        return [b - a for a, b in zip(marks, marks[1:])]


class Workload:
    name = ""

    def __init__(self, work_dir, seed):
        self.work = work_dir
        self.seed = seed
        self.config_path = os.path.join(work_dir, "config.json")
        self.paths = {k: os.path.join(work_dir, k) for k in ("data", "checkpoints", "reports")}
        self.first = None

    def reset(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def setup(self, trace_build=contextlib.nullcontext):
        """Write the config, run ``medlm data build`` and prepare what the
        iterations and checks need."""
        os.makedirs(self.work, exist_ok=True)
        stages = {s: dict(STAGES[s], epochs=EPOCHS[s]) for s in STAGES}
        config = {"seed": self.seed, "paths": self.paths, "model": MODEL, "data": DATA,
                  "stages": stages,
                  "eval": {"few_shot_k": FEW_SHOT_K, "max_new_tokens": DIALOGUE_NEW_TOKENS}}
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with trace_build():
            rc, out = _cli(["--config", self.config_path, "data", "build"])
        if rc != 0:
            raise RuntimeError(f"medlm data build failed ({rc}):\n{out}")
        self.vocab = M.load_vocab(os.path.join(self.paths["data"], "vocab.txt"))
        self.model_config = M.ModelConfig(vocab_size=len(self.vocab), **MODEL)
        self.prepare()

    def prepare(self):
        raise NotImplementedError

    def iterate(self):
        raise NotImplementedError

    def check(self, it):
        raise NotImplementedError

    def _data(self, name):
        return os.path.join(self.paths["data"], name)

    def _shapes(self, tensors):
        return {name: tuple(t.data.shape) for name, t in tensors.named()}


class _Training(Workload):
    """Shared by pretrain and finetune: one op is one ``medlm train`` call."""

    stages = ()

    def __init__(self, work_dir, seed):
        super().__init__(work_dir, seed)
        self.clock = StepClock()

    def iterate(self):
        it = Iteration()
        for stage in self.stages:
            it.attempted += 1
            rc, out = _cli(["--config", self.config_path, "train", stage])
            it.latencies += self.clock.intervals()
            it.outputs[stage] = rc  # check() replaces it with the outputs' fingerprint
            if rc != 0:
                it.failed += 1
                _report(f"train {stage} exit code {rc}", out)
            it.tokens += self.positions[stage]
        return it

    def check(self, it):
        for stage in self.stages:
            if it.outputs[stage] != 0:  # already counted as failed
                it.same_as_first = False
                continue
            try:
                ok, fingerprint, loss = self._check_stage(stage)
            except Exception:
                _report(f"{stage}: outputs unreadable", traceback.format_exc())
                it.failed += 1
                it.same_as_first = False
                continue
            it.outputs[stage] = fingerprint
            it.losses[stage] = loss
            if self.first is not None and fingerprint != self.first.outputs.get(stage):
                _report(f"{stage}: checkpoint or metrics differ from the first iteration")
                it.same_as_first = ok = False
            it.failed += not ok
        if self.first is None:
            self.first = it

    def _check_stage(self, stage):
        """Losses finite, one CSV row per step, checkpoint reloads with the
        expected tensors. Returns (ok, fingerprint, last-epoch mean loss)."""
        csv_path = os.path.join(self.paths["reports"], f"{stage}_metrics.csv")
        ckpt_path = os.path.join(self.paths["checkpoints"], f"{stage}.ckpt")
        with open(csv_path, "rb") as fh:
            csv_bytes = fh.read()
        with open(ckpt_path, "rb") as fh:
            ckpt_bytes = fh.read()
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
        losses = [float(r["loss"]) for r in rows]
        ok = True
        if [int(r["step"]) for r in rows] != list(range(1, self.steps[stage] + 1)):
            _report(f"{stage}: {len(rows)} metrics rows, expected {self.steps[stage]}")
            ok = False
        if not all(math.isfinite(x) for x in losses):
            _report(f"{stage}: non-finite loss logged")
            ok = False
        state = TR.load_checkpoint(ckpt_path)
        got = (self._shapes(state.params),
               None if state.adapter is None else self._shapes(state.adapter))
        if got != self.expected_tensors[stage]:
            _report(f"{stage}: checkpoint tensors {got} != {self.expected_tensors[stage]}")
            ok = False
        per_epoch = len(losses) // EPOCHS[stage]
        loss = statistics.fmean(losses[-per_epoch:]) if per_epoch else math.nan
        fingerprint = (hashlib.sha256(ckpt_bytes).hexdigest(),
                       hashlib.sha256(csv_bytes).hexdigest())
        return ok, fingerprint, loss


class Pretrain(_Training):
    name = "pretrain"
    stages = ("cpt",)

    def prepare(self):
        records, _ = D.load_dataset(self._data("cpt.jsonl"), "cpt")
        blocks = D.pack_blocks(records, self.vocab, DATA["block_size"])
        # the CLI trains on all blocks but a held-out tail of this size
        n_hold = max(1, int(len(blocks) * DATA["holdout_fraction"]))
        train = blocks[:-n_hold]
        self.positions = {"cpt": EPOCHS["cpt"] * sum(len(b) - 1 for b in train)}
        self.steps = {"cpt": EPOCHS["cpt"] * math.ceil(len(train) / STAGES["cpt"]["batch_size"])}
        params = M.init_params(self.model_config, np.random.default_rng(self.seed))
        self.expected_tensors = {"cpt": (self._shapes(params), None)}


class Finetune(_Training):
    name = "finetune"
    stages = ("sft", "dpo")

    def prepare(self):
        def enc(text):
            return len(M.encode(self.vocab, text))

        sft, _ = D.load_dataset(self._data("sft.jsonl"), "sft")
        dpo, _ = D.load_dataset(self._data("dpo.jsonl"), "dpo")
        # positions with a target: BOS + prompt + response + EOS, minus one
        sft_pos = sum(enc(D.render_prompt(ex)) + enc(ex.output) + 1 for ex in sft)
        dpo_pos = sum(2 * enc(D.render_bare_prompt(p.prompt)) + enc(p.preferred)
                      + enc(p.rejected) + 2 for p in dpo)
        self.positions = {"sft": EPOCHS["sft"] * sft_pos, "dpo": EPOCHS["dpo"] * dpo_pos}
        self.steps = {s: EPOCHS[s] * math.ceil(n / STAGES[s]["batch_size"])
                      for s, n in (("sft", len(sft)), ("dpo", len(dpo)))}
        params = M.init_params(self.model_config, np.random.default_rng(self.seed))
        os.makedirs(self.paths["checkpoints"], exist_ok=True)
        TR.save_checkpoint(TR.TrainState(params=params, stage="cpt", seed=self.seed),
                           os.path.join(self.paths["checkpoints"], "cpt.ckpt"))
        self.expected_tensors = {
            s: (self._shapes(params),
                self._shapes(M.attach_lora(params, M.LoraConfig(**STAGES[s]["lora"]),
                                           np.random.default_rng(0))))
            for s in self.stages}


class Generate(Workload):
    name = "generate"

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.params = M.init_params(self.model_config, rng)
        self.adapter = M.attach_lora(self.params, M.LoraConfig(**GENERATE_LORA), rng)
        items = []
        with open(self._data("mcq.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    obj = json.loads(line)
                    items.append(E.McqItem(question=obj["question"], options=obj["options"],
                                           gold=frozenset(obj["gold"])))
        # rendered as `medlm eval mcq` and `medlm eval dialogue` render them
        spec = E.FewShotSpec(exemplars=[(E.render_mcq_question(it), "".join(sorted(it.gold)))
                                        for it in items[:FEW_SHOT_K]])
        max_prompt = MODEL["max_seq_len"] - MCQ_NEW_TOKENS - 1
        requests = []
        for it in items:
            prompt = E.build_few_shot_prompt(spec, E.render_mcq_question(it), max_prompt)
            requests += [("mcq", it, prompt, MCQ_NEW_TOKENS)] * MCQ_REPEATS
        with open(self._data("dialogue_eval.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    obj = json.loads(line)
                    requests.append(("dialogue", obj["reference"],
                                     D.render_bare_prompt(obj["prompt"]), DIALOGUE_NEW_TOKENS))
        order = rng.permutation(len(requests))
        self.requests = [(kind, target, [M.BOS] + M.encode(self.vocab, prompt), n)
                         for kind, target, prompt, n in (requests[i] for i in order)]
        self.tokens = sum(r[3] for r in self.requests)

    def iterate(self):
        it = Iteration()
        outs = []
        for kind, target, ids, n in self.requests:
            it.attempted += 1
            t0 = time.perf_counter()
            try:
                out = M.generate_greedy(self.params, self.adapter, ids, n, stop_id=-1)
            except Exception:
                traceback.print_exc()
                out = None
            it.latencies.append(time.perf_counter() - t0)
            outs.append(out)
        it.outputs = outs
        it.tokens = self.tokens
        it.scores = self._score(outs)
        return it

    def _score(self, outs):
        mcq, dialogue = [], []
        for (kind, target, _, _), out in zip(self.requests, outs):
            text = M.decode_text(self.vocab, out or [])
            if kind == "mcq":
                mcq.append(E.McqItem(question=target.question, options=target.options,
                                     gold=target.gold, generated=text))
            else:
                dialogue.append((text, target))
        scores = [E.accuracy(mcq), E.weighted_f1(mcq)]
        for cand, ref in dialogue:
            scores += [E.bleu_n(cand, ref, 1), E.bleu_n(cand, ref, 4),
                       E.rouge_n(cand, ref, 1), E.rouge_n(cand, ref, 2), E.rouge_l(cand, ref)]
        return scores

    def check(self, it):
        """Fixed length; the first iteration's tokens are each the argmax of
        one full forward over prompt + output, later iterations repeat them."""
        for i, ((kind, _, ids, n), out) in enumerate(zip(self.requests, it.outputs)):
            if out is None or len(out) != n:
                ok = False
            elif self.first is None:
                ok = self._argmax_matches(ids, out)
            else:
                ok = out == self.first.outputs[i]
            it.same_as_first &= ok
            if not ok:
                _report(f"{kind} request {i}: output {out}")
            it.failed += not ok
        if not all(0.0 <= s <= 1.0 for s in it.scores):
            _report(f"score outside [0, 1]: {it.scores}")
            it.failed += 1
        if self.first is None:
            self.first = it

    def _argmax_matches(self, ids, out):
        with T.no_grad():
            logits = M.forward_logits(self.params, self.adapter, ids + out[:-1]).data
        rows = logits[len(ids) - 1:]
        return all(rows[j, tok] >= rows[j].max() - TIE_TOLERANCE for j, tok in enumerate(out))


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, Generate)}
