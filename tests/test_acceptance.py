"""Acceptance suite.

One test per acceptance criterion; each prints a single
"ACCEPTANCE <name>: PASS|FAIL" line before asserting, so the pytest log
doubles as the acceptance report. Expected values marked as oracle-checked
are recomputed by the independent brute-force implementations in
oracles.py rather than copied from this package's code.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

import oracles
from medlm import cli
from medlm import data as D
from medlm import evalkit as E
from medlm import model as M
from medlm import objectives as O
from medlm import tensor as T
from medlm import trainer as TR
from medlm.errors import IntegrityError
from medlm.tensor import backward
from oracles import grad_check

ROOT_CONFIG = str(__import__("pathlib").Path(__file__).parent.parent
                  / "configs" / "synthetic.json")


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def _tiny_setup():
    """A vocab and a float64 table: the criteria below hold the engine to
    float64 finite differences and identities."""
    vocab = M.build_vocab(["abcdefgQ:A:\n？。药"])
    cfg = M.ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=2, n_heads=2,
                        max_seq_len=48)
    params = oracles.float64_table(M.init_params(cfg, np.random.default_rng(42)))
    params.set_requires_grad(True)
    return vocab, params


# -- criterion 1: gradient fidelity ------------------------------------

def test_gradient_fidelity():
    t0 = time.time()
    vocab, params = _tiny_setup()
    tensors = [t for _, t in params.named()]
    results = {}

    block = [0] + M.encode(vocab, "abcdefg？药。abcdef")
    results["cpt"] = grad_check(lambda: O.cpt_loss(params, None, [block]),
                                tensors, step=1e-6, tolerance=1e-5, n_samples=200)
    stack = [block, [0] + M.encode(vocab, "gfedcba。药？abcdef")]
    results["cpt-stack"] = grad_check(lambda: O.cpt_loss(params, None, stack),
                                      tensors, step=1e-6, tolerance=1e-5, n_samples=200)

    ex = D.SftExample(instruction="ab？", output="cd药。")
    results["sft"] = grad_check(
        lambda: O.sft_loss(params, None, [ex], vocab),
        tensors, step=1e-6, tolerance=1e-5, n_samples=200)
    # a ragged batch: three examples of different lengths, two of them equal
    batch = [ex, D.SftExample(instruction="gfedcb？", output="a。"),
             D.SftExample(instruction="ba？", output="dc药。")]
    results["sft-batch"] = grad_check(
        lambda: O.sft_loss(params, None, batch, vocab),
        tensors, step=1e-6, tolerance=1e-5, n_samples=200)

    ref = params.copy()
    ref.set_requires_grad(False)
    ref["head"].data += 0.01  # distinct reference so the margin is nonzero
    pairs = [D.PreferencePair(prompt="ab？", preferred="cd。", rejected="ef。"),
             D.PreferencePair(prompt="fg？", preferred="a药。", rejected="bc。")]
    reference = O.preference_margins(ref, None, pairs, vocab)
    results["dpo"] = grad_check(
        lambda: O.dpo_loss(params, None, 0.1, pairs, vocab, reference)[0],
        tensors, step=1e-6, tolerance=1e-5, n_samples=200)
    # pairs of different lengths, chosen and rejected of unequal length
    ragged = pairs + [D.PreferencePair(prompt="edcba？", preferred="gf。",
                                       rejected="abcd药。")]
    ragged_ref = O.preference_margins(ref, None, ragged, vocab)
    results["dpo-batch"] = grad_check(
        lambda: O.dpo_loss(params, None, 0.1, ragged, vocab, ragged_ref)[0],
        tensors, step=1e-6, tolerance=1e-5, n_samples=200)

    elapsed = time.time() - t0
    worst = {k: len(v["failures"]) for k, v in results.items()}
    ok = all(n <= 2 for n in worst.values()) and elapsed < 120  # >= 99% of 200
    _report("gradient-fidelity", ok,
            f"failures per loss {worst}, "
            f"max_rel {max(v['max_rel_err'] for v in results.values()):.2e}, "
            f"{elapsed:.1f}s")


# -- criterion 2: DPO identities ---------------------------------------

def test_dpo_identities():
    vocab, params = _tiny_setup()
    pairs = [D.PreferencePair(prompt="ab？", preferred="cd。", rejected="ef。"),
             D.PreferencePair(prompt="de？", preferred="fg药。", rejected="ab。"),
             D.PreferencePair(prompt="g？", preferred="abc。", rejected="fed。")]

    # (a) policy == reference -> every margin 0 -> loss exactly -log sigmoid(0)
    ref = params.copy()
    ref.set_requires_grad(False)
    reference = O.preference_margins(ref, None, pairs, vocab)
    loss, _ = O.dpo_loss(params, None, 0.17, pairs, vocab, reference)
    ln2_ok = abs(loss.item() - math.log(2)) < 1e-9

    # (b) implicit reward linear in beta
    policy = params.copy()
    policy["embed"].data += 0.02 * np.random.default_rng(3).standard_normal(
        policy["embed"].data.shape)

    def margin(beta):
        return O.dpo_implicit_reward(policy, None, beta, pairs[:1], vocab,
                                     reference[:1]).item()

    m1, m2 = margin(0.05), margin(0.35)
    linear_ok = m1 != 0 and abs(m2 / m1 - 7.0) / 7.0 < 1e-6

    # (c) one small step increases the mean preferred-minus-rejected margin
    trainee = params.copy()
    trainee.set_requires_grad(True)
    before = np.mean(O.preference_margins(trainee, None, pairs, vocab))
    step_loss, _ = O.dpo_loss(trainee, None, 0.17, pairs, vocab, reference)
    backward(step_loss)
    for _, t in trainee.named():
        t.data -= 1e-3 * t.grad
    after = np.mean(O.preference_margins(trainee, None, pairs, vocab))
    step_ok = after > before

    ok = ln2_ok and linear_ok and step_ok
    _report("dpo-identities", ok,
            f"ln2 err {abs(loss.item() - math.log(2)):.1e}, "
            f"beta ratio rel {abs(m2 / m1 - 7.0) / 7.0:.1e}, "
            f"margin {before:.4f}->{after:.4f}")


# -- criterion 3: SFT masking ------------------------------------------

def test_sft_masking():
    vocab, params = _tiny_setup()
    rng = np.random.default_rng(0)
    max_delta = 0.0
    for _ in range(10):
        n_i = int(rng.integers(1, 6))
        n_o = int(rng.integers(1, 6))
        chars = "abcdefg"
        ex = D.SftExample(
            instruction="".join(rng.choice(list(chars), n_i)) + "？",
            output="".join(rng.choice(list(chars), n_o)) + "。")
        ids, weights = O.sft_tokens(ex, vocab)
        targets = ids[1:]
        scrambled = [
            (t if w else int(rng.integers(len(vocab)))) for t, w in zip(targets, weights)
        ]
        a = O.sft_loss(params, None, [ex], vocab).item()
        b = O.sft_loss(params, None, [ex], vocab,
                       target_override=scrambled).item()
        max_delta = max(max_delta, abs(a - b))
    _report("sft-masking", max_delta == 0.0, f"max |delta loss| = {max_delta!r}")


# -- criterion 4: LoRA -------------------------------------------------

def test_lora_identity_and_merge():
    vocab, params = _tiny_setup()
    tokens = [0] + M.encode(vocab, "abcdefg？")
    base = M.forward_logits(params, None, tokens).data

    adapter = M.attach_lora(params, M.LoraConfig(dropout=0.0),
                            np.random.default_rng(5))
    zero_init = M.forward_logits(params, adapter, tokens).data
    bit_identical = np.array_equal(base, zero_init)

    rng = np.random.default_rng(6)
    for _, t in adapter.named():
        t.data[...] = 0.03 * rng.standard_normal(t.data.shape)
    with_adapter = M.forward_logits(params, adapter, tokens).data
    merged = M.merge_lora(params, adapter)
    folded = M.forward_logits(merged, None, tokens).data
    max_diff = float(np.max(np.abs(with_adapter - folded)))

    ok = bit_identical and max_diff < 1e-10
    _report("lora", ok,
            f"zero-init bit-identical={bit_identical}, merge max |dlogit| {max_diff:.1e}")


# -- criterion 5: metric oracles ---------------------------------------

def test_metric_oracles():
    rng = np.random.default_rng(0)
    alphabet = list("abc感冒药热")
    worst = 0.0
    for _ in range(200):
        cand = "".join(rng.choice(alphabet, rng.integers(1, 18)))
        ref = "".join(rng.choice(alphabet, rng.integers(1, 18)))
        for n in (1, 2, 3, 4):
            worst = max(worst, abs(E.bleu_n(cand, ref, n)
                                   - oracles.bleu_bf(cand, ref, n)))
        for n in (1, 2):
            worst = max(worst, abs(E.rouge_n(cand, ref, n)
                                   - oracles.rouge_n_bf(cand, ref, n)))
        worst = max(worst, abs(E.rouge_l(cand, ref)
                               - oracles.rouge_l_bf(cand, ref)))

    for _ in range(200):
        items = []
        for _ in range(rng.integers(2, 10)):
            gold = "".join(sorted(rng.choice(list("ABCD"), rng.integers(1, 3),
                                             replace=False)))
            pred = "".join(rng.choice(list("ABCD"), rng.integers(0, 3),
                                      replace=False))
            items.append(E.McqItem(question="q", options={c: c for c in "ABCD"},
                                   gold=frozenset(gold), generated="、".join(pred)))
        golds = [frozenset(it.gold) for it in items]
        preds = [frozenset(E.extract_choice(it.generated, set(it.options)))
                 for it in items]
        worst = max(worst, abs(E.accuracy(items) - oracles.accuracy_bf(golds, preds)))
        worst = max(worst, abs(E.weighted_f1(items)
                               - oracles.weighted_f1_bf(golds, preds)))

    # worked examples ([DERIVED]; confirmed by the brute-force oracles)
    worked = (
        abs(E.bleu_n("感冒吃药", "感冒服药", 1) - 0.75) < 1e-12
        and abs(E.rouge_l("感冒吃药", "感冒服药") - 0.75) < 1e-12
        and abs(E.weighted_f1([
            E.McqItem(question="q", options={c: c for c in "AB"},
                      gold=frozenset("A"), generated="A"),
            E.McqItem(question="q", options={c: c for c in "AB"},
                      gold=frozenset("A"), generated="B"),
            E.McqItem(question="q", options={c: c for c in "AB"},
                      gold=frozenset("B"), generated="B"),
        ]) - 2 / 3) < 1e-12
    )
    ok = worst <= 1e-9 and worked
    _report("metric-oracles", ok, f"max |delta| {worst:.1e}, worked examples {worked}")


# -- criterion 6: dedup oracle -----------------------------------------

def test_dedup_oracle():
    rng = np.random.default_rng(0)
    ok = True
    detail = ""
    for case in range(50):
        min_span = int(rng.integers(4, 9))
        n_docs = int(rng.integers(2, 6))
        small = case < 45  # all-pairs scan on the small cases
        size_hi = 90 if small else 5000
        docs = ["".join(rng.choice(list("abcd"), rng.integers(min_span, size_hi)))
                for _ in range(n_docs)]
        if rng.random() < 0.7:
            docs.append(docs[0])  # guarantee some duplication work
        kept, _ = D.dedup_corpus(docs, min_span)
        checker = (oracles.duplicate_spans_exist_allpairs if small
                   else oracles.duplicate_spans_exist)
        if checker(kept, min_span):
            ok, detail = False, f"case {case}: residual duplicate span"
            break
        again, report = D.dedup_corpus(kept, min_span)
        if again != kept or report:
            ok, detail = False, f"case {case}: not idempotent"
            break
    _report("dedup-oracle", ok, detail or "50 corpora clean + idempotent")


# -- criteria 7-8: end-to-end trend and determinism --------------------

def _patched_config(tmp_path, name, overrides=None):
    with open(ROOT_CONFIG, encoding="utf-8") as fh:
        raw = json.load(fh)
    base = tmp_path / name
    raw["paths"] = {"data": str(base / "data"),
                    "checkpoints": str(base / "ckpt"),
                    "reports": str(base / "reports")}
    for stage, kv in (overrides or {}).items():
        raw["stages"][stage].update(kv)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path, base


def _run_pipeline(config_path):
    for args in (["data", "build"], ["train", "cpt"], ["train", "sft"],
                 ["train", "dpo"]):
        rc = cli.main(["--config", str(config_path)] + args)
        assert rc == 0, f"{args} failed"


def pytest_generate_tests(metafunc):
    """Opt-in seed sweep: QILIN_SEEDS="0-9" (or one seed, "3") runs the e2e
    pipeline once per seed, each seed passed to the CLI as QILIN_SEED."""
    seeds = os.environ.get("QILIN_SEEDS")
    if seeds and "pipeline" in metafunc.fixturenames:
        lo, _, hi = seeds.partition("-")
        metafunc.parametrize("pipeline", range(int(lo), int(hi or lo) + 1),
                             indirect=True, scope="module")


@pytest.fixture(scope="module")
def pipeline(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    config_path, base = _patched_config(tmp, "main")
    with pytest.MonkeyPatch.context() as mp:
        if hasattr(request, "param"):
            mp.setenv("QILIN_SEED", str(request.param))
        t0 = time.time()
        _run_pipeline(config_path)
        elapsed = time.time() - t0
        cfg, _ = cli.validate_config(config_path)
    return {"cfg": cfg, "base": base, "train_seconds": elapsed,
            "config_path": config_path}


def test_end_to_end_ordinal_trend(pipeline):
    t0 = time.time()
    cfg = pipeline["cfg"]
    base = pipeline["base"]
    vocab = M.load_vocab(base / "data" / "vocab.txt")
    cpt_state = TR.load_checkpoint(base / "ckpt" / "cpt.ckpt")
    sft_state = TR.load_checkpoint(base / "ckpt" / "sft.ckpt")
    dpo_state = TR.load_checkpoint(base / "ckpt" / "dpo.ckpt")

    n_params = cpt_state.params.n_params()
    assert n_params <= 1_000_000, f"model too large: {n_params}"

    # (a) CPT cuts held-out perplexity vs the random init by >= 30%
    _, holdout = cli._split_blocks(cfg, vocab)
    model_cfg = dataclasses.replace(cfg.model, vocab_size=len(vocab))
    random_params = M.init_params(model_cfg, np.random.default_rng(cfg.seed))
    ppl_random = E.perplexity(random_params, None, holdout)
    ppl_cpt = E.perplexity(cpt_state.params, cpt_state.adapter, holdout)
    ppl_ok = ppl_cpt <= 0.7 * ppl_random

    # (b) SFT memorization + MCQ gain over the CPT checkpoint
    sft_examples, _ = D.load_dataset(base / "data" / "sft.jsonl", "sft")
    hits = 0
    for ex in sft_examples:
        prompt_ids = [M.BOS] + M.encode(vocab, D.render_prompt(ex))
        out = M.generate_greedy(sft_state.params, sft_state.adapter, prompt_ids,
                                len(ex.output) + 8)
        if M.decode_text(vocab, out) == ex.output:
            hits += 1
    em = hits / len(sft_examples)

    items, _ = D.load_dataset(base / "data" / "mcq.jsonl", "mcq")

    def mcq_acc(state):  # the prompts of `medlm eval mcq`
        scored = [E.McqItem(question=it.question, options=it.options, gold=it.gold)
                  for it in items]
        return E.evaluate_mcq(state, vocab, scored, cfg.eval.few_shot_k,
                              max_new_tokens=4).accuracy

    acc_cpt = mcq_acc(cpt_state)
    acc_sft = mcq_acc(sft_state)
    sft_ok = em >= 0.90 and acc_sft > acc_cpt

    # (c) DPO preference rate >= 95% and >= the SFT checkpoint's rate
    pairs, _ = D.load_dataset(base / "data" / "dpo.jsonl", "dpo")

    def pref_rate(state):
        margins = O.preference_margins(state.params, state.adapter, pairs, vocab)
        return float(np.mean([m > 0 for m in margins]))

    rate_sft = pref_rate(sft_state)
    rate_dpo = pref_rate(dpo_state)
    dpo_ok = rate_dpo >= 0.95 and rate_dpo >= rate_sft

    # reported, not a criterion: what DPO keeps of SFT's dialogue answers,
    # on the prompts of `medlm eval dialogue`
    dialogue, _ = D.load_dataset(base / "data" / "dialogue_eval.jsonl", "dialogue")
    rendered = [(D.render_bare_prompt(p), r) for p, r in dialogue]
    reports = [E.evaluate_dialogue(state, vocab, rendered, cfg.eval.max_new_tokens)
               for state in (sft_state, dpo_state)]

    total = pipeline["train_seconds"] + (time.time() - t0)
    time_ok = total < 15 * 60
    ok = ppl_ok and sft_ok and dpo_ok and time_ok
    _report("end-to-end-trend", ok,
            f"ppl {ppl_random:.1f}->{ppl_cpt:.1f}, sft EM {em:.2f}, "
            f"mcq cpt {acc_cpt:.2f} vs sft {acc_sft:.2f}, "
            f"pref sft {rate_sft:.2f} vs dpo {rate_dpo:.2f}, "
            f"dialogue BLEU-1 sft {100 * reports[0].bleu1:.1f} vs dpo "
            f"{100 * reports[1].bleu1:.1f}, ROUGE-1 sft {100 * reports[0].rouge1:.1f} vs dpo "
            f"{100 * reports[1].rouge1:.1f}, {n_params} params, {total:.0f}s")


def test_decoder_matches_forward(pipeline):
    """On the CPT, SFT and DPO checkpoints, the decoder's logits at each step
    of every dialogue prompt's greedy continuation agree with the graph
    forward over the same tokens within 1024 eps32 of the row's largest
    logit (the bound ``tests/test_model.py::TestDecodePlan`` holds random
    float32 tables to): the forward on the float32 tables, and on float64
    copies of them, which holds the decoder to the exact logits rather than
    to another float32 computation."""
    base = pipeline["base"]
    vocab = M.load_vocab(base / "data" / "vocab.txt")
    dialogue, _ = D.load_dataset(base / "data" / "dialogue_eval.jsonl", "dialogue")
    prompts = [[M.BOS] + M.encode(vocab, D.render_bare_prompt(p)) for p, _ in dialogue]
    worst = {}  # stage -> largest error against the float32 and the float64 forward
    for stage in ("cpt", "sft", "dpo"):
        state = TR.load_checkpoint(base / "ckpt" / f"{stage}.ckpt")
        config = state.params.config
        tables = (state.params, state.adapter)
        tables64 = tuple(None if t is None else oracles.float64_table(t) for t in tables)
        plan = M.decode_plan(*tables)
        worst[stage] = [0.0, 0.0]
        for ids in prompts:
            out = M.generate_greedy(*tables, ids, pipeline["cfg"].eval.max_new_tokens)
            tokens = ids + out[:-1]
            assert len(tokens) <= config.max_seq_len  # one cache, no sliding window
            cache = []
            got = [M.decode_logits(config, plan, cache, ids)]
            got += [M.decode_logits(config, plan, cache, [t]) for t in out[:-1]]
            for k, forward_tables in enumerate((tables, tables64)):
                with T.no_grad():
                    want = M.forward_logits(*forward_tables, tokens).data[len(ids) - 1:]
                rel = np.abs(np.stack(got) - want) / np.abs(want).max(axis=-1, keepdims=True)
                worst[stage][k] = max(worst[stage][k], float(rel.max()))
    ok = max(max(w) for w in worst.values()) <= 1024 * np.finfo(np.float32).eps
    _report("decoder-matches-forward", ok,
            "largest |decode - forward| / row max, float32 forward | float64 forward: "
            + ", ".join(f"{stage} {r32:.1e} | {r64:.1e}" for stage, (r32, r64) in worst.items()))


def test_determinism(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("determinism")
    overrides = {"cpt": {"epochs": 4}, "sft": {"epochs": 4}, "dpo": {"epochs": 2}}
    cfg_a, base_a = _patched_config(tmp, "a", overrides)
    cfg_b, base_b = _patched_config(tmp, "b", overrides)
    _run_pipeline(cfg_a)
    _run_pipeline(cfg_b)
    for cfg_path, base in ((cfg_a, base_a), (cfg_b, base_b)):
        ckpt = str(base / "ckpt" / "sft.ckpt")
        assert cli.main(["--config", str(cfg_path), "eval", "mcq",
                         "--checkpoint", ckpt]) == 0

    mismatches = []
    for rel in ("ckpt/cpt.ckpt", "ckpt/sft.ckpt", "ckpt/dpo.ckpt",
                "reports/cpt_metrics.csv", "reports/sft_metrics.csv",
                "reports/dpo_metrics.csv", "reports/mcq_report.json",
                "reports/mcq_items.jsonl"):
        if (base_a / rel).read_bytes() != (base_b / rel).read_bytes():
            mismatches.append(rel)
    _report("determinism", not mismatches,
            f"mismatched files: {mismatches}" if mismatches
            else "checkpoints, metrics and reports bit-identical")


def test_determinism_across_blas_threads(tmp_path):
    # A multi-threaded BLAS splits a matmul's sums differently, so without
    # the package's one-thread pin the checkpoint bits depend on the
    # machine's thread count.
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).parents[1])
    ckpts = []
    for threads in ("1", "2"):
        cfg_path, base = _patched_config(tmp_path, f"threads{threads}",
                                         {"cpt": {"epochs": 2}})
        env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": threads}
        for args in (["data", "build"], ["train", "cpt"]):
            out = subprocess.run([sys.executable, "-m", "medlm.cli", "--config",
                                  str(cfg_path)] + args,
                                 env=env, capture_output=True, text=True)
            assert out.returncode == 0, f"{args}: {out.stderr}"
        ckpts.append((base / "ckpt" / "cpt.ckpt").read_bytes())
    _report("determinism-threads", ckpts[0] == ckpts[1],
            "cpt.ckpt with 1 and 2 BLAS threads "
            + ("bit-identical" if ckpts[0] == ckpts[1] else "differs"))


def test_determinism_across_core_counts(tmp_path):
    # CPT always splits a batch into the same two halves and trains them on
    # two threads, so the bits must not depend on how many cores the run
    # may use. The pinned run sets its own affinity after the fork, in the
    # test's child process alone.
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).parents[1])
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": src}

    def one_cpu():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    ckpts = []
    for name, preexec in (("all-cpus", None), ("one-cpu", one_cpu)):
        cfg_path, base = _patched_config(tmp_path, name, {"cpt": {"epochs": 2}})
        for args in (["data", "build"], ["train", "cpt"]):
            out = subprocess.run([sys.executable, "-m", "medlm.cli", "--config",
                                  str(cfg_path)] + args,
                                 env=env, capture_output=True, text=True, preexec_fn=preexec)
            assert out.returncode == 0, f"{args}: {out.stderr}"
        ckpts.append((base / "ckpt" / "cpt.ckpt").read_bytes())
    _report("determinism-cores", ckpts[0] == ckpts[1],
            "cpt.ckpt on all CPUs and on one "
            + ("bit-identical" if ckpts[0] == ckpts[1] else "differs"))


# -- criterion 9: checkpoint round-trip --------------------------------

def test_checkpoint_roundtrip(tmp_path):
    vocab, params = _tiny_setup()
    adapter = M.attach_lora(params, M.LoraConfig(dropout=0.0),
                            np.random.default_rng(8))
    state = TR.TrainState(params=params, adapter=adapter, stage="sft", step=3)
    block = [0] + M.encode(vocab, "abcdef药。")
    before = O.cpt_loss(params, adapter, [block]).item()

    path = tmp_path / "model.ckpt"
    TR.save_checkpoint(state, path)
    loaded = TR.load_checkpoint(path)
    after = O.cpt_loss(loaded.params, loaded.adapter, [block]).item()
    roundtrip_ok = before == after

    rejected = 0
    blob = bytearray(path.read_bytes())
    corruptions = [
        blob[:2] + b"XX" + blob[4:],        # bad magic
        blob[:4] + b"\x09\x00\x00\x00" + blob[8:],  # bad version
        blob[: len(blob) - 9],              # truncated payload
        blob + b"\x00" * 7,                 # trailing garbage
    ]
    for i, bad in enumerate(corruptions):
        bad_path = tmp_path / f"bad{i}.ckpt"
        bad_path.write_bytes(bytes(bad))
        try:
            TR.load_checkpoint(bad_path)
        except IntegrityError:
            rejected += 1
    ok = roundtrip_ok and rejected == len(corruptions)
    _report("checkpoint-roundtrip", ok,
            f"loss bit-identical={roundtrip_ok}, "
            f"{rejected}/{len(corruptions)} corruptions rejected")
