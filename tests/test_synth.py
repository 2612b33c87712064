import json
from pathlib import Path

import pytest

from medlm import cli
from medlm import data as D
from medlm import evalkit as E
from medlm import model as M
from medlm import synth

SYNTHETIC_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic.json"


def test_build_corpus_is_deterministic():
    a = synth.build_corpus(n_diseases=6, seed=3)
    b = synth.build_corpus(n_diseases=6, seed=3)
    assert a == b and set(a) == {"cpt", "sft", "dpo", "mcq", "dialogue"}


@pytest.mark.parametrize("n", range(2, 21))  # DataConfig's n_diseases range
def test_build_corpus_at_every_disease_count(n):
    cli.DataConfig(n_diseases=n)
    pairs = synth.build_corpus(n_diseases=n, seed=0)["dpo"]
    assert len(pairs) == n and all(p.preferred != p.rejected for p in pairs)


def test_disease_names_are_distinct():
    diseases = synth.make_diseases(20)
    assert len({d.name for d in diseases}) == 20


def test_duplicate_docs_give_dedup_work():
    docs = synth.build_corpus(n_diseases=4, seed=0, duplicate_docs=3)["cpt"]
    assert len(docs) != len(set(docs))
    kept, report = D.dedup_corpus(docs, min_span=20)
    assert report  # dedup removed something


def _strings(value):
    """Every string leaf of a parsed JSON value."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, (list, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _strings(v)


def test_vocab_covers_every_surface(tmp_path):
    cfg = json.loads(SYNTHETIC_CONFIG.read_text("utf-8"))
    cfg["seed"], cfg["data"]["n_diseases"] = 1, 8
    cfg["paths"] = {k: str(tmp_path / k) for k in ("data", "checkpoints", "reports")}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["--config", str(path), "data", "build"]) == 0
    data = tmp_path / "data"
    vocab = M.load_vocab(data / "vocab.txt")
    for name in ("cpt", "sft", "dpo", "mcq", "dialogue_eval"):
        for line in (data / f"{name}.jsonl").read_text("utf-8").splitlines():
            for text in _strings(json.loads(line)):
                M.encode(vocab, text)
    # and the prompts training and eval render from those files
    sft, _ = D.load_dataset(data / "sft.jsonl", "sft")
    for ex in sft:
        M.encode(vocab, D.render_prompt(ex) + ex.output)
    dpo, _ = D.load_dataset(data / "dpo.jsonl", "dpo")
    for pair in dpo:
        M.encode(vocab, D.render_bare_prompt(pair.prompt) + pair.preferred + pair.rejected)
    items, _ = D.load_dataset(data / "mcq.jsonl", "mcq")  # as `medlm eval mcq` prompts
    for i in range(len(items)):
        M.encode(vocab, E.mcq_prompt(items, i, cfg["eval"]["few_shot_k"]))
    for prompt, _ in D.load_dataset(data / "dialogue_eval.jsonl", "dialogue")[0]:
        M.encode(vocab, D.render_bare_prompt(prompt))


def test_mcq_items_are_consistent():
    items = synth.build_corpus(n_diseases=10, seed=0)["mcq"]
    for item, d in zip(items, synth.make_diseases(10, seed=0), strict=True):
        (gold,) = item.gold
        assert item.options[gold] == d.drug
        assert len(item.options) == 4
        assert len(set(item.options.values())) == 4


def test_dpo_pairs_prefer_the_correct_drug():
    pairs = synth.build_corpus(n_diseases=6, seed=0)["dpo"]
    for pair, d in zip(pairs, synth.make_diseases(6, seed=0), strict=True):
        assert d.drug in pair.preferred
        assert pair.preferred != pair.rejected


def test_exam_format_split_between_stages():
    # exam-formatted text appears in pre-training for the first half of
    # diseases only; SFT covers every disease's exam item
    n = 8
    corpus = synth.build_corpus(n_diseases=n, seed=0, duplicate_docs=0)
    exam_docs = [doc for doc in corpus["cpt"] if "A." in doc]
    assert len(exam_docs) == n // 2
    exam_examples = [ex for ex in corpus["sft"]
                     if " A." in ex.instruction and not ex.history]
    assert len(exam_examples) == n
