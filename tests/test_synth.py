import json
from pathlib import Path

from medlm import cli
from medlm import data as D
from medlm import evalkit as E
from medlm import model as M
from medlm import synth

SYNTHETIC_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic.json"


def test_build_corpus_is_deterministic():
    a = synth.build_corpus(n_diseases=6, seed=3)
    b = synth.build_corpus(n_diseases=6, seed=3)
    assert a["cpt_docs"] == b["cpt_docs"]
    assert a["sft_examples"] == b["sft_examples"]
    assert a["dpo_records"] == b["dpo_records"]
    assert a["mcq_items"] == b["mcq_items"]


def test_disease_names_are_distinct():
    diseases = synth.make_diseases(20)
    assert len({d.name for d in diseases}) == 20


def test_duplicate_docs_give_dedup_work():
    bundle = synth.build_corpus(n_diseases=4, seed=0, duplicate_docs=3)
    docs = bundle["cpt_docs"]
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
        for _, obj in D.read_jsonl(data / f"{name}.jsonl"):
            for text in _strings(obj):
                M.encode(vocab, text)
    # and the prompts training and eval render from those files
    sft, _ = D.load_dataset(data / "sft.jsonl", "sft")
    for ex in sft:
        M.encode(vocab, D.render_prompt(ex) + ex.output)
    dpo, _ = D.load_dataset(data / "dpo.jsonl", "dpo")
    for pair in dpo:
        M.encode(vocab, D.render_bare_prompt(pair.prompt) + pair.preferred + pair.rejected)
    items = cli._load_mcq_items(data / "mcq.jsonl")  # as `medlm eval mcq` builds its prompts
    spec = E.FewShotSpec(exemplars=[(E.render_mcq_question(it), "".join(sorted(it.gold)))
                                    for it in items[: cfg["eval"]["few_shot_k"]]])
    for it in items:
        M.encode(vocab, E.build_few_shot_prompt(spec, E.render_mcq_question(it)))
    for _, obj in D.read_jsonl(data / "dialogue_eval.jsonl"):
        M.encode(vocab, D.render_bare_prompt(obj["prompt"]))


def test_mcq_items_are_consistent():
    bundle = synth.build_corpus(n_diseases=10, seed=0)
    for item, d in zip(bundle["mcq_items"], bundle["diseases"]):
        assert item["gold"] in item["options"]
        assert item["options"][item["gold"]] == d.drug
        assert len(item["options"]) == 4
        assert len(set(item["options"].values())) == 4


def test_dpo_pairs_prefer_the_correct_drug():
    bundle = synth.build_corpus(n_diseases=6, seed=0)
    for rec, d in zip(bundle["dpo_records"], bundle["diseases"]):
        assert d.drug in rec["chosen"]
        assert rec["chosen"] != rec["rejected"]


def test_exam_format_split_between_stages():
    # exam-formatted text appears in pre-training for the first half of
    # diseases only; SFT covers every disease's exam item
    n = 8
    bundle = synth.build_corpus(n_diseases=n, seed=0, duplicate_docs=0)
    exam_docs = [doc for doc in bundle["cpt_docs"] if "A." in doc]
    assert len(exam_docs) == n // 2
    exam_examples = [ex for ex in bundle["sft_examples"]
                     if " A." in ex.instruction and not ex.history]
    assert len(exam_examples) == n
