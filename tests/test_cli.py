import dataclasses
import hashlib
import json
import os
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

from medlm import cli
from medlm import data as D
from medlm import evalkit as E
from medlm import model as M
from medlm import synth
from medlm import trainer as TR
from medlm.errors import ConfigError

SYNTHETIC_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic.json"


def _write_config(tmp_path, **overrides):
    cfg = {
        "seed": 0,
        "paths": {
            "data": str(tmp_path / "data"),
            "checkpoints": str(tmp_path / "ckpt"),
            "reports": str(tmp_path / "reports"),
        },
        "model": {"d_model": 16, "n_layers": 1, "n_heads": 2, "max_seq_len": 160},
        "data": {"n_diseases": 4, "min_span": 20, "block_size": 32,
                 "holdout_fraction": 0.2, "duplicate_docs": 1},
        "stages": {
            "cpt": {"learning_rate": 0.01, "epochs": 1, "batch_size": 4},
            "sft": {"learning_rate": 0.01, "epochs": 1, "batch_size": 4,
                    "lora": {"rank": 2, "alpha": 4, "dropout": 0.0}},
            "dpo": {"learning_rate": 0.01, "epochs": 1, "batch_size": 4,
                    "beta": 0.1, "lora": {"rank": 2, "alpha": 4, "dropout": 0.0}},
        },
        "eval": {"few_shot_k": 1, "max_new_tokens": 8},
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestValidateConfig:
    def test_valid_config(self, tmp_path):
        path = _write_config(tmp_path)
        cfg, warnings = cli.validate_config(path)
        assert cfg.seed == 0 and warnings == []
        assert cfg.stages["cpt"].epochs == 1
        assert cfg.stages["dpo"].lora.rank == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            cli.validate_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            cli.validate_config(path)

    def test_config_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="invalid JSON"):
            cli.validate_config(path)

    def test_all_violations_reported_together(self, tmp_path):
        path = _write_config(tmp_path,
                             model={"d_model": 15, "n_heads": 2, "max_seq_len": 1},
                             data={"min_span": 1})
        with pytest.raises(ConfigError) as exc:
            cli.validate_config(path)
        msg = str(exc.value)
        assert "d_model" in msg and "max_seq_len" in msg and "min_span" in msg

    def test_unknown_keys_warn_but_pass(self, tmp_path):
        path = _write_config(tmp_path, mystery=1)
        _, warnings = cli.validate_config(path)
        assert any("mystery" in w for w in warnings)

    def test_qilin_seed_env_override(self, tmp_path, monkeypatch):
        path = _write_config(tmp_path)
        monkeypatch.setenv("QILIN_SEED", "123")
        cfg, _ = cli.validate_config(path)
        assert cfg.seed == 123

    def test_qilin_seed_must_be_integer(self, tmp_path, monkeypatch):
        path = _write_config(tmp_path)
        monkeypatch.setenv("QILIN_SEED", "abc")
        with pytest.raises(ConfigError, match="QILIN_SEED"):
            cli.validate_config(path)

    def test_qilin_seed_must_not_be_negative(self, tmp_path, monkeypatch, capsys):
        # numpy's generators take no negative seed: a traceback in data build
        path = _write_config(tmp_path)
        monkeypatch.setenv("QILIN_SEED", "-3")
        assert cli.main(["--config", str(path), "validate-config"]) == 1
        # once: the stages that inherit the seed do not report it again
        assert capsys.readouterr().err == "error: seed: must be an integer in [0, inf), got -3\n"

    def test_unknown_section_keys_warn(self, tmp_path):
        path = _write_config(tmp_path)
        raw = json.loads(path.read_text("utf-8"))
        for section in ("data", "eval", "paths"):
            raw[section]["mystery"] = 1
        path.write_text(json.dumps(raw), encoding="utf-8")
        _, warnings = cli.validate_config(path)
        assert sorted(warnings) == [f"{s}: unknown key 'mystery'"
                                    for s in ("data", "eval", "paths")]

    def test_explicit_stage_seed_zero_is_kept(self, tmp_path):
        path = _write_config(tmp_path, seed=5)
        raw = json.loads(path.read_text("utf-8"))
        raw["stages"]["sft"]["seed"] = 0
        path.write_text(json.dumps(raw), encoding="utf-8")
        cfg, _ = cli.validate_config(path)
        assert (cfg.stages["cpt"].seed, cfg.stages["sft"].seed) == (5, 0)

    def test_synthetic_config_has_no_warnings(self):
        _, warnings = cli.validate_config(SYNTHETIC_CONFIG)
        assert warnings == []

    def test_every_accepted_stage_key_is_a_stage_config_field(self, tmp_path):
        # a stage key accepted without a warning must land in its StageConfig
        # field, so no JSON knob goes unread; the deleted ones are unknown
        path = _write_config(tmp_path)
        raw = json.loads(path.read_text("utf-8"))
        given = {"learning_rate": 0.5, "warmup_ratio": 0.5, "weight_decay": 0.5,
                 "epochs": 7, "batch_size": 7, "beta": 0.5, "seed": 7,
                 "lora": {"rank": 7, "alpha": 7.0, "dropout": 0.0}}
        # deleted keys, and the adapter and beta that cpt and sft do not read
        dead = ["block_size", "max_source_length", "max_target_length", "stage",
                "lora", "beta"]
        raw["stages"]["dpo"] = given
        raw["stages"]["cpt"] = {key: 8 for key in dead}
        raw["stages"]["sft"]["beta"] = 0.5
        path.write_text(json.dumps(raw), encoding="utf-8")
        cfg, warnings = cli.validate_config(path)
        assert set(given) == cli.STAGE_KEYS
        assert sorted(warnings) == sorted([f"stages.cpt: unknown key {k!r}" for k in dead]
                                          + ["stages.sft: unknown key 'beta'"])
        assert cfg.stages["cpt"].lora is None
        assert cfg.stages["cpt"].stage == "cpt"
        dpo = dataclasses.asdict(cfg.stages["dpo"])
        assert {key: dpo[key] for key in given} == dict(
            given, lora=dict(given["lora"], targets=M.LoraConfig().targets))

    def test_left_out_lora_dropout_trains_as_the_shipped_zero(self, tmp_path):
        # every shipped config sets lora.dropout to 0; leaving it out must
        # train the same adapter bits, not a model no gate has checked
        path = _write_config(tmp_path)
        raw = json.loads(path.read_text("utf-8"))
        stages = [cli.validate_config(path)[0].stages["sft"]]
        del raw["stages"]["sft"]["lora"]["dropout"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        stages.append(cli.validate_config(path)[0].stages["sft"])
        assert stages[1].lora.dropout == 0.0
        vocab = M.build_vocab(["abcdQ:A:\n？。"])
        params = M.init_params(M.ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=1,
                                             n_heads=2, max_seq_len=16), np.random.default_rng(9))
        examples = [D.SftExample(instruction="ab" * i + "？", output="cd。"[:i])
                    for i in range(1, 4)]
        adapters = [TR.run_stage(TR.TrainState(params=params, seed=0),
                                 dataclasses.replace(stage, epochs=2, batch_size=2),
                                 examples, vocab=vocab)[0].adapter.data.tobytes()
                    for stage in stages]
        assert adapters[0] == adapters[1]


BAD_CONFIGS = [
    (("seed",), -1, "seed: must be an integer in [0, inf), got -1"),
    (("stages", "sft", "seed"), -1, "stages.sft: seed must be in [0, inf), got -1"),
    (("model", "rope"), 1, "model: unknown key 'rope'"),
    (("model", "dropout"), 1.0, "model: unknown key 'dropout'"),
    (("model", "dropout"), -0.1, "model: unknown key 'dropout'"),
    (("eval", "few_shot_k"), "x", "eval: few_shot_k must be an integer"),
    (("eval", "few_shot_k"), 4, "eval.few_shot_k: must be below data.n_diseases"),
    (("data", "holdout_fraction"), 2.0, "data: holdout_fraction must be in [0, 1)"),
    (("data", "block_size"), 1, "data: block_size must be in [2, inf)"),
    (("data", "block_size"), 162, "data.block_size: a CPT block must fit"),
    (("data", "n_diseases"), 21, "data: n_diseases must be in [2, 20]"),
    (("data", "n_diseases"), 1, "data: n_diseases must be in [2, 20]"),
    (("stages", "sft", "lora", "rank"), 0, "stages.sft.lora: rank must be in [1, inf)"),
    (("stages", "sft", "lora", "dropout"), 1.5, "stages.sft.lora: dropout must be in [0, 0]"),
    (("stages", "sft", "lora", "dropout"), 0.05, "stages.sft.lora: dropout must be in [0, 0]"),
    (("stages", "sft", "lora", "alpha"), float("nan"), "stages.sft.lora: alpha must be in (0, inf)"),
    (("stages", "sft", "lora", "alpha"), float("inf"), "stages.sft.lora: alpha must be in (0, inf)"),
    (("stages", "dpo", "lora", "alpha"), 0, "stages.dpo.lora: alpha must be in (0, inf)"),
    (("stages", "dpo", "lora", "targets"), ["wk"], "stages.dpo.lora: unknown key 'targets'"),
    (("stages", "dpo", "beta"), 0, "stages.dpo: beta must be in (0, inf)"),
    (("stages", "cpt", "batch_size"), 0, "stages.cpt: batch_size must be in [1, inf)"),
    (("stages", "cpt", "epochs"), 1.5, "stages.cpt: epochs must be an integer"),
    (("stages", "sft"), 3, "stages.sft: must be an object"),
    (("paths", "data"), 7, "paths: data must be a string"),
]


@pytest.mark.parametrize("keys,value,message", BAD_CONFIGS,
                         ids=[".".join(k) + "=" + json.dumps(v) for k, v, _ in BAD_CONFIGS])
def test_bad_config_fails_validation(tmp_path, capsys, keys, value, message):
    path = _write_config(tmp_path)
    raw = json.loads(path.read_text("utf-8"))
    node = raw
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["--config", str(path), "validate-config"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] \
        == [err.splitlines()[-1]]
    assert message in err and "Traceback" not in err


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        path = _write_config(tmp_path)
        assert cli.main(["--config", str(path), "validate-config"]) == 0

    def test_config_failure_is_one(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.json"),
                         "validate-config"]) == 1

    def test_usage_error_is_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2

    def test_bad_stage_is_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "rl"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("max_new", ["0", "-3", "x"])
    def test_max_new_below_one_is_two(self, capsys, max_new):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--checkpoint", "x.ckpt", "--prompt", "一",
                      "--max-new", max_new])
        assert exc.value.code == 2
        assert "--max-new" in capsys.readouterr().err


class TestDataCommands:
    def test_build_writes_all_artifacts(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        assert cli.main(["--config", str(path), "data", "build"]) == 0
        data_dir = tmp_path / "data"
        for name in ("cpt.jsonl", "sft.jsonl", "dpo.jsonl", "mcq.jsonl",
                     "dialogue_eval.jsonl", "vocab.txt", "stats.txt"):
            assert (data_dir / name).exists(), name
        out = capsys.readouterr().out
        assert "Dataset" in out and "cpt" in out

    def test_mcq_schema(self, tmp_path):
        path = _write_config(tmp_path)
        cli.main(["--config", str(path), "data", "build"])
        lines = (tmp_path / "data" / "mcq.jsonl").read_text("utf-8").splitlines()
        first = json.loads(lines[0])
        assert set(first) == {"question", "options", "gold", "generated"}
        assert first["gold"] in first["options"]

    def test_dpo_schema(self, tmp_path):
        path = _write_config(tmp_path)
        cli.main(["--config", str(path), "data", "build"])
        lines = (tmp_path / "data" / "dpo.jsonl").read_text("utf-8").splitlines()
        first = json.loads(lines[0])
        assert set(first) == {"prompt", "chosen", "rejected"}

    def test_build_fails_on_a_rejected_record(self, tmp_path, capsys, monkeypatch):
        # an empty stock reply makes every odd pair's rejected text empty
        monkeypatch.setattr(synth, "REJECT_STOCK", "")
        path = _write_config(tmp_path)
        assert cli.main(["--config", str(path), "data", "build"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "PreferencePair" in err
        assert "Traceback" not in err
        assert not (tmp_path / "data").exists()

    def test_build_at_thirteen_diseases(self, tmp_path):
        # disease 12 shares disease 0's drug, the first repeat of synth's 12 drugs
        path = _write_config(tmp_path, data={"n_diseases": 13, "min_span": 20, "block_size": 32,
                                             "holdout_fraction": 0.2, "duplicate_docs": 1})
        assert cli.main(["--config", str(path), "data", "build"]) == 0
        pairs, stats = D.load_dataset(tmp_path / "data" / "dpo.jsonl", "dpo")
        assert len(pairs) == 13 and not stats.rejected

    # sha256 of each file `data build` writes for configs/synthetic.json
    GOLDEN = {
        0: {"cpt.jsonl": "1f8c90be547034c152a4837a1425f7b27a5242bfcf62378b47cdf902f5a59ed9",
            "dialogue_eval.jsonl":
                "3ddc6117c0bd13ffaeec0ce3c77d91363294b24c18d2d9f4617f9547140c6175",
            "dpo.jsonl": "3d29fa916b8a4cccf5335e2026c0b3a3aab019ffe368565e81b3bb6f38ef549e",
            "mcq.jsonl": "ade6c34b1f0bfd7f326c9ce74ad99f9bd1b5663363d22ce648d73330ff8c7cba",
            "sft.jsonl": "cde5d1040ae9594bb9db724d44f6fafc6ae5e4f9ec97e55bef570861fc7c68f4",
            "stats.txt": "ef70b085387bdacdc4de076ee3f0226a5d17922edef6c0c5f6cba54f0da0bb0d",
            "vocab.txt": "4909c097548835afaaa6fbf1d271a58137c85e244b5af85d0cae9dce63479df9"},
        7: {"cpt.jsonl": "dcc08a8716bbf3487e1077e091cb6f690708ff01e36d78ec47836bc63b68a2d3",
            "dialogue_eval.jsonl":
                "b817c6c7348779d45432fb0b9533c76748e601cd2f6ae91391aa7200cabe76b9",
            "dpo.jsonl": "3d29fa916b8a4cccf5335e2026c0b3a3aab019ffe368565e81b3bb6f38ef549e",
            "mcq.jsonl": "ade6c34b1f0bfd7f326c9ce74ad99f9bd1b5663363d22ce648d73330ff8c7cba",
            "sft.jsonl": "a98bf76fabbe467a62cc724829772b6e356adfc64abd18211ff87bae1eb20186",
            "stats.txt": "fbfa5c1f63cbf658a8e90273c98d3956e1456a274a020a208bef90963d80f7dc",
            "vocab.txt": "cb91057fd6c1da6a131ea1c3f7d7db9458694586d2f3934c280c086ceb972379"},
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_build_matches_golden_hashes(self, tmp_path, seed):
        cfg = json.loads(SYNTHETIC_CONFIG.read_text("utf-8"))
        cfg["seed"] = seed
        cfg["paths"] = {k: str(tmp_path / k) for k in ("data", "checkpoints", "reports")}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(path), "data", "build"]) == 0
        data = tmp_path / "data"
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in data.iterdir()}
        assert got == self.GOLDEN[seed]

    def test_every_file_round_trips(self, tmp_path):
        # each file load_dataset reads back is the records synth built for it
        path = _write_config(tmp_path)
        assert cli.main(["--config", str(path), "data", "build"]) == 0
        cfg = cli.validate_config(path)[0]
        corpus = synth.build_corpus(n_diseases=4, seed=0, duplicate_docs=1,
                                    few_shot_k=cfg.eval.few_shot_k)
        corpus["cpt"], _ = D.dedup_corpus(corpus["cpt"], min_span=20)
        paths = cli._data_paths(cfg)
        for kind, records in corpus.items():
            loaded, stats = D.load_dataset(paths[kind], kind)
            assert loaded == records and stats.rejected == [], kind

    def test_dedup_is_idempotent(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        cli.main(["--config", str(path), "data", "build"])
        cpt = tmp_path / "data" / "cpt.jsonl"
        before = cpt.read_text("utf-8")
        assert cli.main(["--config", str(path), "data", "dedup"]) == 0
        assert cpt.read_text("utf-8") == before  # build already deduped

    def test_dedup_reports_skipped_records(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        docs = tmp_path / "docs.jsonl"
        docs.write_text("".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in [
            {"text": "第一段足够长的文本内容"}, {"text": ""}, {"text": 42},
            {"text": "第二段足够长的文本内容"}]), encoding="utf-8")
        assert cli.main(["--config", str(path), "data", "dedup", "--input", str(docs)]) == 0
        out, err = capsys.readouterr()
        assert err == (f"warning: cpt: skipped 2 malformed records (first: {docs}:2: bad record "
                       "(DataError('cpt record: text must be a nonempty string')))\n")
        assert out.startswith("kept 2/4 docs")
        assert len(docs.read_text("utf-8").splitlines()) == 2


    def test_dedup_counts_spans_and_dropped_docs_apart(self, tmp_path, capsys):
        path = _write_config(tmp_path, data={"n_diseases": 4, "min_span": 5})
        docs = tmp_path / "docs.jsonl"
        docs.write_text("".join(json.dumps({"text": t}) + "\n" for t in [
            "abcdefghijklmnop" * 2, "abcdefghijklmnop", "zzzz" + "abcdefghijklmnop"]),
            encoding="utf-8")
        assert cli.main(["--config", str(path), "data", "dedup", "--input", str(docs)]) == 0
        assert capsys.readouterr().out == "kept 1/3 docs, removed 3 spans, dropped 2 docs\n"
        assert docs.read_text("utf-8") == json.dumps({"text": "abcdefghijklmnop"}) + "\n"

    def test_stats_tokens_are_encoded_lengths(self, tmp_path):
        path = _write_config(tmp_path)
        assert cli.main(["--config", str(path), "data", "build"]) == 0
        paths = cli._data_paths(cli.validate_config(path)[0])
        vocab = M.load_vocab(paths["vocab"])
        rows = [line.split() for line in
                Path(paths["stats"]).read_text("utf-8").splitlines()[2:]]
        expected = []
        for kind in ("cpt", "sft", "dpo"):
            records, _ = D.load_dataset(paths[kind], kind)
            expected.append([kind, str(len(records)),
                             str(sum(len(M.encode(vocab, D.record_text(r))) for r in records)),
                             f"{os.path.getsize(paths[kind])}B"])
        assert rows == expected


class TestPipelineCommands:
    @pytest.fixture
    def built(self, tmp_path):
        path = _write_config(tmp_path)
        cli.main(["--config", str(path), "data", "build"])
        return path

    def test_train_eval_generate_flow(self, built, tmp_path, capsys):
        assert cli.main(["--config", str(built), "train", "cpt"]) == 0
        assert (tmp_path / "ckpt" / "cpt.ckpt").exists()
        assert (tmp_path / "reports" / "cpt_metrics.csv").exists()

        assert cli.main(["--config", str(built), "train", "sft"]) == 0
        assert cli.main(["--config", str(built), "train", "dpo"]) == 0
        assert (tmp_path / "ckpt" / "dpo.ckpt").exists()

        ckpt = str(tmp_path / "ckpt" / "sft.ckpt")
        assert cli.main(["--config", str(built), "eval", "mcq",
                         "--checkpoint", ckpt]) == 0
        report = json.loads((tmp_path / "reports" / "mcq_report.json")
                            .read_text("utf-8"))
        assert "accuracy" in report and report["n_items"] == 4

        assert cli.main(["--config", str(built), "eval", "dialogue",
                         "--checkpoint", ckpt]) == 0
        assert (tmp_path / "reports" / "dialogue_report.json").exists()

        capsys.readouterr()
        assert cli.main(["--config", str(built), "generate",
                         "--checkpoint", ckpt,
                         "--prompt", "一号病应该吃什么药？",
                         "--max-new", "8"]) == 0
        out = capsys.readouterr().out
        assert isinstance(out, str)

    def test_train_warns_about_skipped_records(self, built, tmp_path, capsys):
        sft = tmp_path / "data" / "sft.jsonl"
        n_good = len(sft.read_text("utf-8").splitlines())
        with sft.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"instruction": "no output field"}) + "\n")
        assert cli.main(["--config", str(built), "train", "cpt"]) == 0
        capsys.readouterr()
        assert cli.main(["--config", str(built), "train", "sft"]) == 0
        err = capsys.readouterr().err
        assert (f"warning: sft: skipped 1 malformed records (first: {sft}:{n_good + 1}: "
                in err)
        assert (tmp_path / "ckpt" / "sft.ckpt").exists()

    @pytest.mark.parametrize("stage, record", [
        ("sft", {"instruction": "q", "output": 5}),
        ("dpo", {"prompt": "p", "chosen": 7, "rejected": "r"}),
    ], ids=["sft-output-int", "dpo-chosen-int"])
    def test_train_skips_non_string_text(self, built, tmp_path, capsys, stage, record):
        path = tmp_path / "data" / f"{stage}.jsonl"
        n_good = len(path.read_text("utf-8").splitlines())
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        for prev in ("cpt", "sft")[: TR.STAGES.index(stage)]:
            assert cli.main(["--config", str(built), "train", prev]) == 0
        capsys.readouterr()
        assert cli.main(["--config", str(built), "train", stage]) == 0
        err = capsys.readouterr().err
        assert (f"warning: {stage}: skipped 1 malformed records (first: {path}:{n_good + 1}: "
                in err) and "must be a string" in err

    def test_sft_without_cpt_checkpoint_fails_cleanly(self, built):
        assert cli.main(["--config", str(built), "train", "sft"]) == 1

    def test_sft_on_checkpoint_with_bad_header_fails_cleanly(self, built, tmp_path,
                                                              capsys):
        assert cli.main(["--config", str(built), "train", "cpt"]) == 0
        ckpt = tmp_path / "ckpt" / "cpt.ckpt"
        blob = ckpt.read_bytes()
        n = int.from_bytes(blob[8:12], "little")  # then the CRC32, then the header

        def drop_meta(header):
            del header["meta"]

        def rename_head(header):
            next(e for e in header["tensors"] if e["name"] == "head")["name"] = "head2"

        for edit, message in ((drop_meta, "malformed header"),
                              (rename_head, "does not match the model config")):
            header = json.loads(blob[16:16 + n])
            edit(header)
            raw = json.dumps(header).encode("utf-8")
            body = raw + blob[16 + n:]
            ckpt.write_bytes(blob[:8] + len(raw).to_bytes(4, "little")
                             + zlib.crc32(body).to_bytes(4, "little") + body)
            capsys.readouterr()
            assert cli.main(["--config", str(built), "train", "sft"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("blob", [b"QLNMx", b"QLNM\x01\x00\x00\x00\x10"])
    def test_sft_on_short_checkpoint_fails_cleanly(self, built, tmp_path, capsys, blob):
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt" / "cpt.ckpt").write_bytes(blob)
        capsys.readouterr()
        assert cli.main(["--config", str(built), "train", "sft"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"truncated header at offset {len(blob)}" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("name, content, command, message", [
        ("mcq.jsonl", b'{"question": "q", "options": {"A": "a", "B": "b"}, "gold": "A"}\n{"q',
         ["eval", "mcq"], "mcq.jsonl:2: malformed JSONL line"),
        ("mcq.jsonl", b'{"question": "q", "options": {"A": "a", "B": "b"}}\n', ["eval", "mcq"],
         "mcq.jsonl:1: bad record"),
        ("dialogue_eval.jsonl", b'{"prompt": "p"}\n', ["eval", "dialogue"],
         "dialogue_eval.jsonl:1: bad record"),
        ("sft.jsonl", b'{"instruction": "q", "output": "a", "history": [["q0"]]}\n',
         ["train", "sft"], "sft: empty dataset"),
        ("cpt.jsonl", b'{"text": "\xff"}\n', ["train", "cpt"], "cpt.jsonl:1: malformed JSONL line"),
        ("mcq.jsonl", b'{"question": 12, "options": {"A": "a", "B": "b"}, "gold": "A"}\n',
         ["eval", "mcq"], "mcq.jsonl:1: bad record (DataError('McqItem: question must be a string"),
        ("mcq.jsonl", b'{"question": "q", "options": "AB", "gold": "A"}\n', ["eval", "mcq"],
         "mcq.jsonl:1: bad record (DataError('McqItem: options must map letters to strings"),
        ("dialogue_eval.jsonl", b'{"prompt": "p", "reference": 5}\n', ["eval", "dialogue"],
         "dialogue_eval.jsonl:1: bad record (DataError('dialogue record: prompt and reference "
         "must be strings"),
        ("mcq.jsonl", b'{"question": "q", "options": {"A": "a", "B": "b"}, "gold": ""}\n',
         ["eval", "mcq"], "mcq.jsonl:1: bad record (DataError('McqItem: gold names no letter"),
        ("mcq.jsonl", b'{"question": "q", "options": {"A": "a", "BC": "b"}, "gold": ["BC"]}\n',
         ["eval", "mcq"],
         "mcq.jsonl:1: bad record (DataError('McqItem: option letters must be single characters"),
        # rejected on loading, before the missing checkpoint is noticed
        ("dialogue_eval.jsonl", b'{"prompt": "p", "reference": ""}\n', ["eval", "dialogue"],
         "dialogue_eval.jsonl:1: bad record (DataError('dialogue record: prompt and reference "
         "must be strings, the reference nonempty"),
        ("sft.jsonl", b'[1, 2]\n', ["train", "sft"],
         "sft.jsonl:1: bad record (DataError('sft record: not a JSON object'))"),
    ], ids=["mcq-malformed-line", "mcq-without-gold", "dialogue-without-reference",
            "sft-history-not-a-pair", "not-utf8", "mcq-question-int", "mcq-options-str",
            "dialogue-reference-int", "mcq-gold-empty", "mcq-option-key-long",
            "dialogue-reference-empty", "sft-line-not-an-object"])
    def test_bad_jsonl_fails_cleanly(self, built, tmp_path, capsys, name, content, command,
                                     message):
        assert cli.main(["--config", str(built), "train", "cpt"]) == 0
        (tmp_path / "data" / name).write_bytes(content)
        capsys.readouterr()
        assert cli.main(["--config", str(built), *command]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("stage, record, n_tokens", [
        ("sft", {"instruction": "q" * 200, "output": "a"},
         len(D.render_prompt(D.SftExample(instruction="q" * 200, output="a"))) + 1 + 2),
        ("dpo", {"prompt": "p", "chosen": "a" * 200, "rejected": "b"},
         len(D.render_bare_prompt("p")) + 200 + 2),
    ])
    def test_overlong_record_fails_before_training(self, built, tmp_path, capsys, stage,
                                                   record, n_tokens):
        # max_seq_len 160: the record's line is named before the first step
        assert cli.main(["--config", str(built), "train", "cpt"]) == 0
        ckpt = tmp_path / "ckpt"
        (ckpt / "sft.ckpt").write_bytes((ckpt / "cpt.ckpt").read_bytes())  # dpo's start
        path = tmp_path / "data" / f"{stage}.jsonl"
        first = path.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        path.write_text(first + json.dumps(record) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["--config", str(built), "train", stage]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path}:2: record of {n_tokens} tokens; a sequence must fit "
                       f"model.max_seq_len + 1 = 161 tokens\n")
        assert not (tmp_path / "reports" / f"{stage}_metrics.csv").exists()

    @pytest.mark.parametrize("command", [["train", "cpt"],
                                         ["generate", "--checkpoint", "x.ckpt", "--prompt", "一"]])
    def test_vocab_not_utf8_fails_cleanly(self, built, tmp_path, capsys, command):
        with (tmp_path / "data" / "vocab.txt").open("ab") as fh:
            fh.write(b"\xff\n")
        capsys.readouterr()
        assert cli.main(["--config", str(built), *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t[:-1], "no newline at the end"),
        (lambda t: t + "<SEP>\n", "symbol '<SEP>' repeats line 4"),
        (lambda t: t.replace("<SEP>\n", "<SEP>\n\n"), "line 5: blank line")])
    def test_broken_vocab_fails_cleanly(self, built, tmp_path, capsys, edit, message):
        path = tmp_path / "data" / "vocab.txt"
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["--config", str(built), "train", "cpt"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: vocab file {path} line ") and message in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", [
        ["train", "sft"], ["eval", "mcq", "--checkpoint", "{ckpt}"],
        ["eval", "dialogue", "--checkpoint", "{ckpt}"],
        ["generate", "--checkpoint", "{ckpt}", "--prompt", "？"],
        ["generate", "--checkpoint", "{ckpt}", "--prompt", "一"]])
    def test_checkpoint_of_another_vocab_size_fails_cleanly(self, built, tmp_path, capsys,
                                                             command):
        assert cli.main(["--config", str(built), "train", "cpt"]) == 0
        n_before = len(M.load_vocab(tmp_path / "data" / "vocab.txt"))
        raw = json.loads(built.read_text("utf-8"))
        raw["data"]["n_diseases"] = 2
        built.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["--config", str(built), "data", "build"]) == 0
        n_after = len(M.load_vocab(tmp_path / "data" / "vocab.txt"))
        assert n_after != n_before
        ckpt = str(tmp_path / "ckpt" / "cpt.ckpt")
        capsys.readouterr()
        assert cli.main(["--config", str(built),
                         *(w.format(ckpt=ckpt) for w in command)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {ckpt}: checkpoint vocab_size {n_before} "
                       f"but vocab.txt has {n_after} symbols\n")

    def test_eval_mcq_without_checkpoint_scores_prefilled(self, built, tmp_path):
        assert cli.main(["--config", str(built), "eval", "mcq"]) == 0
        report = json.loads((tmp_path / "reports" / "mcq_report.json")
                            .read_text("utf-8"))
        assert report["accuracy"] == 0.0  # generated fields are empty

    def test_eval_dialogue_without_checkpoint_fails(self, built):
        assert cli.main(["--config", str(built), "eval", "dialogue"]) == 1

    @staticmethod
    def _items(path):
        return [json.loads(line) for line in path.read_text("utf-8").splitlines()]

    def test_eval_item_dumps_rebuild_the_reports(self, built, tmp_path):
        """``eval mcq`` and ``eval dialogue`` write one JSON line per item,
        with the same bytes on a repeat run; the report's accuracy and BLEU-1
        follow from them."""
        for stage in ("cpt", "sft"):
            assert cli.main(["--config", str(built), "train", stage]) == 0
        ckpt = str(tmp_path / "ckpt" / "sft.ckpt")
        reports = tmp_path / "reports"
        dumps = []
        for _ in range(2):
            for kind in ("mcq", "dialogue"):
                assert cli.main(["--config", str(built), "eval", kind,
                                 "--checkpoint", ckpt]) == 0
            dumps.append([(reports / f"{kind}_items.jsonl").read_bytes()
                          for kind in ("mcq", "dialogue")])
        assert dumps[0] == dumps[1]

        cfg, _ = cli.validate_config(built)
        items, _ = D.load_dataset(tmp_path / "data" / "mcq.jsonl", "mcq")
        mcq = self._items(reports / "mcq_items.jsonl")
        assert [r["index"] for r in mcq] == list(range(len(items)))
        for r, it in zip(mcq, items):
            assert r["prompt"] == E.mcq_prompt(items, r["index"], cfg.eval.few_shot_k)
            assert r["gold"] == it.answer
            assert r["letters"] == "".join(sorted(E.extract_choice(r["generated"],
                                                                   it.options)))
        report = json.loads((reports / "mcq_report.json").read_text("utf-8"))
        hits = sum(r["letters"] == r["gold"] for r in mcq)
        assert report["accuracy"] == round(100 * hits / len(mcq), 4)

        pairs, _ = D.load_dataset(tmp_path / "data" / "dialogue_eval.jsonl", "dialogue")
        dialogue = self._items(reports / "dialogue_items.jsonl")
        assert [(r["index"], r["prompt"], r["reference"]) for r in dialogue] == [
            (i, D.render_bare_prompt(p), ref) for i, (p, ref) in enumerate(pairs)]
        for r in dialogue:
            assert r["bleu1"] == E.bleu_n(r["generated"], r["reference"], 1)
            assert r["rouge1"] == E.rouge_n(r["generated"], r["reference"], 1)
            assert r["rougeL"] == E.rouge_l(r["generated"], r["reference"])
        report = json.loads((reports / "dialogue_report.json").read_text("utf-8"))
        assert report["bleu1"] > 0
        assert report["bleu1"] == round(100 * sum(r["bleu1"] for r in dialogue)
                                        / len(dialogue), 4)

    def test_eval_mcq_item_dump_of_prefilled_answers(self, built, tmp_path):
        path = tmp_path / "data" / "mcq.jsonl"
        items, _ = D.load_dataset(path, "mcq")
        for it in items[::2]:  # every other item answered right, with a separator
            it.generated = "答案：" + "、".join(it.answer)
        path.write_text("".join(json.dumps(D.to_json(it), ensure_ascii=False) + "\n"
                                for it in items), encoding="utf-8")
        assert cli.main(["--config", str(built), "eval", "mcq"]) == 0
        mcq = self._items(tmp_path / "reports" / "mcq_items.jsonl")
        assert [(r["prompt"], r["generated"], r["gold"]) for r in mcq] == [
            (None, it.generated, it.answer) for it in items]
        hits = sum(r["letters"] == r["gold"] for r in mcq)
        assert hits == len(items[::2])
        report = json.loads((tmp_path / "reports" / "mcq_report.json").read_text("utf-8"))
        assert report["accuracy"] == round(100 * hits / len(mcq), 4)


def test_cpt_on_corpus_shorter_than_one_block_fails(tmp_path, capsys):
    path = _write_config(tmp_path)
    raw = json.loads(path.read_text("utf-8"))
    # a 366-token corpus packs into one short block, which the holdout takes
    raw["data"].update(n_diseases=2, block_size=400)
    raw["model"]["max_seq_len"] = 400
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["--config", str(path), "data", "build"]) == 0
    capsys.readouterr()
    assert cli.main(["--config", str(path), "train", "cpt"]) == 1
    assert "empty dataset" in capsys.readouterr().err
    assert not (tmp_path / "ckpt" / "cpt.ckpt").exists()


def test_cpt_error_in_the_second_half_fails_cleanly(tmp_path, capsys, monkeypatch):
    # the second half of each CPT batch trains on a second thread; its
    # error reaches the CLI as the same DataError, and the thread ends
    path = _write_config(tmp_path)
    assert cli.main(["--config", str(path), "data", "build"]) == 0
    split_blocks = cli._split_blocks

    def long_block_in_half_1(cfg, vocab):
        train, held = split_blocks(cfg, vocab)
        order = np.random.default_rng(cfg.stages["cpt"].seed).permutation(len(train))
        batch = order[:cfg.stages["cpt"].batch_size]
        train[batch[-1]] = train[batch[-1]] * 8  # longer than max_seq_len
        return train, held

    monkeypatch.setattr(cli, "_split_blocks", long_block_in_half_1)
    capsys.readouterr()
    threads = threading.active_count()
    assert cli.main(["--config", str(path), "train", "cpt"]) == 1
    err = capsys.readouterr().err
    assert "error: sequence length" in err and "max_seq_len" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert threading.active_count() == threads


def test_few_shot_k_sets_the_trained_and_the_scored_shots(tmp_path, monkeypatch):
    # synth's few-shot exam records take eval.few_shot_k shots, and
    # `eval mcq` scores exactly the prompts those records train on
    path = _write_config(tmp_path, eval={"few_shot_k": 3, "max_new_tokens": 8})
    raw = json.loads(path.read_text("utf-8"))
    raw["model"]["max_seq_len"] = 256  # room for a 3-shot prompt
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["--config", str(path), "data", "build"]) == 0
    data = tmp_path / "data"
    sft, _ = D.load_dataset(data / "sft.jsonl", "sft")
    items, _ = D.load_dataset(data / "mcq.jsonl", "mcq")
    few_shot = [ex for ex in sft if ex.history]
    assert [len(ex.history) for ex in few_shot] == [3] * len(items)
    trained = [D.render_prompt(ex) for ex in few_shot]
    assert trained == [E.mcq_prompt(items, i, 3) for i in range(len(items))]

    cfg = cli.validate_config(path)[0]
    vocab = M.load_vocab(data / "vocab.txt")
    params = M.init_params(dataclasses.replace(cfg.model, vocab_size=len(vocab)),
                           np.random.default_rng(0))
    ckpt = tmp_path / "init.ckpt"
    TR.save_checkpoint(TR.TrainState(params=params), ckpt)
    scored = []
    generate_text = E.generate_text

    def recording(state, vocab, prompt, max_new):
        scored.append(prompt)
        return generate_text(state, vocab, prompt, max_new)

    monkeypatch.setattr(E, "generate_text", recording)
    assert cli.main(["--config", str(path), "eval", "mcq", "--checkpoint", str(ckpt)]) == 0
    assert scored == trained


def test_commands_in_one_process_match_separate_processes(tmp_path, capsys, monkeypatch):
    # the parser is built once per process: commands run one after another
    # in it, usage errors among them, must behave as each in a fresh process
    import subprocess
    import sys

    path = _write_config(tmp_path)
    commands = [["--config", str(path), "validate-config"],
                ["--config", str(path), "data", "build"],
                ["train", "rl"],
                ["--config", str(path), "validate-config"],
                ["generate", "--checkpoint", "x.ckpt", "--prompt", "一", "--max-new", "0"],
                ["no-such-command"],
                ["--config", str(tmp_path / "nope.json"), "data", "build"]]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
    in_process = []
    for argv in commands:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        in_process.append((rc, out, err))
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "COLUMNS": "80"}
    separate = []
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "medlm.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        separate.append((done.returncode, done.stdout, done.stderr))
    assert [rc for rc, _, _ in in_process] == [0, 0, 2, 0, 2, 2, 1]
    assert in_process == separate
