import json
import os

import pytest

from medlm import cli
from medlm.errors import ConfigError


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
        assert set(first) == {"id", "question", "options", "gold", "generated"}
        assert first["gold"] in first["options"]

    def test_dpo_schema(self, tmp_path):
        path = _write_config(tmp_path)
        cli.main(["--config", str(path), "data", "build"])
        lines = (tmp_path / "data" / "dpo.jsonl").read_text("utf-8").splitlines()
        first = json.loads(lines[0])
        assert set(first) == {"prompt", "chosen", "rejected"}

    def test_dedup_is_idempotent(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        cli.main(["--config", str(path), "data", "build"])
        cpt = tmp_path / "data" / "cpt.jsonl"
        before = cpt.read_text("utf-8")
        assert cli.main(["--config", str(path), "data", "dedup"]) == 0
        assert cpt.read_text("utf-8") == before  # build already deduped


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
        assert (f"warning: sft: skipped 1 malformed records (first: line {n_good + 1}: "
                in err)
        assert (tmp_path / "ckpt" / "sft.ckpt").exists()

    def test_sft_without_cpt_checkpoint_fails_cleanly(self, built):
        assert cli.main(["--config", str(built), "train", "sft"]) == 1

    def test_sft_on_checkpoint_with_bad_header_fails_cleanly(self, built, tmp_path,
                                                              capsys):
        assert cli.main(["--config", str(built), "train", "cpt"]) == 0
        ckpt = tmp_path / "ckpt" / "cpt.ckpt"
        blob = ckpt.read_bytes()
        n = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12:12 + n])
        del header["meta"]
        raw = json.dumps(header).encode("utf-8")
        ckpt.write_bytes(blob[:8] + len(raw).to_bytes(4, "little") + raw + blob[12 + n:])
        capsys.readouterr()
        assert cli.main(["--config", str(built), "train", "sft"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed header" in err
        assert "Traceback" not in err

    def test_eval_mcq_without_checkpoint_scores_prefilled(self, built, tmp_path):
        assert cli.main(["--config", str(built), "eval", "mcq"]) == 0
        report = json.loads((tmp_path / "reports" / "mcq_report.json")
                            .read_text("utf-8"))
        assert report["accuracy"] == 0.0  # generated fields are empty

    def test_eval_dialogue_without_checkpoint_fails(self, built):
        assert cli.main(["--config", str(built), "eval", "dialogue"]) == 1
