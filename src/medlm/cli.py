"""Command-line entry point: data building, the three training stages,
evaluation and generation, all driven by one JSON config file.

Exit codes: 0 success, 1 config/runtime failure, 2 usage error.
The QILIN_SEED environment variable overrides the config seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import data as D
from . import evalkit as E
from . import model as M
from . import synth
from . import trainer as TR
from .errors import ConfigError, MedlmError

KNOWN_TOP_KEYS = {"seed", "paths", "model", "data", "stages", "eval"}

STAGE_KEYS = {"stage", "learning_rate", "warmup_ratio", "weight_decay", "epochs",
              "batch_size", "block_size", "max_source_length", "max_target_length",
              "lora", "beta", "seed"}


@dataclasses.dataclass
class RunConfig:
    seed: int
    data_dir: str
    checkpoint_dir: str
    report_dir: str
    model: dict
    data: dict
    stages: dict  # stage name -> StageConfig
    few_shot_k: int
    max_new_tokens: int


DEFAULT_DATA = {
    "n_diseases": 20,
    "min_span": 20,
    "block_size": 64,
    "holdout_fraction": 0.1,
    "duplicate_docs": 2,
}

DEFAULT_MODEL = {
    "d_model": 64,
    "n_layers": 2,
    "n_heads": 2,
    "max_seq_len": 256,
    "dropout": 0.0,
}


def validate_config(path):
    """Parse and validate; returns (RunConfig, warnings) or raises ConfigError
    with every violation listed by key path."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON ({exc.msg})") from None

    errors = []
    warnings = [f"unknown key {k!r}" for k in raw if k not in KNOWN_TOP_KEYS]

    seed = raw.get("seed", 0)
    env_seed = os.environ.get("QILIN_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            errors.append(f"QILIN_SEED: not an integer: {env_seed!r}")
    if not isinstance(seed, int):
        errors.append("seed: must be an integer")

    paths = raw.get("paths", {})
    data_dir = paths.get("data", "runs/data")
    checkpoint_dir = paths.get("checkpoints", "runs/checkpoints")
    report_dir = paths.get("reports", "runs/reports")

    model = dict(DEFAULT_MODEL)
    model.update(raw.get("model", {}))
    if model["d_model"] % max(1, model["n_heads"]) != 0:
        errors.append("model.d_model: must be divisible by model.n_heads")
    if model["max_seq_len"] < 2:
        errors.append("model.max_seq_len: must be >= 2")

    data_cfg = dict(DEFAULT_DATA)
    data_cfg.update(raw.get("data", {}))
    if data_cfg["min_span"] < 2:
        errors.append("data.min_span: must be >= 2")
    if data_cfg["block_size"] < 2:
        errors.append("data.block_size: must be >= 2")

    stages = {}
    for stage in ("cpt", "sft", "dpo"):
        overrides = dict(raw.get("stages", {}).get(stage, {}))
        warnings += [f"stages.{stage}: unknown key {k!r}"
                     for k in overrides if k not in STAGE_KEYS]
        base = dataclasses.asdict(TR.default_stage_config(stage))
        lora = base.pop("lora")
        base.update({k: v for k, v in overrides.items() if k in STAGE_KEYS and k != "lora"})
        if "lora" in overrides and overrides["lora"] is not None:
            lora = dict(lora or dataclasses.asdict(TR.LoraSettings()))
            lora.update(overrides["lora"])
        base["seed"] = base.get("seed") or seed
        try:
            cfg = TR.StageConfig(
                **{k: v for k, v in base.items() if k != "lora"},
                lora=TR.LoraSettings(**lora) if lora else None,
            )
        except (ConfigError, TypeError) as exc:
            errors.append(f"stages.{stage}: {exc}")
            continue
        stages[stage] = cfg

    eval_cfg = raw.get("eval", {})
    few_shot_k = eval_cfg.get("few_shot_k", 5)
    max_new_tokens = eval_cfg.get("max_new_tokens", 48)

    if errors:
        raise ConfigError("; ".join(errors))
    cfg = RunConfig(seed=seed, data_dir=data_dir, checkpoint_dir=checkpoint_dir,
                    report_dir=report_dir, model=model, data=data_cfg,
                    stages=stages, few_shot_k=few_shot_k,
                    max_new_tokens=max_new_tokens)
    return cfg, warnings


def _write_jsonl(records, path):
    TR.atomic_write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), path
    )


def _data_paths(cfg):
    d = cfg.data_dir
    return {
        "cpt": os.path.join(d, "cpt.jsonl"),
        "sft": os.path.join(d, "sft.jsonl"),
        "dpo": os.path.join(d, "dpo.jsonl"),
        "mcq": os.path.join(d, "mcq.jsonl"),
        "dialogue": os.path.join(d, "dialogue_eval.jsonl"),
        "vocab": os.path.join(d, "vocab.txt"),
        "stats": os.path.join(d, "stats.txt"),
    }


def cmd_data_build(cfg):
    bundle = synth.build_corpus(
        n_diseases=cfg.data["n_diseases"], seed=cfg.seed,
        duplicate_docs=cfg.data["duplicate_docs"],
    )
    vocab = M.build_vocab(synth.vocab_corpus(bundle))
    kept_docs, _report = D.dedup_corpus(bundle["cpt_docs"], cfg.data["min_span"])

    stats = D.PipelineStats()
    sft_examples = []
    for rec in bundle["sft_records"]:
        ex = D.standardize_instruction(rec, stats)
        if ex is not None:
            sft_examples.append(ex)

    paths = _data_paths(cfg)
    _write_jsonl([{"text": t} for t in kept_docs], paths["cpt"])
    _write_jsonl(
        [{"instruction": ex.instruction, "input": ex.input,
          "history": [list(h) for h in ex.history], "output": ex.output}
         for ex in sft_examples],
        paths["sft"],
    )
    _write_jsonl(bundle["dpo_records"], paths["dpo"])
    _write_jsonl(
        [{"id": i, "question": it["question"], "options": it["options"],
          "gold": it["gold"], "generated": ""}
         for i, it in enumerate(bundle["mcq_items"])],
        paths["mcq"],
    )
    _write_jsonl(
        [{"prompt": p, "reference": r, "generated": ""}
         for p, r in bundle["dialogue_eval"]],
        paths["dialogue"],
    )
    os.makedirs(cfg.data_dir, exist_ok=True)
    M.save_vocab(vocab, paths["vocab"])

    pairs = [D.PreferencePair(d["prompt"], d["chosen"], d["rejected"])
             for d in bundle["dpo_records"]]
    rows = [(name, len(records), sum(len(M.encode(vocab, D.record_text(r))) for r in records),
             os.path.getsize(paths[name]))
            for name, records in (("cpt", kept_docs), ("sft", sft_examples), ("dpo", pairs))]
    TR.atomic_write_text(D.stats_table(rows) + "\n", paths["stats"])
    print(D.stats_table(rows))
    return 0


def cmd_data_dedup(cfg, input_path=None, output_path=None):
    paths = _data_paths(cfg)
    input_path = input_path or paths["cpt"]
    output_path = output_path or input_path
    records, _ = D.load_dataset(input_path, "cpt")
    kept, report = D.dedup_corpus(records, cfg.data["min_span"])
    _write_jsonl([{"text": t} for t in kept], output_path)
    print(f"kept {len(kept)}/{len(records)} docs, removed {len(report)} spans")
    return 0


def _ckpt_path(cfg, stage):
    return os.path.join(cfg.checkpoint_dir, f"{stage}.ckpt")


def _load_vocab(cfg):
    return M.load_vocab(_data_paths(cfg)["vocab"])


def _load_records(cfg, stage):
    """One stage's training records; skipped malformed records are reported."""
    records, stats = D.load_dataset(_data_paths(cfg)[stage], stage)
    if stats.rejected:
        print(f"warning: {stage}: skipped {len(stats.rejected)} malformed records "
              f"(first: {stats.rejected[0]})", file=sys.stderr)
    return records


def _split_blocks(cfg, vocab):
    records = _load_records(cfg, "cpt")
    blocks = D.pack_blocks(records, vocab, cfg.data["block_size"])
    n_hold = max(1, int(len(blocks) * cfg.data["holdout_fraction"]))
    # The stream is ordered by disease, so a contiguous tail would keep the
    # last diseases out of pre-training altogether; hold out every
    # stride-th block instead.
    stride = max(1, len(blocks) // n_hold)
    held = range(stride - 1, len(blocks), stride)[:n_hold]
    train = [b for i, b in enumerate(blocks) if i not in held]
    return train, [blocks[i] for i in held]


def cmd_train(cfg, stage):
    vocab = _load_vocab(cfg)
    os.makedirs(cfg.checkpoint_dir, exist_ok=True)
    stage_cfg = cfg.stages[stage]
    if stage == "cpt":
        model_cfg = M.ModelConfig(vocab_size=len(vocab), **cfg.model)
        params = M.init_params(model_cfg, np.random.default_rng(cfg.seed))
        state = TR.TrainState(params=params, seed=cfg.seed)
        train_blocks, _ = _split_blocks(cfg, vocab)
        dataset = train_blocks
    else:
        prev = "cpt" if stage == "sft" else "sft"
        state = TR.load_checkpoint(_ckpt_path(cfg, prev))
        dataset = _load_records(cfg, stage)
    log_path = os.path.join(cfg.report_dir, f"{stage}_metrics.csv")
    os.makedirs(cfg.report_dir, exist_ok=True)
    state, metrics = TR.run_stage(state, stage_cfg, dataset, vocab=vocab,
                                  log_path=log_path)
    TR.save_checkpoint(state, _ckpt_path(cfg, stage))
    last = metrics[-1]["loss"] if metrics else float("nan")
    print(f"{stage}: {len(metrics)} steps, final loss {last:.4f}, "
          f"checkpoint {_ckpt_path(cfg, stage)}")
    return 0


def _load_mcq_items(path):
    items = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            items.append(E.McqItem(
                question=obj["question"], options=obj["options"],
                gold=frozenset(obj["gold"]), generated=obj.get("generated", ""),
                reference=obj.get("reference", ""),
            ))
    return items


def cmd_eval(cfg, kind, checkpoint):
    vocab = _load_vocab(cfg)
    state = TR.load_checkpoint(checkpoint) if checkpoint else None
    paths = _data_paths(cfg)
    os.makedirs(cfg.report_dir, exist_ok=True)
    if kind == "mcq":
        items = _load_mcq_items(paths["mcq"])
        if state is not None:
            exemplars = [(E.render_mcq_question(it), "".join(sorted(it.gold)))
                         for it in items[: cfg.few_shot_k]]
            spec = E.FewShotSpec(exemplars=exemplars)
            report = E.evaluate_mcq(state, vocab, items, spec, max_new_tokens=4)
        else:
            # score pre-filled generated fields
            report = E.EvalReport(n_items=len(items), accuracy=E.accuracy(items),
                                  weighted_f1=E.weighted_f1(items))
        out = os.path.join(cfg.report_dir, "mcq_report.json")
    else:
        pairs = []
        with open(paths["dialogue"], encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    obj = json.loads(line)
                    pairs.append((obj["prompt"], obj["reference"]))
        if state is None:
            raise ConfigError("eval dialogue requires --checkpoint")
        rendered = [(D.render_bare_prompt(p), r) for p, r in pairs]
        report = E.evaluate_dialogue(state, vocab, rendered,
                                     max_new_tokens=cfg.max_new_tokens)
        out = os.path.join(cfg.report_dir, "dialogue_report.json")
    E.write_report(report, out)
    print(report.table())
    print(f"report written to {out}")
    return 0


def cmd_generate(cfg, checkpoint, prompt, max_new):
    vocab = _load_vocab(cfg)
    state = TR.load_checkpoint(checkpoint)
    text = D.render_bare_prompt(prompt)
    ids = [M.BOS] + M.encode(vocab, text)
    out_ids = M.generate_greedy(state.params, state.adapter, ids, max_new)
    print(M.decode_text(vocab, out_ids))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="medlm",
        description="Desk-scale medical LM pipeline: data, CPT/SFT/DPO training, eval.",
    )
    parser.add_argument("--config", default="medlm.json", help="run config (JSON)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_data = sub.add_parser("data", help="dataset construction")
    data_sub = p_data.add_subparsers(dest="subcommand", required=True)
    data_sub.add_parser("build", help="generate the bundled synthetic corpus")
    p_dedup = data_sub.add_parser("dedup", help="exact-substring dedup of a cpt file")
    p_dedup.add_argument("--input")
    p_dedup.add_argument("--output")

    p_train = sub.add_parser("train", help="run a training stage")
    p_train.add_argument("stage", choices=["cpt", "sft", "dpo"])

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("kind", choices=["mcq", "dialogue"])
    p_eval.add_argument("--checkpoint")

    p_gen = sub.add_parser("generate", help="greedy generation from a prompt")
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--prompt", required=True)
    p_gen.add_argument("--max-new", type=int, default=64)

    sub.add_parser("validate-config", help="check the config file and exit")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, warnings = validate_config(args.config)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        if args.command == "validate-config":
            print("config ok")
            return 0
        if args.command == "data":
            if args.subcommand == "build":
                return cmd_data_build(cfg)
            return cmd_data_dedup(cfg, args.input, args.output)
        if args.command == "train":
            return cmd_train(cfg, args.stage)
        if args.command == "eval":
            return cmd_eval(cfg, args.kind, args.checkpoint)
        if args.command == "generate":
            return cmd_generate(cfg, args.checkpoint, args.prompt, args.max_new)
        parser.error(f"unknown command {args.command!r}")
    except MedlmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
