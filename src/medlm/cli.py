"""Command-line entry point: data building, the three training stages,
evaluation and generation, all driven by one JSON config file.

Exit codes: 0 success, 1 config/runtime failure, 2 usage error.
The QILIN_SEED environment variable overrides the config seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import data as D
from . import evalkit as E
from . import model as M
from . import synth
from . import trainer as TR
from .atomic import atomic_write
from .errors import ConfigError, DataError, MedlmError, VocabError, check_fields

KNOWN_TOP_KEYS = {"seed", "paths", "model", "data", "stages", "eval"}
STAGE_KEYS = {f.name for f in dataclasses.fields(TR.StageConfig)} - {"stage"}
UNREAD_STAGE_KEYS = {"cpt": {"lora", "beta"}, "sft": {"beta"}, "dpo": set()}
LORA_KEYS = {"rank", "alpha", "dropout"}  # the adapted projections are fixed


@dataclasses.dataclass(frozen=True)
class PathsConfig:
    data: str = "runs/data"
    checkpoints: str = "runs/checkpoints"
    reports: str = "runs/reports"

    def __post_init__(self):
        check_fields(self)


@dataclasses.dataclass(frozen=True)
class DataConfig:
    n_diseases: int = 20  # synth has 20 disease names; a DPO pair needs two diseases
    min_span: int = 20
    block_size: int = 64
    holdout_fraction: float = 0.1  # at least one block is held out
    duplicate_docs: int = 2

    def __post_init__(self):
        check_fields(self, n_diseases="[2, 20]", min_span="[2, inf)",
                     block_size="[2, inf)", holdout_fraction="[0, 1)",
                     duplicate_docs="[0, inf)")


@dataclasses.dataclass(frozen=True)
class EvalConfig:
    few_shot_k: int = 5
    max_new_tokens: int = 48

    def __post_init__(self):
        check_fields(self, few_shot_k="[0, inf)", max_new_tokens="[1, inf)")


@dataclasses.dataclass
class RunConfig:
    seed: int
    paths: PathsConfig
    model: M.ModelConfig  # vocab_size is set from the vocabulary when CPT starts
    data: DataConfig
    stages: dict  # stage name -> TR.StageConfig
    eval: EvalConfig


def _known(value, where, keys, errors, warnings, strict=False):
    """The entries of config object ``value`` whose keys are in ``keys``; an
    unknown key is a warning (an error if strict), a non-object an error."""
    if not isinstance(value, dict):
        errors.append(f"{where}: must be an object")
        return {}
    (errors if strict else warnings).extend(
        f"{where}: unknown key {k!r}" for k in value if k not in keys)
    return {k: v for k, v in value.items() if k in keys}


def validate_config(path):
    """Parse and validate; returns (RunConfig, warnings) or raises ConfigError
    with every violation listed by key path. Each section is built as the
    dataclass that declares, defaults and checks its settings."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigError(f"config {path}: invalid JSON ({exc})") from None

    errors, warnings = [], []
    raw = _known(raw, "config", KNOWN_TOP_KEYS, errors, warnings)

    seed = raw.get("seed", 0)
    env_seed = os.environ.get("QILIN_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            errors.append(f"QILIN_SEED: not an integer: {env_seed!r}")
    if type(seed) is not int or seed < 0:  # numpy's generators take no negative seed
        errors.append(f"seed: must be an integer in [0, inf), got {seed!r}")
        seed = 0  # reported here once, not again by every stage that inherits it

    def build(where, make, *args, **given):
        try:
            return make(*args, **given)
        except ConfigError as exc:
            errors.append(f"{where}: {exc}")

    # the model's keys go straight into its checkpoint header: no unknown ones
    model_keys = {f.name for f in dataclasses.fields(M.ModelConfig)} - {"vocab_size"}
    given = _known(raw.get("model", {}), "model", model_keys, errors, warnings, strict=True)
    model = build("model", M.ModelConfig, vocab_size=1, **given)
    sections = {}
    for name, cls in (("paths", PathsConfig), ("data", DataConfig), ("eval", EvalConfig)):
        keys = {f.name for f in dataclasses.fields(cls)}
        sections[name] = build(name, cls, **_known(raw.get(name, {}), name, keys,
                                                   errors, warnings))

    if model and sections["data"] and sections["data"].block_size > model.max_seq_len + 1:
        errors.append("data.block_size: a CPT block must fit model.max_seq_len + 1 tokens")
    if sections["data"] and sections["eval"] and (
            sections["eval"].few_shot_k >= sections["data"].n_diseases):
        errors.append("eval.few_shot_k: must be below data.n_diseases, the number of MCQ "
                      "items (an item is never its own shot)")

    stages = {}
    given_stages = _known(raw.get("stages", {}), "stages", TR.STAGES, errors, warnings)
    for stage in TR.STAGES:
        where = f"stages.{stage}"
        given = _known(given_stages.get(stage, {}), where,
                       STAGE_KEYS - UNREAD_STAGE_KEYS[stage], errors, warnings)
        base = TR.default_stage_config(stage)
        if given.get("lora") is not None:
            lora = _known(given["lora"], where + ".lora", LORA_KEYS, errors, warnings,
                          strict=True)
            given["lora"] = build(where + ".lora", dataclasses.replace, base.lora, **lora)
        else:
            given.pop("lora", None)
        stages[stage] = build(where, dataclasses.replace, base, **{"seed": seed, **given})

    if errors:
        raise ConfigError("; ".join(errors))
    return RunConfig(seed=seed, model=model, stages=stages, **sections), warnings


def _write_jsonl(records, path):
    atomic_write("".join(json.dumps(D.to_json(r), ensure_ascii=False) + "\n" for r in records),
                 path)


def _data_paths(cfg):
    d = cfg.paths.data
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
    corpus = synth.build_corpus(
        n_diseases=cfg.data.n_diseases, seed=cfg.seed,
        duplicate_docs=cfg.data.duplicate_docs, few_shot_k=cfg.eval.few_shot_k,
    )
    corpus["cpt"], _report = D.dedup_corpus(corpus["cpt"], cfg.data.min_span)
    # every text written below, and the MCQ prompts eval builds from it
    texts = {kind: [D.record_text(r) for r in records] for kind, records in corpus.items()}
    vocab = M.build_vocab([text for kind_texts in texts.values() for text in kind_texts])

    paths = _data_paths(cfg)
    os.makedirs(cfg.paths.data, exist_ok=True)
    for kind, records in corpus.items():
        _write_jsonl(records, paths[kind])
    M.save_vocab(vocab, paths["vocab"])

    # one token per character, and the vocabulary holds every character
    rows = [(kind, len(corpus[kind]), sum(map(len, texts[kind])), os.path.getsize(paths[kind]))
            for kind in ("cpt", "sft", "dpo")]
    table = D.stats_table(rows)
    atomic_write(table + "\n", paths["stats"])
    print(table)
    return 0


def cmd_data_dedup(cfg, input_path=None, output_path=None):
    paths = _data_paths(cfg)
    input_path = input_path or paths["cpt"]
    output_path = output_path or input_path
    records, stats = _load_records(input_path, "cpt")
    kept, report = D.dedup_corpus(records, cfg.data.min_span)
    _write_jsonl(kept, output_path)
    dropped = sum(start < 0 for _, start, _ in report)
    print(f"kept {len(kept)}/{len(records) + len(stats.rejected)} docs, "
          f"removed {len(report) - dropped} spans, dropped {dropped} docs")
    return 0


def _ckpt_path(cfg, stage):
    return os.path.join(cfg.paths.checkpoints, f"{stage}.ckpt")


def _load_vocab(cfg):
    return M.load_vocab(_data_paths(cfg)["vocab"])


def _load_state(path, vocab):
    """The checkpoint at path, whose model must have one embedding row per
    symbol of vocab."""
    state = TR.load_checkpoint(path)
    if state.params.config.vocab_size != len(vocab):
        raise VocabError(f"{path}: checkpoint vocab_size {state.params.config.vocab_size} "
                         f"but vocab.txt has {len(vocab)} symbols")
    return state


def _load_records(path, schema):
    """load_dataset's (records, stats); skipped malformed records are reported."""
    records, stats = D.load_dataset(path, schema)
    if stats.rejected:
        print(f"warning: {schema}: skipped {len(stats.rejected)} malformed records "
              f"(first: {stats.rejected[0]})", file=sys.stderr)
    return records, stats


def _load_eval_records(path, schema):
    """load_dataset's records; an eval set is scored whole, so a rejected
    record is an error naming its file and line."""
    records, stats = D.load_dataset(path, schema)
    if stats.rejected:
        raise DataError(stats.rejected[0])
    return records


def _split_blocks(cfg, vocab):
    records, _ = _load_records(_data_paths(cfg)["cpt"], "cpt")
    blocks = D.pack_blocks(records, vocab, cfg.data.block_size)
    n_hold = max(1, int(len(blocks) * cfg.data.holdout_fraction))
    # The stream is ordered by disease, so a contiguous tail would keep the
    # last diseases out of pre-training altogether; hold out every
    # stride-th block instead.
    stride = max(1, len(blocks) // n_hold)
    held = range(stride - 1, len(blocks), stride)[:n_hold]
    train = [b for i, b in enumerate(blocks) if i not in held]
    return train, [blocks[i] for i in held]


def _check_fits(path, records, lines, max_seq_len):
    """DataError naming the first SFT example or preference pair, by file
    and line, whose longest sequence does not fit ``max_seq_len + 1``
    tokens: BOS, one id per character, then EOS, the forward running all
    but the last. Counted from the text, so nothing is tokenized."""
    for line, rec in zip(lines, records):
        if isinstance(rec, D.SftExample):
            n = len(D.render_prompt(rec)) + len(rec.output) + 2
        else:
            response = max(len(rec.preferred), len(rec.rejected))
            n = len(D.render_bare_prompt(rec.prompt)) + response + 2
        if n > max_seq_len + 1:
            raise DataError(f"{path}:{line}: record of {n} tokens; a sequence must fit "
                            f"model.max_seq_len + 1 = {max_seq_len + 1} tokens")


def cmd_train(cfg, stage):
    vocab = _load_vocab(cfg)
    os.makedirs(cfg.paths.checkpoints, exist_ok=True)
    stage_cfg = cfg.stages[stage]
    if stage == "cpt":
        model_cfg = dataclasses.replace(cfg.model, vocab_size=len(vocab))
        params = M.init_params(model_cfg, np.random.default_rng(cfg.seed))
        state = TR.TrainState(params=params, seed=cfg.seed)
        train_blocks, _ = _split_blocks(cfg, vocab)
        dataset = train_blocks
    else:
        prev = "cpt" if stage == "sft" else "sft"
        state = _load_state(_ckpt_path(cfg, prev), vocab)
        path = _data_paths(cfg)[stage]
        dataset, stats = _load_records(path, stage)
        _check_fits(path, dataset, stats.lines, state.params.config.max_seq_len)
    log_path = os.path.join(cfg.paths.reports, f"{stage}_metrics.csv")
    os.makedirs(cfg.paths.reports, exist_ok=True)
    state, metrics = TR.run_stage(state, stage_cfg, dataset, vocab=vocab,
                                  log_path=log_path)
    TR.save_checkpoint(state, _ckpt_path(cfg, stage))
    last = metrics[-1]["loss"] if metrics else float("nan")
    print(f"{stage}: {len(metrics)} steps, final loss {last:.4f}, "
          f"checkpoint {_ckpt_path(cfg, stage)}")
    return 0


def cmd_eval(cfg, kind, checkpoint):
    vocab = _load_vocab(cfg)
    state = _load_state(checkpoint, vocab) if checkpoint else None
    paths = _data_paths(cfg)
    os.makedirs(cfg.paths.reports, exist_ok=True)
    if kind == "mcq":
        items = _load_eval_records(paths["mcq"], "mcq")
        if state is not None:
            report = E.evaluate_mcq(state, vocab, items, cfg.eval.few_shot_k, max_new_tokens=4)
        else:
            # score pre-filled generated fields
            report = E.EvalReport(n_items=len(items), accuracy=E.accuracy(items),
                                  weighted_f1=E.weighted_f1(items),
                                  items=E.mcq_records(items, [None] * len(items)))
        out = os.path.join(cfg.paths.reports, "mcq_report.json")
    else:
        pairs = _load_eval_records(paths["dialogue"], "dialogue")
        if state is None:
            raise ConfigError("eval dialogue requires --checkpoint")
        rendered = [(D.render_bare_prompt(p), r) for p, r in pairs]
        report = E.evaluate_dialogue(state, vocab, rendered,
                                     max_new_tokens=cfg.eval.max_new_tokens)
        out = os.path.join(cfg.paths.reports, "dialogue_report.json")
    E.write_report(report, out)
    E.write_items(report, os.path.join(cfg.paths.reports, f"{kind}_items.jsonl"))
    print(report.table())
    print(f"report written to {out}")
    return 0


def cmd_generate(cfg, checkpoint, prompt, max_new):
    vocab = _load_vocab(cfg)
    state = _load_state(checkpoint, vocab)
    print(E.generate_text(state, vocab, D.render_bare_prompt(prompt), max_new))
    return 0


def _positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


@functools.cache
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
    p_gen.add_argument("--max-new", type=_positive_int, default=64)

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
