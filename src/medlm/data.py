"""Corpus construction: KG linearization, dialogue flattening, the record
types of the five corpus files and their one JSONL codec, exact-substring
dedup and block packing.

All stages are pure functions of their inputs and deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import model as M
from .errors import DataError, field_errors

# Relation labels rendered in this order; unknown labels sort after, lexicographic.
KG_LABEL_ORDER = ("病因", "症状", "推荐用药")
KG_LABEL_TEXT = {"病因": "的病因", "症状": "的症状", "推荐用药": "的推荐用药"}

PROMPT_Q = "Q:"
PROMPT_A = "A:"

MIN_RESIDUAL_TOKENS = 10  # docs shorter than this after span removal are dropped


@dataclass(frozen=True)
class KgEntity:
    name: str
    relations: tuple  # of (label, value)

    def __post_init__(self):
        if not self.name:
            raise DataError("KgEntity: empty name")


@dataclass(frozen=True)
class DialogueRecord:
    turns: tuple  # of (speaker, utterance), speakers alternate starting "patient"

    def __post_init__(self):
        if len(self.turns) < 2:
            raise DataError("DialogueRecord: needs at least 2 turns")
        for i, (speaker, _) in enumerate(self.turns):
            want = "patient" if i % 2 == 0 else "doctor"
            if speaker != want:
                raise DataError(f"DialogueRecord: turn {i} speaker {speaker!r}, expected {want!r}")


@dataclass(frozen=True)
class SftExample:
    instruction: str
    output: str
    input: str = ""
    history: tuple = ()

    def __post_init__(self):
        errors = [*field_errors(self).values(),
                  *(f"history turn {i} must be two strings" for i, turn in enumerate(self.history)
                    if not (isinstance(turn, tuple) and len(turn) == 2
                            and all(isinstance(t, str) for t in turn)))]
        if errors:
            raise DataError("SftExample: " + "; ".join(errors))
        if not self.instruction or not self.output:
            raise DataError("SftExample: instruction and output must be nonempty")


@dataclass(frozen=True)
class PreferencePair:
    prompt: str
    preferred: str
    rejected: str

    def __post_init__(self):
        errors = field_errors(self)
        if errors:
            raise DataError("PreferencePair: " + "; ".join(errors.values()))
        if not (self.prompt and self.preferred and self.rejected):
            raise DataError("PreferencePair: all fields must be nonempty")
        if self.preferred == self.rejected:
            raise DataError("PreferencePair: preferred == rejected")


@dataclass
class McqItem:
    question: str
    options: dict  # letter -> text
    gold: frozenset  # of letters
    generated: str = ""
    reference: str = ""  # optional explanation text

    def __post_init__(self):
        errors = field_errors(self)
        if errors:
            raise DataError("McqItem: " + "; ".join(errors.values()))
        if not (isinstance(self.options, dict)
                and all(isinstance(t, str) for t in (*self.options, *self.options.values()))):
            raise DataError("McqItem: options must map letters to strings")
        if len(self.options) < 2:
            raise DataError("McqItem: need at least 2 options")
        # extract_choice reads an answer one character at a time
        if any(len(letter) != 1 for letter in self.options):
            raise DataError("McqItem: option letters must be single characters")
        if not self.gold:
            raise DataError("McqItem: gold names no letter")
        if not set(self.gold) <= set(self.options):
            raise DataError("McqItem: gold letters outside option letters")

    @property
    def answer(self):
        """The gold letters in letter order, as an answer is written."""
        return "".join(sorted(self.gold))


@dataclass
class PipelineStats:
    rejected: list = field(default_factory=list)
    lines: list = field(default_factory=list)  # the line number of each kept record


def _canonical_relations(relations):
    def key(rel):
        label, value = rel
        try:
            rank = KG_LABEL_ORDER.index(label)
        except ValueError:
            rank = len(KG_LABEL_ORDER)
        return (rank, label, value)

    return sorted(relations, key=key)


def linearize_kg(entity):
    """One deterministic text per entity: name once, one sentence per label."""
    if not entity.relations:
        return f"{entity.name}。"
    by_label = {}
    for label, value in _canonical_relations(entity.relations):
        by_label.setdefault(label, []).append(value)
    parts = []
    for label, values in by_label.items():
        label_text = KG_LABEL_TEXT.get(label, "的" + label)
        parts.append(f"{entity.name}{label_text}：{'、'.join(values)}。")
    return "".join(parts)


def flatten_dialogue(dialogue):
    """Speaker-tagged transcript: 'Q:' before a patient turn, 'A:' before a doctor turn."""
    lines = []
    for speaker, utterance in dialogue.turns:
        tag = PROMPT_Q if speaker == "patient" else PROMPT_A
        lines.append(tag + utterance)
    return "\n".join(lines)


def render_turns(question, history=()):
    """The one prompt template: each (question, answer) of ``history`` as
    'Q:...\\nA:...\\n', then 'Q:question\\nA:' for the answer to follow."""
    done = "".join(f"{PROMPT_Q}{q}\n{PROMPT_A}{a}\n" for q, a in history)
    return f"{done}{PROMPT_Q}{question}\n{PROMPT_A}"


def shots_before(items, i, k):
    """The few-shot exemplars of item i: the k items before it, cyclically,
    oldest first. Training (synth's few-shot exam records) and MCQ eval
    both take their shots by this rule."""
    return [items[(i - j) % len(items)] for j in range(k, 0, -1)]


def render_exam_question(question, options):
    """An exam question followed by its options, 'A.x B.y ...' in letter order."""
    return question + " " + " ".join(f"{k}.{v}" for k, v in sorted(options.items()))


def render_prompt(ex):
    """Rendered prompt text for an SftExample; response is appended by the trainer."""
    question = ex.instruction if not ex.input else f"{ex.instruction}\n{ex.input}"
    return render_turns(question, ex.history)


def render_bare_prompt(prompt):
    """Prompt rendering for preference pairs (same surface form as SFT)."""
    return render_turns(prompt)


# -- exact-substring dedup --------------------------------------------


def _mark_duplicate_windows(docs, min_span):
    """Mark every window of min_span characters whose content appeared at an
    earlier (doc, offset) position. Windows never cross document bounds.
    Returns one bytearray per doc, 1 at each marked character, and whether
    any window was marked."""
    seen = set()
    ones = b"\x01" * min_span
    marks = []
    found = False
    for doc in docs:
        mark = bytearray(len(doc))
        for i in range(len(doc) - min_span + 1):
            key = doc[i : i + min_span]
            if key in seen:
                mark[i : i + min_span] = ones
                found = True
            else:
                seen.add(key)
        marks.append(mark)
    return marks, found


def dedup_corpus(docs, min_span=50):
    """Remove later occurrences of any repeated token span of length >= min_span.

    Tokens are Unicode characters, and each window of min_span of them is
    keyed by its substring. Spans are compared within documents (position
    order: document order, then offset); the earliest occurrence is kept.
    Documents left with fewer than MIN_RESIDUAL_TOKENS tokens are dropped.
    Runs to a fixpoint, so the result is idempotent and contains no
    duplicate span of min_span or longer. Returns (kept_docs, report):
    report lists (doc_index, start, end) of every removed span, its offsets
    into the doc's text as that pass read it, and (doc_index, -1, -1) for
    every doc dropped whole.
    """
    if min_span < 2:
        raise DataError("dedup_corpus: min_span must be >= 2")
    alive = list(range(len(docs)))
    report = []
    while True:
        marks, found = _mark_duplicate_windows(docs, min_span)
        if not found:
            break
        next_docs = []
        next_alive = []
        for doc_i, doc, mark in zip(alive, docs, marks):
            parts = []
            end = 0
            while (start := mark.find(1, end)) >= 0:
                parts.append(doc[end:start])
                end = mark.find(0, start)
                if end < 0:
                    end = len(doc)
                report.append((doc_i, start, end))
            kept = "".join(parts) + doc[end:]
            if len(kept) >= MIN_RESIDUAL_TOKENS:
                next_docs.append(kept)
                next_alive.append(doc_i)
            elif len(kept) < len(doc):
                report.append((doc_i, -1, -1))  # whole doc dropped
        docs = next_docs
        alive = next_alive
    return list(docs), report


# -- block packing and loading ----------------------------------------


def token_stream(docs, vocab):
    """Encoded docs joined with EOS between consecutive documents."""
    stream = []
    for i, doc in enumerate(docs):
        if i > 0:
            stream.append(M.EOS)
        try:
            stream.extend(M.encode(vocab, doc))
        except Exception as exc:
            raise DataError(f"doc {i}: {exc}") from exc
    return stream


def pack_blocks(docs, vocab, block_size):
    """Chunk the EOS-joined stream into consecutive block_size windows. The
    last block is shorter when the stream does not fill it; it is kept if
    it holds a next-token pair (two tokens or more), so the end of the last
    doc is trained on too."""
    if block_size < 2:
        raise DataError("pack_blocks: block_size must be >= 2")
    stream = token_stream(docs, vocab)
    return [stream[i : i + block_size] for i in range(0, len(stream) - 1, block_size)]


def _parse_cpt(obj):
    text = obj["text"]
    if not isinstance(text, str) or not text.strip():
        raise DataError("cpt record: text must be a nonempty string")
    return text


def _parse_sft(obj):
    history = obj.get("history", [])
    if not (isinstance(history, list) and all(isinstance(turn, list) for turn in history)):
        raise DataError("sft record: history must be a list of [question, answer] lists")
    return SftExample(
        instruction=obj["instruction"],
        input=obj.get("input", ""),
        history=tuple(map(tuple, history)),
        output=obj["output"],
    )


def _parse_dpo(obj):
    return PreferencePair(
        prompt=obj["prompt"], preferred=obj["chosen"], rejected=obj["rejected"]
    )


def _parse_mcq(obj):
    return McqItem(question=obj["question"], options=obj["options"], gold=frozenset(obj["gold"]),
                   generated=obj.get("generated", ""), reference=obj.get("reference", ""))


def _parse_dialogue(obj):
    pair = (obj["prompt"], obj["reference"])
    if not all(isinstance(t, str) for t in pair) or not pair[1]:
        raise DataError("dialogue record: prompt and reference must be strings, "
                        "the reference nonempty")
    return pair


_PARSERS = {"cpt": _parse_cpt, "sft": _parse_sft, "dpo": _parse_dpo, "mcq": _parse_mcq,
            "dialogue": _parse_dialogue}


def to_json(record):
    """The JSONL object of a record of any file kind, which load_dataset
    parses back (an MCQ item's optional reference is read, not written)."""
    if isinstance(record, str):
        return {"text": record}
    if isinstance(record, SftExample):
        return {"instruction": record.instruction, "input": record.input,
                "history": [list(turn) for turn in record.history], "output": record.output}
    if isinstance(record, PreferencePair):
        return {"prompt": record.prompt, "chosen": record.preferred, "rejected": record.rejected}
    if isinstance(record, McqItem):
        return {"question": record.question, "options": record.options,
                "gold": record.answer, "generated": record.generated}
    if isinstance(record, tuple):  # a dialogue eval (prompt, reference)
        return {"prompt": record[0], "reference": record[1], "generated": ""}
    raise DataError(f"to_json: unsupported record {type(record)}")


def record_text(record):
    """All text carried by a record, for token accounting and the vocabulary;
    an MCQ item's is its question as eval prompts it, then its answer."""
    if isinstance(record, str):
        return record
    if isinstance(record, SftExample):
        return render_prompt(record) + record.output
    if isinstance(record, PreferencePair):
        return record.prompt + record.preferred + record.rejected
    if isinstance(record, McqItem):
        return render_exam_question(record.question, record.options) + record.answer
    if isinstance(record, tuple):
        return record[0] + record[1]
    raise DataError(f"record_text: unsupported record {type(record)}")


def load_dataset(path, schema):
    """The records of a JSONL file of one kind (cpt, sft, dpo, mcq or
    dialogue); returns (records, PipelineStats).

    A line that is not UTF-8 or not JSON raises DataError naming the file
    and line; a record that is not a JSON object or fails its invariants is
    skipped and logged to stats.rejected as "file:line: bad record (...)".
    """
    if schema not in _PARSERS:
        raise DataError(f"load_dataset: unknown schema {schema!r}")
    parse = _PARSERS[schema]
    records = []
    stats = PipelineStats()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw.decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
                raise DataError(f"{path}:{lineno}: malformed JSONL line ({exc})") from None
            try:
                if not isinstance(obj, dict):
                    raise DataError(f"{schema} record: not a JSON object")
                records.append(parse(obj))
                stats.lines.append(lineno)
            except (KeyError, TypeError, ValueError, DataError) as exc:
                stats.rejected.append(f"{path}:{lineno}: bad record ({exc!r})")
    return records, stats


def stats_table(rows):
    """Plain-text table: (dataset, samples, tokens, size-bytes) rows."""
    header = f"{'Dataset':<12} {'# of samples':>12} {'# of tokens':>12} {'Size':>10}"
    lines = [header, "-" * len(header)]
    for name, samples, tokens, size in rows:
        lines.append(f"{name:<12} {samples:>12} {tokens:>12} {size:>9}B")
    return "\n".join(lines)
