"""Evaluation surface: answer-letter extraction, MCQ accuracy and
weighted F1, character-level BLEU/ROUGE, perplexity and few-shot
prompt assembly.

BLEU and ROUGE tokenize candidates and references into Unicode
characters; every metric lives in [0, 1] (reports scale by 100).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

from . import kernels
from . import model as M
from . import objectives as O
from . import tensor as T
from .atomic import atomic_write
from .data import (McqItem,  # noqa: F401 (re-exported)
                   render_exam_question, render_turns, shots_before)
from .errors import DataError

BLEU_EPS = 1e-9
CHOICE_SEPARATORS = set("、,，/ ")


@dataclass
class EvalReport:
    n_items: int
    accuracy: float | None = None
    weighted_f1: float | None = None
    bleu1: float | None = None
    bleu4: float | None = None
    rouge1: float | None = None
    rouge2: float | None = None
    rougeL: float | None = None
    extra: dict = field(default_factory=dict)
    items: list = field(default_factory=list, repr=False)  # per-item records, not in as_dict

    def as_dict(self):
        """Machine-readable form; metric fields scaled x100 like the tables."""
        out = {"n_items": self.n_items}
        for name in ("accuracy", "weighted_f1", "bleu1", "bleu4",
                     "rouge1", "rouge2", "rougeL"):
            value = getattr(self, name)
            out[name] = None if value is None else round(100.0 * value, 4)
        out.update(self.extra)
        return out

    def table(self):
        lines = [f"{'metric':<12} {'value':>8}", "-" * 21]
        for name, value in self.as_dict().items():
            if value is not None:
                shown = f"{value:.2f}" if isinstance(value, float) else value
                lines.append(f"{name:<12} {shown:>8}")
        return "\n".join(lines)


@dataclass
class FewShotSpec:
    exemplars: list  # of (question, answer)


def extract_choice(generated, valid):
    """First maximal run of valid letters (separators allowed inside), as a set."""
    valid = set(valid)
    found = set()
    i = 0
    n = len(generated)
    while i < n:
        if generated[i] in valid:
            while i < n and (generated[i] in valid or generated[i] in CHOICE_SEPARATORS):
                if generated[i] in valid:
                    found.add(generated[i])
                i += 1
            return found
        i += 1
    return found


def accuracy(items):
    if not items:
        raise DataError("accuracy: empty item list")
    hits = sum(
        1 for it in items
        if extract_choice(it.generated, set(it.options)) == set(it.gold)
    )
    return hits / len(items)


def weighted_f1(items):
    """Support-weighted one-vs-rest F1; labels are the distinct gold sets."""
    if not items:
        raise DataError("weighted_f1: empty item list")
    golds = [frozenset(it.gold) for it in items]
    preds = [frozenset(extract_choice(it.generated, set(it.options))) for it in items]
    total = 0.0
    for label in sorted(set(golds), key=sorted):
        tp = sum(1 for g, p in zip(golds, preds) if g == label and p == label)
        fp = sum(1 for g, p in zip(golds, preds) if g != label and p == label)
        fn = sum(1 for g, p in zip(golds, preds) if g == label and p != label)
        support = sum(1 for g in golds if g == label)
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        total += support * f1
    return total / len(items)


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_n(candidate, reference, n):
    """Geometric mean of modified 1..n-gram precisions with epsilon
    smoothing on zero counts, times the brevity penalty."""
    if n < 1:
        raise DataError("bleu_n: n must be >= 1")
    cand = list(candidate)
    ref = list(reference)
    if not cand:
        return 0.0
    log_sum = 0.0
    for k in range(1, n + 1):
        c_counts = _ngram_counts(cand, k)
        r_counts = _ngram_counts(ref, k)
        total = sum(c_counts.values())
        if total == 0:
            matched = 0.0
            total = 1
        else:
            matched = sum(min(c, r_counts[g]) for g, c in c_counts.items())
        p = matched / total if matched > 0 else BLEU_EPS
        log_sum += math.log(p)
    bp = min(1.0, math.exp(1.0 - len(ref) / len(cand)))
    return bp * math.exp(log_sum / n)


def rouge_n(candidate, reference, n):
    """F1 of clipped n-gram overlap."""
    cand = list(candidate)
    ref = list(reference)
    if not ref:
        raise DataError("rouge_n: empty reference")
    c_counts = _ngram_counts(cand, n)
    r_counts = _ngram_counts(ref, n)
    overlap = sum(min(c, r_counts[g]) for g, c in c_counts.items())
    c_total = sum(c_counts.values())
    r_total = sum(r_counts.values())
    if overlap == 0 or c_total == 0 or r_total == 0:
        return 0.0
    precision = overlap / c_total
    recall = overlap / r_total
    return 2 * precision * recall / (precision + recall)


def rouge_l(candidate, reference):
    """F1 from longest-common-subsequence length (character tokens)."""
    if not reference:
        raise DataError("rouge_l: empty reference")
    if not candidate:
        return 0.0
    lcs = kernels.lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return 2 * precision * recall / (precision + recall)


def perplexity(params, adapter, blocks):
    """exp(token-mean next-token NLL over all blocks): exp(cpt_loss), no grad."""
    with T.no_grad():
        return math.exp(O.cpt_loss(params, adapter, blocks).item())


def build_few_shot_prompt(spec, question, max_len=None):
    """Exemplars in order, each 'Q:...\\nA:...\\n', then the open question."""
    prompt = render_turns(question, spec.exemplars)
    if max_len is not None and len(prompt) > max_len:
        raise DataError(
            f"few-shot prompt length {len(prompt)} exceeds context {max_len}"
        )
    return prompt


def render_mcq_question(item):
    return render_exam_question(item.question, item.options)


def mcq_prompt(items, i, few_shot_k, max_len=None):
    """Item i's few-shot prompt: the few_shot_k items before it, cyclically
    (``data.shots_before``, the rule synth trains on), each with its answer,
    then its own question. An item is never among its own shots."""
    if not 0 <= few_shot_k < len(items):
        raise DataError(f"few_shot_k {few_shot_k} needs more than that many items, "
                        f"got {len(items)}")
    spec = FewShotSpec(exemplars=[(render_mcq_question(s), s.answer)
                                  for s in shots_before(items, i, few_shot_k)])
    return build_few_shot_prompt(spec, render_mcq_question(items[i]), max_len)


def generate_text(state, vocab, prompt, max_new):
    """Greedy continuation of the text prompt, BOS first, special tokens dropped."""
    prompt_ids = [M.BOS] + M.encode(vocab, prompt)
    out_ids = M.generate_greedy(state.params, state.adapter, prompt_ids, max_new)
    return M.decode_text(vocab, out_ids)


def evaluate_mcq(state, vocab, items, few_shot_k, max_new_tokens=8):
    """Greedy-decode an answer for each item from its ``mcq_prompt``, then
    score letters.

    BLEU/ROUGE of the generated text against the reference explanation
    are included when any item carries a reference.
    """
    if not items:
        raise DataError("evaluate_mcq: no items")
    max_prompt = state.params.config.max_seq_len - max_new_tokens - 1
    prompts = []
    for idx, item in enumerate(items):
        try:
            prompts.append(mcq_prompt(items, idx, few_shot_k, max_prompt))
            item.generated = generate_text(state, vocab, prompts[-1], max_new_tokens)
        except Exception as exc:
            raise DataError(f"item {idx}: {exc}") from exc
    report = EvalReport(n_items=len(items), accuracy=accuracy(items),
                        weighted_f1=weighted_f1(items), items=mcq_records(items, prompts))
    scored = [(it.generated, it.reference) for it in items if it.reference]
    if scored:
        _add_generation_metrics(report, scored)
    return report


def evaluate_dialogue(state, vocab, pairs, max_new_tokens=64):
    """pairs: (prompt, reference); greedy generation scored with BLEU/ROUGE."""
    if not pairs:
        raise DataError("evaluate_dialogue: no pairs")
    scored = []
    for idx, (prompt, reference) in enumerate(pairs):
        try:
            generated = generate_text(state, vocab, prompt, max_new_tokens)
        except Exception as exc:
            raise DataError(f"item {idx}: {exc}") from exc
        scored.append((generated, reference))
    report = EvalReport(n_items=len(pairs))
    scores = _add_generation_metrics(report, scored)
    report.items = [{"index": idx, "prompt": prompt, "generated": generated,
                     "reference": reference, **row}
                    for idx, ((prompt, _), (generated, reference), row)
                    in enumerate(zip(pairs, scored, scores))]
    return report


def mcq_records(items, prompts):
    """Per item: its index, prompt (None when none was decoded), generated
    text, the letters ``extract_choice`` reads from it and the gold letters,
    each set written in letter order as ``mcq.jsonl`` writes gold."""
    return [{"index": idx, "prompt": prompt, "generated": it.generated,
             "letters": "".join(sorted(extract_choice(it.generated, set(it.options)))),
             "gold": it.answer}
            for idx, (it, prompt) in enumerate(zip(items, prompts))]


def _add_generation_metrics(report, scored):
    """Set the report's BLEU and ROUGE to their means over the (candidate,
    reference) pairs; return each pair's scores."""
    rows = [{"bleu1": bleu_n(c, r, 1), "bleu4": bleu_n(c, r, 4), "rouge1": rouge_n(c, r, 1),
             "rouge2": rouge_n(c, r, 2), "rougeL": rouge_l(c, r)} for c, r in scored]
    for name in rows[0]:
        setattr(report, name, sum(row[name] for row in rows) / len(rows))
    return rows


def write_report(report, path):
    atomic_write(json.dumps(report.as_dict(), ensure_ascii=False, indent=2) + "\n", path)


def write_items(report, path):
    """``report.items`` as JSON lines, one record per item, in item order."""
    atomic_write("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in report.items), path)
