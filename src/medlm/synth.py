"""Bundled synthetic medical mini-corpus.

Templated disease facts, QA, dialogues, exam items and preference pairs
so training and evaluation runs need no external data. Everything is a
deterministic function of the seed. ``build_corpus`` returns the records
of the five corpus files as the types of ``medlm.data``, which alone
writes and reads them. A disease's knowledge-graph facts and its
patient-doctor dialogue are CPT text only, so they are written here as
plain strings; the CPT text of a QA pair or exam item is ``record_text``
of its example. The preference pairs and dialogue eval reuse the drug
and symptom QA examples. Rejected preference responses are deliberately
degraded (another disease's drug or an unhelpful stock reply).

Coverage is staged on purpose: knowledge, QA and dialogue text exists
for every disease, but exam-formatted text enters pre-training for the
first half of diseases only, and few-shot exam prompts appear only in
the fine-tuning split. That keeps the exam-format eval separable across
checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (PROMPT_A, PROMPT_Q, McqItem, PreferencePair, SftExample, record_text,
                   render_exam_question, shots_before)

# single distinct leading character per disease name
_NUMERALS = ["一", "二", "三", "四", "五", "六", "七", "八", "九", "十",
             "风", "火", "雷", "电", "山", "水", "金", "木", "土", "云"]
_SYMPTOMS = ["头痛", "发热", "咳嗽", "乏力", "眩晕", "耳鸣", "失眠", "腹泻",
             "恶心", "心悸", "盗汗", "畏寒"]
_CAUSES = ["风寒", "湿热", "气虚", "血瘀", "痰湿", "阴虚", "阳亢", "食积"]
_DRUGS = ["甲素丸", "乙素丸", "丙素丸", "丁素丸", "戊素散", "己素散",
          "庚素散", "辛素汤", "壬素汤", "癸素汤", "银花汤", "苓术散"]
_LETTERS = ["A", "B", "C", "D"]

REJECT_STOCK = "不清楚，请自行查询。"


@dataclass
class Disease:
    name: str
    symptoms: list
    cause: str
    drug: str


def make_diseases(n=20, seed=0):
    rng = np.random.default_rng(seed)
    diseases = []
    for i in range(n):
        name = _NUMERALS[i % len(_NUMERALS)] + "号病"
        # sorted, so the KG and QA texts list symptoms in one order
        symptoms = sorted(_SYMPTOMS[j] for j in rng.choice(len(_SYMPTOMS), 2, replace=False))
        cause = _CAUSES[int(rng.integers(len(_CAUSES)))]
        drug = _DRUGS[i % len(_DRUGS)]
        diseases.append(Disease(name, symptoms, cause, drug))
    return diseases


def _kg_text(d):
    """The disease's knowledge-graph facts, one sentence per relation."""
    return (f"{d.name}的病因：{d.cause}。{d.name}的症状：{'、'.join(d.symptoms)}。"
            f"{d.name}的推荐用药：{d.drug}。")


def _qa_examples(d):
    return [
        SftExample(f"{d.name}有什么症状？", f"{d.name}的症状是{'、'.join(d.symptoms)}。"),
        SftExample(f"{d.name}的病因是什么？", f"{d.name}的病因是{d.cause}。"),
        SftExample(f"{d.name}应该吃什么药？", f"推荐服用{d.drug}。"),
    ]


def _dialogue_text(d):
    """A patient-doctor transcript, one turn a line, tagged like a prompt."""
    return "\n".join([
        f"{PROMPT_Q}我最近{d.symptoms[0]}，还有{d.symptoms[1]}，怎么回事？",
        f"{PROMPT_A}可能是{d.name}，常因{d.cause}引起。",
        f"{PROMPT_Q}那我应该吃什么药？",
        f"{PROMPT_A}推荐服用{d.drug}。",
    ])


def exam_item(d, seed_offset=0):
    """4-option drug question; distractors drawn from other drugs."""
    rng = np.random.default_rng(1000 + seed_offset)
    others = [x for x in _DRUGS if x != d.drug]
    picks = [others[j] for j in rng.choice(len(others), 3, replace=False)]
    gold_pos = int(rng.integers(4))
    drugs = picks[:gold_pos] + [d.drug] + picks[gold_pos:]
    options = dict(zip(_LETTERS, drugs))
    gold = frozenset(_LETTERS[gold_pos])
    return McqItem(question=f"{d.name}的推荐用药是？", options=options, gold=gold)


def build_corpus(n_diseases=20, seed=0, duplicate_docs=2, few_shot_k=2):
    """The records of each corpus file, by kind: "cpt" docs (strings),
    "sft" SftExamples, "dpo" PreferencePairs, "mcq" McqItems and
    "dialogue" eval (prompt, reference) pairs.

    duplicate_docs controls how many CPT docs are repeated verbatim so the
    dedup stage has real work to do. few_shot_k is the number of shots of
    the MCQ eval prompts, which the few-shot exam records train on.
    """
    diseases = make_diseases(n_diseases, seed)
    half = n_diseases // 2

    cpt_docs = []
    sft_examples = []
    exam_examples = []
    pairs = []
    mcq_items = []
    dialogue_eval = []

    for i, d in enumerate(diseases):
        qa_examples = _qa_examples(d)
        symptom_qa, _, drug_qa = qa_examples
        item = exam_item(d, seed_offset=i)
        exam = SftExample(render_exam_question(item.question, item.options), item.answer)
        cpt_docs.append(_kg_text(d))
        cpt_docs.extend(record_text(ex) for ex in qa_examples)
        cpt_docs.append(_dialogue_text(d))
        if i < half:
            cpt_docs.append(record_text(exam))
        mcq_items.append(item)
        exam_examples.append(exam)

        # SFT covers everything, exam items included
        sft_examples += [*qa_examples, exam]

        # the next different drug, cyclically: the 12 drugs repeat from disease 12 on
        wrong = next(e.drug for e in diseases[i + 1:] + diseases[:i] if e.drug != d.drug)
        pairs.append(PreferencePair(
            prompt=drug_qa.instruction,
            preferred=drug_qa.output,
            rejected=f"推荐服用{wrong}。" if i % 2 == 0 else REJECT_STOCK,
        ))
        dialogue_eval.append((symptom_qa.instruction, symptom_qa.output))

    # exam items again with few_shot_k prior exam turns as history, so
    # answering works on the few-shot prompts MCQ eval builds
    for i, exam in enumerate(exam_examples):
        shots = shots_before(exam_examples, i, few_shot_k)
        history = tuple((s.instruction, s.output) for s in shots)
        sft_examples.append(SftExample(exam.instruction, exam.output, history=history))

    rng = np.random.default_rng(seed + 7)
    for _ in range(duplicate_docs):
        cpt_docs.append(cpt_docs[int(rng.integers(len(cpt_docs)))])

    return {
        "cpt": cpt_docs,
        "sft": sft_examples,
        "dpo": pairs,
        "mcq": mcq_items,
        "dialogue": dialogue_eval,
    }
