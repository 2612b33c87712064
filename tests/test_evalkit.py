import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from medlm import evalkit as E
from medlm import model as M
from medlm import trainer as TR
from medlm.errors import DataError


def _item(gold, generated, options=None):
    options = options or {"A": "甲", "B": "乙", "C": "丙", "D": "丁"}
    return E.McqItem(question="q?", options=options, gold=frozenset(gold),
                     generated=generated)


@pytest.mark.parametrize("fields, message", [
    ({"options": {"A": "甲"}}, "at least 2 options"),
    ({"gold": frozenset("E")}, "gold letters outside"),
    ({"question": 12}, "question must be a string, got 12"),
    ({"generated": None}, "generated must be a string"),
    ({"options": "AB"}, "options must map letters to strings"),
    ({"options": {"A": "甲", "B": 5}}, "options must map letters to strings"),
    # a letterless answer would match an empty gold; extract_choice reads one
    # character at a time, so it can never match a longer key
    ({"gold": frozenset()}, "gold names no letter"),
    ({"options": {"A": "甲", "BC": "乙"}, "gold": frozenset(["BC"])},
     "option letters must be single characters"),
], ids=["one-option", "gold-outside", "question-int", "generated-null", "options-str",
        "option-int", "gold-empty", "option-key-long"])
def test_mcq_item_invariants(fields, message):
    given = {"question": "q?", "options": {"A": "甲", "B": "乙"}, "gold": frozenset("A"),
             **fields}
    with pytest.raises(DataError, match=message):
        E.McqItem(**given)


class TestExtractChoice:
    def test_single_letter(self):
        assert E.extract_choice("A", "ABCD") == {"A"}

    def test_multi_letter_run_with_separators(self):
        assert E.extract_choice("答案是A、C两项", "ABCD") == {"A", "C"}
        assert E.extract_choice("B,D", "ABCD") == {"B", "D"}
        assert E.extract_choice("A C", "ABCD") == {"A", "C"}

    def test_first_run_wins(self):
        assert E.extract_choice("A。另外D也可能", "ABCD") == {"A"}

    def test_ignores_invalid_letters(self):
        assert E.extract_choice("X是错的，选B", "ABCD") == {"B"}

    def test_no_letter_gives_empty_set(self):
        assert E.extract_choice("不知道", "ABCD") == set()


class TestAccuracy:
    def test_exact_set_match(self):
        items = [_item("A", "A"), _item("AC", "A、C"), _item("B", "A")]
        assert E.accuracy(items) == pytest.approx(2 / 3)

    def test_partial_match_counts_as_wrong(self):
        items = [_item("AC", "A")]
        assert E.accuracy(items) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            E.accuracy([])


class TestWeightedF1:
    def test_worked_example(self):
        """gold [A, A, B] vs predictions [A, B, B].
        Label A: tp=1 fp=0 fn=1 -> F1 2/3, support 2.
        Label B: tp=1 fp=1 fn=0 -> F1 2/3, support 1.
        Weighted: (2*(2/3) + 1*(2/3)) / 3 = 2/3."""
        items = [_item("A", "A"), _item("A", "B"), _item("B", "B")]
        assert E.weighted_f1(items) == pytest.approx(2 / 3)

    def test_perfect_predictions(self):
        items = [_item("A", "A"), _item("BD", "B、D")]
        assert E.weighted_f1(items) == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_oracle_on_random_cases(self, seed):
        rng = np.random.default_rng(seed)
        letters = "ABCD"
        items = []
        for _ in range(rng.integers(1, 12)):
            gold = "".join(sorted(rng.choice(list(letters),
                                             rng.integers(1, 3), replace=False)))
            pred = "".join(rng.choice(list(letters), rng.integers(0, 3),
                                      replace=False))
            items.append(_item(gold, "、".join(pred)))
        golds = [frozenset(it.gold) for it in items]
        preds = [frozenset(E.extract_choice(it.generated, set(it.options)))
                 for it in items]
        assert E.weighted_f1(items) == pytest.approx(
            oracles.weighted_f1_bf(golds, preds), abs=1e-12)
        assert E.accuracy(items) == pytest.approx(
            oracles.accuracy_bf(golds, preds), abs=1e-12)


class TestBleu:
    def test_identical_strings(self):
        assert E.bleu_n("感冒吃药", "感冒吃药", 1) == pytest.approx(1.0)
        assert E.bleu_n("感冒吃药", "感冒吃药", 4) == pytest.approx(1.0)

    def test_worked_example_bleu1(self):
        """candidate 感冒吃药 vs reference 感冒服药: 3 of 4 unigrams match,
        equal lengths -> BP = 1, BLEU-1 = 0.75."""
        assert E.bleu_n("感冒吃药", "感冒服药", 1) == pytest.approx(0.75)

    def test_empty_candidate_is_zero(self):
        assert E.bleu_n("", "参考", 4) == 0.0

    def test_brevity_penalty(self):
        # candidate "ab" vs reference "abcd": p1 = 1, BP = exp(1 - 4/2)
        assert E.bleu_n("ab", "abcd", 1) == pytest.approx(math.exp(-1.0))

    def test_epsilon_smoothing_keeps_score_positive(self):
        score = E.bleu_n("xy", "xz", 4)  # no 2-4 gram matches
        assert 0 < score < 1e-4

    def test_clipping(self):
        # candidate repeats a char more often than the reference contains it
        cand, ref = "aaa", "ab"
        assert E.bleu_n(cand, ref, 1) == pytest.approx(
            oracles.bleu_bf(cand, ref, 1))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        alphabet = list("abc感冒")
        cand = "".join(rng.choice(alphabet, rng.integers(1, 15)))
        ref = "".join(rng.choice(alphabet, rng.integers(1, 15)))
        for n in (1, 2, 4):
            assert E.bleu_n(cand, ref, n) == pytest.approx(
                oracles.bleu_bf(cand, ref, n), abs=1e-9)


class TestRouge:
    def test_identical(self):
        assert E.rouge_n("abc", "abc", 1) == pytest.approx(1.0)
        assert E.rouge_l("abc", "abc") == pytest.approx(1.0)

    def test_worked_example_rouge_l(self):
        """candidate 感冒吃药 vs reference 感冒服药: LCS 感冒药 has length 3,
        P = R = 3/4 -> F1 = 0.75."""
        assert E.rouge_l("感冒吃药", "感冒服药") == pytest.approx(0.75)

    def test_disjoint_is_zero(self):
        assert E.rouge_n("abc", "xyz", 1) == 0.0
        assert E.rouge_l("abc", "xyz") == 0.0

    def test_empty_candidate(self):
        assert E.rouge_l("", "abc") == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(DataError):
            E.rouge_l("abc", "")
        with pytest.raises(DataError):
            E.rouge_n("abc", "", 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        alphabet = list("ab症状")
        cand = "".join(rng.choice(alphabet, rng.integers(0, 14)))
        ref = "".join(rng.choice(alphabet, rng.integers(1, 14)))
        assert E.rouge_n(cand, ref, 1) == pytest.approx(
            oracles.rouge_n_bf(cand, ref, 1), abs=1e-12)
        assert E.rouge_n(cand, ref, 2) == pytest.approx(
            oracles.rouge_n_bf(cand, ref, 2), abs=1e-12)
        assert E.rouge_l(cand, ref) == pytest.approx(
            oracles.rouge_l_bf(cand, ref), abs=1e-12)


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self, tiny_config):
        params = oracles.float64_table(M.init_params(tiny_config, np.random.default_rng(0)))
        params["head"].data[:] = 0.0
        ppl = E.perplexity(params, None, [[0, 4, 5, 6], [0, 7, 8]])
        assert ppl == pytest.approx(tiny_config.vocab_size, rel=1e-12)

    def test_token_weighted_mean(self, tiny_params):
        # pooling two blocks must weight by token count, not average the ppls
        b1, b2 = [0, 4, 5], [0, 6, 7, 8, 9, 10]
        from medlm import objectives as O

        l1 = O.cpt_loss(tiny_params, None, [b1]).item()
        l2 = O.cpt_loss(tiny_params, None, [b2]).item()
        expected = math.exp((l1 * 2 + l2 * 5) / 7)
        assert E.perplexity(tiny_params, None, [b1, b2]) == pytest.approx(expected)

    def test_empty_rejected(self, tiny_params):
        with pytest.raises(DataError):
            E.perplexity(tiny_params, None, [])


class TestFewShot:
    def test_prompt_layout(self):
        spec = E.FewShotSpec(exemplars=[("q1", "a1"), ("q2", "a2")])
        prompt = E.build_few_shot_prompt(spec, "q3")
        assert prompt == "Q:q1\nA:a1\nQ:q2\nA:a2\nQ:q3\nA:"

    def test_overflow_rejected(self):
        spec = E.FewShotSpec(exemplars=[("long" * 10, "a")])
        with pytest.raises(DataError):
            E.build_few_shot_prompt(spec, "q", max_len=20)

    def test_mcq_shots_are_the_items_before_cyclically(self):
        items = [_item(gold, "", options={"A": f"甲{i}", "B": f"乙{i}"})
                 for i, gold in enumerate("ABBA")]
        shot = [f"Q:{E.render_mcq_question(it)}\nA:{it.answer}\n" for it in items]
        question = [f"Q:{E.render_mcq_question(it)}\nA:" for it in items]
        assert E.mcq_prompt(items, 0, 2) == shot[2] + shot[3] + question[0]
        assert E.mcq_prompt(items, 1, 2) == shot[3] + shot[0] + question[1]
        assert E.mcq_prompt(items, 3, 2) == shot[1] + shot[2] + question[3]
        assert E.mcq_prompt(items, 2, 0) == question[2]
        for k in (4, 5, -1):  # an item would be its own shot
            with pytest.raises(DataError, match="few_shot_k"):
                E.mcq_prompt(items, 0, k)

    def test_render_mcq_question_sorts_options(self):
        item = _item("A", "", options={"B": "乙", "A": "甲"})
        assert E.render_mcq_question(item) == "q? A.甲 B.乙"


class TestEvaluate:
    def _state_and_vocab(self):
        vocab = M.build_vocab(["abcdQ:A:\n？。甲乙丙丁q? .ABCD"])
        cfg = M.ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=1,
                            n_heads=2, max_seq_len=128)
        params = M.init_params(cfg, np.random.default_rng(11))
        return TR.TrainState(params=params), vocab

    def test_mcq_fills_generated_and_reports(self):
        state, vocab = self._state_and_vocab()
        items = [_item("A", "") for _ in range(3)]
        report = E.evaluate_mcq(state, vocab, items, 1, max_new_tokens=2)
        assert report.n_items == 3
        assert all(isinstance(it.generated, str) for it in items)
        assert 0.0 <= report.accuracy <= 1.0

    def test_dialogue_reports_generation_metrics(self):
        state, vocab = self._state_and_vocab()
        report = E.evaluate_dialogue(state, vocab, [("Q:ab？\nA:", "cd。")],
                                     max_new_tokens=4)
        for name in ("bleu1", "bleu4", "rouge1", "rouge2", "rougeL"):
            assert getattr(report, name) is not None

    def test_report_as_dict_scales_by_100(self):
        report = E.EvalReport(n_items=2, accuracy=0.5)
        d = report.as_dict()
        assert d["accuracy"] == 50.0 and d["bleu1"] is None

    def test_write_report(self, tmp_path):
        report = E.EvalReport(n_items=1, accuracy=1.0)
        path = tmp_path / "report.json"
        E.write_report(report, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["accuracy"] == 100.0 and data["n_items"] == 1

    def test_table_renders(self):
        table = E.EvalReport(n_items=1, accuracy=0.5, rougeL=0.25).table()
        assert "accuracy" in table and "50.00" in table
