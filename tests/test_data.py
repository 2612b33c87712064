import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from medlm import data as D
from medlm import model as M
from medlm import synth
from medlm.errors import DataError


class TestKgLinearization:
    def test_canonical_order_and_grouping(self):
        d = synth.Disease("感冒", ["发热", "咳嗽"], "风寒", "药A")
        assert synth._kg_text(d) == "感冒的病因：风寒。感冒的症状：发热、咳嗽。感冒的推荐用药：药A。"


class TestDialogue:
    def test_pretrain_text(self):
        d = synth.Disease("感冒", ["发热", "咳嗽"], "风寒", "药A")
        assert synth._dialogue_text(d) == ("Q:我最近发热，还有咳嗽，怎么回事？\n"
                                           "A:可能是感冒，常因风寒引起。\n"
                                           "Q:那我应该吃什么药？\n"
                                           "A:推荐服用药A。")


class TestRenderPrompt:
    def test_history_then_question(self):
        ex = D.SftExample(instruction="q2", output="a2", history=(("q1", "a1"),))
        assert D.render_prompt(ex) == "Q:q1\nA:a1\nQ:q2\nA:"

    def test_input_appended_to_instruction(self):
        ex = D.SftExample(instruction="归纳", input="正文", output="a")
        assert D.render_prompt(ex) == "Q:归纳\n正文\nA:"

    def test_bare_prompt_matches_sft_surface(self):
        ex = D.SftExample(instruction="q", output="a")
        assert D.render_bare_prompt("q") == D.render_prompt(ex)


class TestDedup:
    def test_simple_duplicate_doc_removed(self):
        doc = "这是一段足够长的重复文本，超过窗口长度限制。"
        kept, report = D.dedup_corpus([doc, doc], min_span=5)
        assert kept == [doc]
        assert (1, -1, -1) in report

    def test_earliest_occurrence_kept(self):
        span = "abcdefghij" * 2
        docs = ["前缀前缀前缀前缀" + span, span + "独特的尾部残余内容足够长"]
        kept, report = D.dedup_corpus(docs, min_span=len(span))
        assert kept[0] == docs[0]
        assert span not in kept[1]

    def test_no_false_positives_below_min_span(self):
        docs = ["abcd一二三四五六七八", "abcd九十壹贰叁肆伍陆"]
        kept, report = D.dedup_corpus(docs, min_span=5)
        assert kept == docs and report == []

    def test_short_residual_dropped(self):
        span = "abcdefghijklmnopqrst"
        docs = [span + "一二三四五六七八九十补足残余内容", span + "尾巴"]
        kept, report = D.dedup_corpus(docs, min_span=len(span))
        assert len(kept) == 1
        assert (1, -1, -1) in report

    def test_result_is_idempotent_and_clean(self):
        rng = np.random.default_rng(3)
        alphabet = "abcde"
        docs = ["".join(rng.choice(list(alphabet), 60)) for _ in range(6)]
        docs.append(docs[0])
        kept, _ = D.dedup_corpus(docs, min_span=8)
        assert not oracles.duplicate_spans_exist(kept, 8)
        again, report = D.dedup_corpus(kept, min_span=8)
        assert again == kept and report == []

    def test_min_span_validation(self):
        with pytest.raises(DataError):
            D.dedup_corpus(["abc"], min_span=1)

    def test_report_lists_spans_then_drop_markers(self):
        docs = ["abcdefghijklmnop" * 2, "abcdefghijklmnop", "zzzz" + "abcdefghijklmnop"]
        kept, report = D.dedup_corpus(docs, min_span=5)
        assert kept == ["abcdefghijklmnop"]
        assert report == [(0, 16, 32), (1, 0, 16), (1, -1, -1), (2, 4, 20), (2, -1, -1)]

    def test_second_pass_reports_offsets_into_its_own_text(self):
        # pass 1 cuts "cYb" out of doc 1, which joins "a" and "Xa" into
        # "aXa", a repeat of doc 0 that pass 2 cuts from the joined text
        docs = ["cYbbbaaXab", "YcbacYbXaccbY"]
        kept, report = D.dedup_corpus(docs, 3)
        assert kept == [docs[0]]
        assert report == [(1, 4, 7), (1, 3, 6), (1, -1, -1)]
        assert oracles.dedup_corpus_ref(docs, 3) == (kept, report)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["ab", "abc"]).flatmap(
               lambda alphabet: st.lists(st.text(alphabet=alphabet, max_size=60),
                                         min_size=1, max_size=6)),
           st.integers(min_value=2, max_value=6))
    def test_matches_the_tuple_window_oracle(self, docs, min_span):
        # about one case in five needs a second pass
        assert D.dedup_corpus(docs, min_span) == oracles.dedup_corpus_ref(docs, min_span)

    @pytest.mark.parametrize("seed", range(8))
    def test_synth_corpora_match_the_oracle(self, seed):
        for duplicate_docs in (0, 2, 5):
            docs = synth.build_corpus(n_diseases=20, seed=seed,
                                      duplicate_docs=duplicate_docs)["cpt"]
            for min_span in (2, 5, 20, 50):
                assert D.dedup_corpus(docs, min_span) == oracles.dedup_corpus_ref(docs, min_span)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_random_corpora_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        docs = ["".join(rng.choice(list("abc"), rng.integers(15, 50)))
                for _ in range(rng.integers(2, 5))]
        kept, _ = D.dedup_corpus(docs, min_span=6)
        assert not oracles.duplicate_spans_exist(kept, 6)


class TestPacking:
    def test_blocks_are_exact_and_short_tail_kept(self):
        vocab = M.build_vocab(["abc"])
        blocks = D.pack_blocks(["abc", "ab"], vocab, block_size=4)
        stream = D.token_stream(["abc", "ab"], vocab)
        assert len(stream) == 6  # 3 + EOS + 2
        assert blocks == [stream[:4], stream[4:]]

    def test_one_token_tail_is_not_a_block(self):
        # a block of one token has no next-token target
        vocab = M.build_vocab(["abc"])
        stream = D.token_stream(["abc", "a"], vocab)
        assert len(stream) == 5
        assert D.pack_blocks(["abc", "a"], vocab, block_size=4) == [stream[:4]]
        assert D.pack_blocks(["abc", "a"], vocab, block_size=5) == [stream]

    @pytest.mark.parametrize("seed", range(5))
    def test_every_synth_token_reaches_a_block(self, seed):
        # the stream ends inside the last disease's docs: a dropped tail
        # would keep their end out of CPT
        docs, _ = D.dedup_corpus(synth.build_corpus(n_diseases=20, seed=seed)["cpt"], 20)
        vocab = M.build_vocab(docs)
        blocks = D.pack_blocks(docs, vocab, block_size=128)
        assert [t for block in blocks for t in block] == D.token_stream(docs, vocab)
        assert all(len(block) == 128 for block in blocks[:-1])

    def test_eos_between_docs_only(self):
        vocab = M.build_vocab(["ab"])
        stream = D.token_stream(["a", "b"], vocab)
        assert stream == [vocab.id_of["a"], M.EOS, vocab.id_of["b"]]

    def test_unencodable_doc_names_index(self):
        vocab = M.build_vocab(["ab"])
        with pytest.raises(DataError, match="doc 1"):
            D.token_stream(["a", "z"], vocab)


class TestLoadDataset:
    def _write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_cpt_schema(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"text": "一段文本"})])
        records, stats = D.load_dataset(path, "cpt")
        assert records == ["一段文本"] and stats.rejected == []

    def test_sft_schema_with_history(self, tmp_path):
        obj = {"instruction": "q", "input": "", "history": [["h", "r"]], "output": "a"}
        path = self._write(tmp_path, [json.dumps(obj)])
        records, _ = D.load_dataset(path, "sft")
        assert records[0].history == (("h", "r"),)

    def test_dpo_schema(self, tmp_path):
        obj = {"prompt": "p", "chosen": "c", "rejected": "r"}
        path = self._write(tmp_path, [json.dumps(obj)])
        records, _ = D.load_dataset(path, "dpo")
        assert records[0].preferred == "c"

    def test_malformed_json_names_line(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"text": "ok"}), "{broken"])
        with pytest.raises(DataError, match=":2:"):
            D.load_dataset(path, "cpt")

    def test_invalid_record_skipped_and_logged(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"text": "ok这是文本"}),
            json.dumps({"text": "   "}),
            json.dumps({"text": 42}),
            json.dumps({"text": "二"}),
        ])
        records, stats = D.load_dataset(path, "cpt")
        assert records == ["ok这是文本", "二"] and stats.lines == [1, 4]
        assert len(stats.rejected) == 2
        assert stats.rejected[0].startswith(f"{path}:2: bad record (DataError('cpt record")
        assert stats.rejected[1].startswith(f"{path}:3: bad record")

    @pytest.mark.parametrize("schema, obj, message", [
        ("sft", {"instruction": "q", "output": 5}, "output must be a string, got 5"),
        ("sft", {"instruction": ["a"], "output": "b"}, "instruction must be a string"),
        ("sft", {"instruction": "q", "input": 3, "output": "a"}, "input must be a string"),
        ("sft", {"instruction": "q", "history": [["h", 1]], "output": "a"},
         "history turn 0 must be two strings"),
        ("dpo", {"prompt": "p", "chosen": 7, "rejected": "r"}, "preferred must be a string"),
        ("dpo", {"prompt": None, "chosen": "c", "rejected": "r"}, "prompt must be a string"),
        # a turn is a two-element list, not any two-item iterable
        ("sft", {"instruction": "q", "history": ["xy"], "output": "a"},
         "history must be a list of [question, answer] lists"),
        ("sft", {"instruction": "q", "history": {"ab": 1}, "output": "a"},
         "history must be a list of [question, answer] lists"),
        ("sft", {"instruction": "q", "history": [["a", "b", "c"]], "output": "a"},
         "history turn 0 must be two strings"),
    ], ids=["sft-output-int", "sft-instruction-list", "sft-input-int",
            "sft-history-int", "dpo-chosen-int", "dpo-prompt-null", "sft-history-str-turn",
            "sft-history-dict", "sft-history-three-items"])
    def test_non_string_text_is_skipped_and_logged(self, tmp_path, schema, obj, message):
        path = self._write(tmp_path, [json.dumps(obj)])
        records, stats = D.load_dataset(path, schema)
        assert records == []
        assert len(stats.rejected) == 1
        assert stats.rejected[0].startswith(f"{path}:1: bad record")
        assert message in stats.rejected[0]

    @pytest.mark.parametrize("schema", ["cpt", "sft", "dpo", "mcq", "dialogue"])
    def test_non_object_line_is_rejected_by_line(self, tmp_path, schema):
        path = self._write(tmp_path, ["[1, 2]", '"a string"', "5", "null"])
        records, stats = D.load_dataset(path, schema)
        assert records == []
        assert stats.rejected == [
            f"{path}:{n}: bad record (DataError('{schema} record: not a JSON object'))"
            for n in range(1, 5)]

    def test_unknown_schema(self, tmp_path):
        path = self._write(tmp_path, ["{}"])
        with pytest.raises(DataError):
            D.load_dataset(path, "nope")


def test_stats_table_layout():
    table = D.stats_table([("cpt", 10, 1234, 5678)])
    lines = table.split("\n")
    assert "Dataset" in lines[0] and "# of samples" in lines[0]
    assert "cpt" in lines[2] and "1234" in lines[2]


def test_preference_pair_invariants():
    with pytest.raises(DataError):
        D.PreferencePair(prompt="p", preferred="same", rejected="same")
    with pytest.raises(DataError):
        D.PreferencePair(prompt="", preferred="a", rejected="b")
    with pytest.raises(DataError, match="preferred must be a string, got 7"):
        D.PreferencePair(prompt="p", preferred=7, rejected="r")


@pytest.mark.parametrize("fields, message", [
    ({"instruction": "", "output": "a"}, "nonempty"),
    ({"instruction": "q", "output": 5}, "output must be a string, got 5"),
    ({"instruction": ["a"], "output": "b"}, "instruction must be a string"),
    ({"instruction": "q", "output": "a", "input": None}, "input must be a string"),
    ({"instruction": "q", "output": "a", "history": (("h", "r"), ("h", 2))},
     "history turn 1 must be two strings"),
    ({"instruction": "q", "output": "a", "history": ("xy",)},
     "history turn 0 must be two strings"),
], ids=["instruction-empty", "output-int", "instruction-list", "input-null", "history-int",
        "history-str-turn"])
def test_sft_example_invariants(fields, message):
    with pytest.raises(DataError, match=message):
        D.SftExample(**fields)
