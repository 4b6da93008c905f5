import json

import numpy as np
import pytest

from sadcluster import cli
from sadcluster import corpus as corpus_module
from sadcluster.corpus import (
    Corpus,
    Document,
    filter_min_sentences,
    load_corpus,
    preprocess_newsgroup_style,
    preprocess_reuters_style,
    read_jsonl,
    save_corpus,
    split_sentences,
)
from sadcluster.tfidf import tokenize_text


class TestSplitSentences:
    def test_basic_two_sentences(self):
        assert split_sentences("First one. Second one.") == ["First one.", "Second one."]

    def test_terminators_retained(self):
        out = split_sentences("Really? Yes! Fine.")
        assert out == ["Really?", "Yes!", "Fine."]

    def test_abbreviation_no_split(self):
        assert split_sentences("Dr. Smith left. He ran.") == ["Dr. Smith left.", "He ran."]

    def test_decimal_no_split(self):
        assert split_sentences("Pi is 3.14 exactly") == ["Pi is 3.14 exactly"]

    def test_initial_no_split(self):
        assert split_sentences("J. Smith spoke. We listened.") == [
            "J. Smith spoke.",
            "We listened.",
        ]

    @pytest.mark.parametrize("text, expected", [
        ("It is plan b. Then we left.", ["It is plan b.", "Then we left."]),
        ("中. 好", ["中.", "好"]),
    ])
    def test_one_letter_that_is_not_a_capital_ends_a_sentence(self, text, expected):
        assert split_sentences(text) == expected

    def test_run_of_terminators_is_one_boundary(self):
        assert split_sentences("What?! Right... sure.") == ["What?!", "Right...", "sure."]

    def test_no_terminator_single_sentence(self):
        assert split_sentences("no punctuation here") == ["no punctuation here"]

    def test_empty_and_whitespace(self):
        assert split_sentences("") == []
        assert split_sentences("   \n\t ") == []

    def test_no_split_without_following_whitespace(self):
        assert split_sentences("v1.2 shipped") == ["v1.2 shipped"]
        assert split_sentences("see e.g. the appendix. Done.") == [
            "see e.g. the appendix.",
            "Done.",
        ]

    def test_idempotent_on_rejoin(self):
        texts = [
            "First one. Second one.",
            "Dr. Smith left. He ran.",
            "What?! Right... sure.",
            "Pi is 3.14 exactly. And 2.72 too.",
        ]
        for text in texts:
            once = split_sentences(text)
            again = split_sentences(" ".join(once))
            assert again == once

    def test_characters_preserved_modulo_whitespace(self):
        rng = np.random.default_rng(7)
        alphabet = list("abc .!?XY\n\t0129")
        for _ in range(200):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 60)))
            joined = "".join("".join(s.split()) for s in split_sentences(text))
            assert joined == "".join(text.split())


class TestLoadCorpus:
    def test_jsonl_single_doc(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "One two. Three four.", "label": 0}\n')
        corpus = load_corpus(p)
        assert len(corpus) == 1
        doc = corpus.documents[0]
        assert doc.id == "a"
        assert doc.sentences == ["One two.", "Three four."]
        assert doc.label == 0

    def test_jsonl_duplicate_id_cites_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(
            '{"id": "a", "text": "x"}\n'
            '{"id": "b", "text": "y"}\n'
            '{"id": "a", "text": "z"}\n'
        )
        with pytest.raises(ValueError, match="line 3"):
            load_corpus(p)

    def test_jsonl_malformed_cites_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "x"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_corpus(p)

    def test_jsonl_missing_text_cites_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a"}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_corpus(p)

    def test_jsonl_label_and_labels_conflict(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "x", "label": 0, "labels": [0]}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_corpus(p)

    def test_jsonl_label_values_rejected(self, tmp_path):
        # JSON true/false load as bool, which Python counts as an int
        p = tmp_path / "c.jsonl"
        for field, value in [("label", True), ("label", False), ("label", -1),
                             ("label", "0"), ("labels", [True]), ("labels", [0, False]),
                             ("labels", [0, -1]), ("labels", ["0"])]:
            p.write_text(json.dumps({"id": "a", "text": "x", field: value}) + "\n")
            with pytest.raises(ValueError, match=f"line 1: '{field}' must be"):
                load_corpus(p)

    @pytest.mark.parametrize("third, message", [
        ('{"id": "a", "text": "z"}', "line 3: duplicate id 'a' (first seen on line 1)"),
        ("not json", "line 3: invalid JSON (Expecting value)"),
    ], ids=["duplicate", "invalid-json"])
    def test_jsonl_blank_line_is_skipped_but_counted(self, tmp_path, third, message):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "x"}\n \t\n' + third + "\n")
        with pytest.raises(ValueError) as err:
            load_corpus(p)
        assert str(err.value) == message

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_dir_per_class_lexicographic(self, tmp_path):
        for cls, names in [("sports", ["b.txt", "a.txt"]), ("arts", ["z.txt"])]:
            d = tmp_path / cls
            d.mkdir()
            for name in names:
                (d / name).write_text(f"{cls} {name} body text here.")
        corpus = load_corpus(tmp_path)
        assert corpus.label_names == ["arts", "sports"]
        assert [d.id for d in corpus.documents] == [
            "arts/z.txt", "sports/a.txt", "sports/b.txt",
        ]
        assert [d.label for d in corpus.documents] == [0, 1, 1]

    def test_dir_undecodable_byte_becomes_replacement_character(self, tmp_path):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "a.txt").write_bytes(b"caf\xffbar here.")
        text = load_corpus(tmp_path).documents[0].text
        assert text == "caf\ufffdbar here."
        assert tokenize_text(text) == ["caf", "bar", "here"]

    def test_roundtrip_through_save(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(
            '{"id": "a", "text": "One. Two.", "label": 1}\n'
            '{"id": "b", "text": "Three."}\n'
        )
        corpus = load_corpus(p)
        out = tmp_path / "out.jsonl"
        save_corpus(corpus, out)
        again = load_corpus(out)
        assert [(d.id, d.text, d.label) for d in again.documents] == [
            (d.id, d.text, d.label) for d in corpus.documents
        ]

    def test_save_writes_sorted_keys_and_escapes_non_ascii(self, tmp_path):
        out = tmp_path / "out.jsonl"
        save_corpus(Corpus([Document("b", "Caf\u00e9.", labels=(2, 0)),
                            Document("a", "x", label=1), Document("c", "y")]), out)
        assert out.read_bytes() == (
            b'{"id": "b", "labels": [2, 0], "text": "Caf\\u00e9."}\n'
            b'{"id": "a", "label": 1, "text": "x"}\n'
            b'{"id": "c", "text": "y"}\n')


class TestReadJsonl:
    def test_yields_each_non_blank_line_with_its_number(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text('{"a": 1}\n\n  \n[2]\nnull\n')
        assert list(read_jsonl(p)) == [(1, {"a": 1}), (4, [2]), (5, None)]

    @pytest.mark.parametrize("lines", [
        ['{"id": "a", "text": "x"}', '{"id": "a", "text": "y"}', '{"id": "b", "text": "z"}'],
        ['{"id": "a", "text": "x"}', "not json", '{"id": "b", "text": "z"}'],
        ['{"id": "a", "cluster": 0}', '{"id": "a", "cluster": 1}', '{"id": "b", "cluster": 0}'],
        ['{"id": "a", "cluster": 0}', "not json", '{"id": "b", "cluster": 0}'],
    ], ids=["corpus-duplicate", "corpus-invalid-json", "assignments-duplicate",
            "assignments-invalid-json"])
    def test_a_line_rejected_mid_file_leaves_no_file_open(self, tmp_path, monkeypatch,
                                                           lines):
        # the duplicate is rejected by the reader's own check while read_jsonl
        # is suspended at its yield; the invalid line inside read_jsonl
        p = tmp_path / "x.jsonl"
        p.write_text("\n".join(lines) + "\n")
        opened = []

        def tracking_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(corpus_module, "open", tracking_open, raising=False)
        reader = load_corpus if "text" in lines[0] else cli._read_assignments
        with pytest.raises(ValueError, match="line 2: "):
            reader(p)
        assert len(opened) == 1 and opened[0].closed


class TestCorpusValidation:
    def test_duplicate_ids_rejected(self):
        docs = [Document("a", "x"), Document("a", "y")]
        with pytest.raises(ValueError, match="duplicate"):
            Corpus(docs)

    def test_labels_array_requires_all_labels(self):
        corpus = Corpus([Document("a", "x", label=0), Document("b", "y")])
        with pytest.raises(ValueError, match="no label"):
            corpus.labels_array()

    def test_labels_array_error_names_the_count_and_first_id(self):
        corpus = Corpus([Document("a", "x", label=0), Document("b", "y"),
                         Document("c", "z")])
        with pytest.raises(ValueError, match=r"^2 of 3 documents have no label "
                                             r"\(first unlabeled: 'b'\)$"):
            corpus.labels_array()


class TestNewsgroupPreprocess:
    def _corpus(self, text):
        return Corpus([Document("d0", text, label=0)])

    def test_header_block_stripped(self):
        text = (
            "From: someone@example.com\n"
            "Subject: hello world\n"
            "\n"
            "The actual body starts here and it has plenty of words to keep."
        )
        out = preprocess_newsgroup_style(self._corpus(text))
        assert len(out) == 1
        assert "Subject" not in out.documents[0].text
        assert out.documents[0].text.startswith("The actual body")

    def test_no_blank_line_means_no_header(self):
        text = "Subject: this looks like a header but there is no blank line after it ever"
        out = preprocess_newsgroup_style(self._corpus(text))
        assert out.documents[0].text == text

    def test_footer_after_double_dash_removed(self):
        text = (
            "Body line one has words. Body line two has words too honestly.\n"
            "--\n"
            "signature line\nanother signature line"
        )
        out = preprocess_newsgroup_style(self._corpus(text))
        assert "signature" not in out.documents[0].text

    def test_urls_and_emails_removed(self):
        text = (
            "Check https://example.com/page and write to someone@example.org "
            "for details about the plan we described earlier this week."
        )
        out = preprocess_newsgroup_style(self._corpus(text))
        body = out.documents[0].text
        assert "example.com" not in body
        assert "@" not in body

    def test_short_documents_dropped(self):
        nine = "one two three four five six seven eight nine"
        ten = nine + " ten"
        corpus = Corpus([Document("a", nine), Document("b", ten)])
        out = preprocess_newsgroup_style(corpus, min_words=10)
        assert [d.id for d in out.documents] == ["b"]

    def test_idempotent(self):
        text = (
            "From: x@y.example\nSubject: s\n\n"
            "Real body with several words goes right here in this line.\n"
            "--\nsig\n--\nmore sig"
        )
        once = preprocess_newsgroup_style(self._corpus(text))
        twice = preprocess_newsgroup_style(once)
        assert [d.text for d in twice.documents] == [d.text for d in once.documents]

    def test_never_increases_count(self):
        rng = np.random.default_rng(3)
        words = ["alpha", "beta", "gamma", "delta", "--", "Subject:", "x@y.zz"]
        docs = []
        for i in range(50):
            body = " ".join(rng.choice(words, size=rng.integers(1, 30)))
            docs.append(Document(f"d{i}", body))
        corpus = Corpus(docs)
        out = preprocess_newsgroup_style(corpus)
        assert len(out) <= len(corpus)

    def test_min_words_validation(self):
        with pytest.raises(ValueError):
            preprocess_newsgroup_style(Corpus([]), min_words=0)


class TestReutersPreprocess:
    def test_multilabel_and_empty_removed(self):
        docs = [
            Document("a", "kept body", label=0),
            Document("b", "two labels", labels=(0, 1)),
            Document("c", "   "),
        ]
        out = preprocess_reuters_style(Corpus(docs), top_k_classes=5)
        assert [d.id for d in out.documents] == ["a"]

    def test_duplicates_keep_first(self):
        docs = [
            Document("a", "same  text here", label=0),
            Document("b", "same text  here", label=0),
            Document("c", "different text", label=0),
        ]
        out = preprocess_reuters_style(Corpus(docs), top_k_classes=1)
        assert [d.id for d in out.documents] == ["a", "c"]

    def test_top_k_cutoff(self):
        docs = []
        for label, count in [(0, 5), (1, 3), (2, 1)]:
            for i in range(count):
                docs.append(Document(f"{label}-{i}", f"text {label} {i}", label=label))
        out = preprocess_reuters_style(Corpus(docs), top_k_classes=2)
        assert len(out) == 8
        assert {d.label for d in out.documents} == {0, 1}

    def test_relabel_by_descending_frequency(self):
        docs = []
        for label, count in [(4, 2), (7, 5)]:
            for i in range(count):
                docs.append(Document(f"{label}-{i}", f"text {label} {i}", label=label))
        out = preprocess_reuters_style(Corpus(docs), top_k_classes=2)
        # label 7 is most frequent so it becomes 0; label 4 becomes 1
        remapped = {d.id.split("-")[0]: d.label for d in out.documents}
        assert remapped == {"7": 0, "4": 1}

    def test_frequency_tie_broken_by_original_label(self):
        docs = [
            Document("x0", "text x0", label=3),
            Document("y0", "text y0", label=1),
        ]
        out = preprocess_reuters_style(Corpus(docs), top_k_classes=2)
        remapped = {d.id: d.label for d in out.documents}
        assert remapped == {"y0": 0, "x0": 1}

    def test_label_names_follow_relabel(self):
        docs = [
            Document("a", "t a", label=0),
            Document("b1", "t b1", label=1),
            Document("b2", "t b2", label=1),
        ]
        corpus = Corpus(docs, label_names=["zero", "one"])
        out = preprocess_reuters_style(corpus, top_k_classes=2)
        assert out.label_names == ["one", "zero"]


class TestFilterMinSentences:
    def test_default_threshold_four(self):
        three = Document("a", "One. Two. Three.")
        four = Document("b", "One. Two. Three. Four.")
        out = filter_min_sentences(Corpus([three, four]))
        assert [d.id for d in out.documents] == ["b"]

    def test_custom_threshold(self):
        docs = [Document("a", "One. Two."), Document("b", "One.")]
        out = filter_min_sentences(Corpus(docs), min_sentences=2)
        assert [d.id for d in out.documents] == ["a"]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            filter_min_sentences(Corpus([]), min_sentences=0)
