import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sadcluster import cli, contrastive
from sadcluster import corpus as corpus_module
from sadcluster.cli import main, read_embeddings, write_embeddings
from sadcluster.cluster import spherical_kmeans
from sadcluster.contrastive import TrainConfig, train
from sadcluster.encoder import init_params, save_checkpoint, tokenize
from sadcluster.corpus import load_corpus, save_corpus, Corpus
from sadcluster.synth import generate_synthetic_corpus
from sadcluster.tfidf import (
    fit_tfidf,
    index_tokens,
    similarity_matrix,
    top1_from_matrix,
    transform_corpus,
)
from test_encoder import BAD_CHECKPOINTS, UNPICKLED

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_synth(capsys, tmp_path, name="corpus.jsonl", **overrides):
    path = tmp_path / name
    args = {"docs-per-topic": "10", "seed": "3"}
    args.update({k: str(v) for k, v in overrides.items()})
    argv = ["synth", "--out", str(path)]
    for key, value in args.items():
        argv.extend([f"--{key}", value])
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    return path


class TestSynthCommand:
    def test_writes_loadable_balanced_corpus(self, capsys, tmp_path):
        path = make_synth(capsys, tmp_path)
        corpus = load_corpus(path)
        assert len(corpus) == 40
        labels = corpus.labels_array()
        assert sorted(set(labels)) == [0, 1, 2, 3]

    def test_defaults_are_the_library_defaults(self, capsys, tmp_path):
        path, expected = tmp_path / "c.jsonl", tmp_path / "expected.jsonl"
        code, _, err = run(capsys, "synth", "--out", str(path))
        assert code == 0, err
        save_corpus(generate_synthetic_corpus(), expected)
        assert path.read_bytes() == expected.read_bytes()

    def test_same_seed_identical_bytes(self, capsys, tmp_path):
        a = make_synth(capsys, tmp_path, name="a.jsonl")
        b = make_synth(capsys, tmp_path, name="b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_parameter_exits_nonzero_with_json_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "x.jsonl"),
                           "--overlap", "2.0")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "overlap" in payload["message"]


class TestPreprocessCommand:
    def test_none_profile_is_byte_identical_passthrough(self, capsys, tmp_path):
        src = make_synth(capsys, tmp_path)
        out = tmp_path / "clean.jsonl"
        code, _, err = run(capsys, "preprocess", "--in", str(src),
                           "--out", str(out), "--profile", "none")
        assert code == 0, err
        assert out.read_bytes() == src.read_bytes()

    def test_newsgroup_profile_strips_headers(self, capsys, tmp_path):
        raw = tmp_path / "raw.jsonl"
        body = "The actual body text goes here with enough words to survive. " \
               "It keeps going for a while longer than the minimum."
        doc = {"id": "a", "text": f"From: someone@example.com\nSubject: hi\n\n{body}",
               "label": 0}
        raw.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        out = tmp_path / "clean.jsonl"
        code, _, err = run(capsys, "preprocess", "--in", str(raw),
                           "--out", str(out), "--profile", "newsgroup")
        assert code == 0, err
        cleaned = load_corpus(out)
        assert "Subject" not in cleaned.documents[0].text
        assert "example.com" not in cleaned.documents[0].text
        assert "actual body text" in cleaned.documents[0].text

    def test_stats_reports_counts_and_histogram(self, capsys, tmp_path):
        src = make_synth(capsys, tmp_path)
        out = tmp_path / "clean.jsonl"
        stats = tmp_path / "stats.json"
        code, _, _ = run(capsys, "preprocess", "--in", str(src),
                         "--out", str(out), "--stats", str(stats))
        assert code == 0
        payload = json.loads(stats.read_text())
        assert payload["documents_before"] == 40
        assert payload["documents_after"] == 40
        assert payload["class_histogram"] == {"0": 10, "1": 10, "2": 10, "3": 10}
        assert payload["schema_version"] == 1

    def test_min_sentences_filter(self, capsys, tmp_path):
        raw = tmp_path / "raw.jsonl"
        docs = [
            {"id": "long", "text": "One two. Three four. Five six. Seven eight.",
             "label": 0},
            {"id": "short", "text": "Only one sentence.", "label": 0},
        ]
        raw.write_text("".join(json.dumps(d) + "\n" for d in docs),
                       encoding="utf-8")
        out = tmp_path / "clean.jsonl"
        code, _, _ = run(capsys, "preprocess", "--in", str(raw),
                         "--out", str(out), "--min-sentences", "4")
        assert code == 0
        kept = load_corpus(out)
        assert [d.id for d in kept.documents] == ["long"]

    def test_negative_min_sentences_rejected_before_any_output(self, capsys, tmp_path):
        corpus = make_synth(capsys, tmp_path)
        out = tmp_path / "clean.jsonl"
        code, _, err = run(capsys, "preprocess", "--in", str(corpus),
                           "--out", str(out), "--min-sentences", "-3")
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "min_sentences must be >= 0 (0 keeps every document)"}
        assert not out.exists()


def train_args(corpus, out_dir, **overrides):
    args = {
        "k": "4", "method": "sad", "batch-size": "16", "lr": "5e-3",
        "epochs": "3", "seed": "0", "max-len-train": "64",
        "max-len-test": "128",
    }
    args.update({k: str(v) for k, v in overrides.items()})
    argv = ["train", "--corpus", str(corpus), "--out-dir", str(out_dir)]
    for key, value in args.items():
        argv.extend([f"--{key}", value])
    return argv


class TestTrainCommand:
    def test_writes_all_artifacts(self, capsys, tmp_path):
        corpus = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, *train_args(corpus, out_dir))
        assert code == 0, err
        for name in ("metrics.json", "best.ckpt", "final.ckpt", "vocab.json"):
            assert (out_dir / name).exists()
        summary = json.loads(out)
        assert summary["epochs"] == 3
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["schema_version"] == 1
        assert metrics["config"]["method"] == "sad"
        assert len(metrics["history"]) == 3
        for record in metrics["history"]:
            assert {"epoch", "loss", "batch_losses", "silhouette",
                    "kmeans_seed", "silhouette_seed"} <= set(record)
        assert metrics["best_epoch"] == summary["best_epoch"]

    def test_same_seed_identical_metrics_bytes(self, capsys, tmp_path):
        corpus = make_synth(capsys, tmp_path)
        for d in ("r1", "r2"):
            code, _, err = run(capsys, *train_args(corpus, tmp_path / d))
            assert code == 0, err
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        # the best epoch is not the last, so the two checkpoints differ
        assert json.loads((r1 / "metrics.json").read_text())["best_epoch"] < 3
        assert (r1 / "best.ckpt").read_bytes() != (r1 / "final.ckpt").read_bytes()
        for name in ("metrics.json", "best.ckpt", "final.ckpt", "vocab.json"):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes(), name

    def test_silhouette_history_improves_over_first_epoch(self, capsys, tmp_path):
        corpus = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, *train_args(corpus, out_dir))
        assert code == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        sils = [r["silhouette"] for r in metrics["history"]]
        assert max(sils) > sils[0]

    def test_tps_records_match_rate_and_dumps_pairing(self, capsys, tmp_path):
        corpus = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "run"
        pairs = tmp_path / "pairs.jsonl"
        code, _, err = run(capsys, *train_args(corpus, out_dir, method="tps",
                                               epochs="2"),
                           "--dump-pairs", str(pairs))
        assert code == 0, err
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["history"][0]["label_match_rate"] >= 0.95
        lines = [json.loads(l) for l in pairs.read_text().splitlines()]
        assert len(lines) == 40
        for record in lines:
            assert set(record) == {"n", "m", "sim"}
            assert record["n"] != record["m"]

    def test_tps_dump_pairs_are_the_tfidf_top1_pairs(self, capsys, tmp_path):
        corpus_path = make_synth(capsys, tmp_path)
        pairs = tmp_path / "pairs.jsonl"
        code, _, err = run(capsys, *train_args(corpus_path, tmp_path / "run",
                                               method="tps", epochs="1"),
                           "--dump-pairs", str(pairs))
        assert code == 0, err
        tokens, terms = index_tokens(doc.text for doc in load_corpus(corpus_path).documents)
        pairing = top1_from_matrix(similarity_matrix(
            transform_corpus(fit_tfidf(terms, len(tokens)), terms)))
        expected = [{"n": n, "m": int(m), "sim": float(sim)}
                    for n, (m, sim) in enumerate(zip(pairing.partner, pairing.similarity))]
        assert [json.loads(line) for line in pairs.read_text().splitlines()] == expected

    def test_sad_dump_pairs_are_document_views(self, capsys, tmp_path):
        corpus_path = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "run"
        pairs = tmp_path / "pairs.jsonl"
        code, _, _ = run(capsys, *train_args(corpus_path, out_dir, epochs="1"),
                         "--dump-pairs", str(pairs))
        assert code == 0
        corpus = load_corpus(corpus_path)
        lines = [json.loads(l) for l in pairs.read_text().splitlines()]
        assert [r["source_id"] for r in lines] == [d.id for d in corpus.documents]
        by_id = {d.id: d for d in corpus.documents}
        for record in lines:
            doc = by_id[record["source_id"]]
            ids = record["sentence_ids_a"] + record["sentence_ids_b"]
            assert sorted(ids) == list(range(len(doc.sentences)))

    def test_sad_dump_pairs_are_the_views_epoch_one_trains_on(self, capsys, tmp_path,
                                                              monkeypatch):
        # 37 documents in batches of 12: the last batch, of one, is skipped
        corpus_path = make_synth(capsys, tmp_path)
        corpus_path.write_text("\n".join(corpus_path.read_text().splitlines()[:37]) + "\n")
        seen, batches = [], []
        real_divide, real_build = contrastive.shuffle_divide, contrastive.build_batch_sad

        def recording_divide(doc, rng):
            seen.append((doc, real_divide(doc, rng)))
            return seen[-1][1]

        monkeypatch.setattr(contrastive, "shuffle_divide", recording_divide)

        def recording(halves, doc_sentence_ids, max_len):
            batches.append((real_build(halves, doc_sentence_ids, max_len), max_len))
            return batches[-1][0]

        monkeypatch.setattr(contrastive, "build_batch_sad", recording)
        pairs = tmp_path / "pairs.jsonl"
        code, _, err = run(capsys, *train_args(corpus_path, tmp_path / "run", epochs="1",
                                               **{"batch-size": 12}),
                           "--dump-pairs", str(pairs))
        assert code == 0, err
        vocab = cli.load_vocab(tmp_path / "run" / "vocab.json")
        records = [json.loads(line) for line in pairs.read_text().splitlines()]
        assert len(batches) == 3 and len(seen) == len(records) == 36
        by_id = {record["source_id"]: record for record in records}
        for i, (doc, halves) in enumerate(seen):
            record = by_id[doc.id]
            assert record["batch"] == i // 12
            assert [record["sentence_ids_a"], record["sentence_ids_b"]] == \
                [half.tolist() for half in halves]
            # each view is the space-join of the sentences its id list names
            texts = [" ".join(doc.sentences[j] for j in record[key])
                     for key in ("sentence_ids_a", "sentence_ids_b")]
            assert [record["view_a"], record["view_b"]] == texts
            views, max_len = batches[i // 12]
            for view, text in zip(views[2 * (i % 12):], texts):
                assert np.array_equal(view.ids, tokenize(text, vocab, max_len).ids)

    def test_checkpoints_are_saves_of_the_final_params_when_best_is_final(
            self, capsys, tmp_path):
        corpus_path = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, *train_args(corpus_path, out_dir, epochs="1"))
        assert code == 0, err
        config = TrainConfig(method="sad", batch_size=16, learning_rate=5e-3, epochs=1,
                             seed=0, max_len_train=64, max_len_test=128, num_clusters=4)
        save_checkpoint(train(load_corpus(corpus_path), config).final_params,
                        tmp_path / "expected")
        expected = (tmp_path / "expected").read_bytes()
        assert (out_dir / "final.ckpt").read_bytes() == expected
        assert (out_dir / "best.ckpt").read_bytes() == expected

    @pytest.mark.parametrize("flag", ["embed-dim", "output-dim"])
    def test_zero_dimension_rejected_before_any_output(self, capsys, tmp_path, flag):
        corpus_path = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, *train_args(corpus_path, out_dir, **{flag: 0}))
        assert code == 1
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert error["message"].startswith(flag.replace("-", "_") + " must be >= 1")
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("k", 1, "num_clusters must be >= 2"),
        ("max-vocab", 0, "max_vocab must be >= 1"),
        ("epochs", 0, "training needs at least 1 epoch"),
    ])
    def test_untrainable_setting_rejected_before_any_output(self, capsys, tmp_path,
                                                            flag, value, message):
        corpus_path = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, *train_args(corpus_path, out_dir, **{flag: value}))
        assert code == 1
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert error["message"].startswith(message)
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("temperature", "nan", "temperature must be finite"),
        ("lr", "nan", "learning_rate must be finite"),
        ("lr", "inf", "learning_rate must be finite"),
        ("weight-decay", "nan", "weight_decay must be finite"),
        ("weight-decay", "-1", "weight_decay must be >= 0"),
    ])
    def test_bad_float_setting_fails_before_training(self, capsys, tmp_path, monkeypatch,
                                                     flag, value, message):
        corpus_path = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "run"
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        code, _, err = run(capsys, *train_args(corpus_path, out_dir, **{flag: value}))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert trained == [] and not out_dir.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_out_dir_that_cannot_be_a_directory_fails_before_training(
            self, capsys, tmp_path, monkeypatch, below):
        corpus_path = make_synth(capsys, tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        out_dir = taken / "sub" / "run" if below else taken
        before = sorted(tmp_path.rglob("*"))
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        code, _, err = run(capsys, *train_args(corpus_path, out_dir))
        assert code == 1
        assert json.loads(err) == {
            "error": "NotADirectoryError",
            "message": f"--out-dir {out_dir}: {taken} is not a directory"}
        assert trained == [] and sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("failure,flags,message", [
        ("preflight", {}, "1 document(s) cannot be trained on"),
        ("k-above-corpus-size", {"k": 42}, "corpus too small: 41 documents"),
        ("no-epochs", {"epochs": 0}, "training needs at least 1 epoch"),
    ])
    def test_failed_training_writes_no_output(self, capsys, tmp_path, failure, flags,
                                              message):
        corpus_path = make_synth(capsys, tmp_path)
        with open(corpus_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "short", "text": "One sentence.", "label": 0}) + "\n")
        out_dir, pairs, tfidf = tmp_path / "run", tmp_path / "pairs", tmp_path / "tfidf"
        code, _, err = run(capsys, *train_args(corpus_path, out_dir, **flags),
                           "--dump-pairs", str(pairs), "--dump-tfidf", str(tfidf))
        assert code == 1
        assert json.loads(err)["message"].startswith(message)
        assert not out_dir.exists() and not pairs.exists() and not tfidf.exists()

    def test_every_option_reaches_the_config(self, capsys, tmp_path):
        # options map to TrainConfig fields by dest, so a misspelled dest would
        # drop its option without an error
        corpus = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "run"
        values = {"k": 3, "method": "tps", "batch-size": 8, "lr": 0.01, "temperature": 0.3,
                  "alpha": 0.7, "epochs": 2, "seed": 5, "max-len-train": 32,
                  "max-len-test": 48, "optimizer": "sgd", "weight-decay": 0.01,
                  "embed-dim": 6, "output-dim": 5, "max-vocab": 200}
        argv = ["train", "--corpus", str(corpus), "--out-dir", str(out_dir)]
        for flag, value in values.items():
            argv += [f"--{flag}", str(value)]
        parser = cli.build_parser()
        settings = vars(parser.parse_args(argv))
        defaults = vars(parser.parse_args(argv[:5] + ["--k", "2"]))
        options = settings.keys() - {"command", "func", "corpus", "out_dir",
                                     "dump_pairs", "dump_tfidf"}
        assert len(options) == len(values)
        assert all(settings[dest] != defaults[dest] for dest in options)
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        config = json.loads((out_dir / "metrics.json").read_text())["config"]
        for dest in options:
            assert config[dest] == settings[dest], dest

    @pytest.mark.parametrize("flag", ["dump-pairs", "dump-tfidf"])
    def test_dump_in_missing_directory_fails_before_training(self, capsys, tmp_path,
                                                             monkeypatch, flag):
        corpus = make_synth(capsys, tmp_path)
        out_dir, dump = tmp_path / "run", tmp_path / "missing" / "dump.jsonl"
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        code, _, err = run(capsys, *train_args(corpus, out_dir), f"--{flag}", str(dump))
        assert code == 1
        assert json.loads(err) == {
            "error": "FileNotFoundError",
            "message": f"--{flag} {dump}: directory {dump.parent} does not exist"}
        assert trained == [] and not out_dir.exists()

    @pytest.mark.parametrize("bad_id", ["", "two words", "tab\tid"],
                             ids=["empty", "space", "tab"])
    def test_unwritable_id_fails_before_training(self, capsys, tmp_path, monkeypatch,
                                                 bad_id):
        corpus = make_synth(capsys, tmp_path)
        lines = corpus.read_text().splitlines()
        lines[3] = json.dumps({**json.loads(lines[3]), "id": bad_id})
        corpus.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "run"
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        code, _, err = run(capsys, *train_args(corpus, out_dir))
        assert code == 1
        assert json.loads(err)["message"].startswith(
            f"document id {bad_id!r} is empty or contains whitespace")
        assert trained == [] and not out_dir.exists()

    def test_tps_epoch_with_no_batch_fails(self, capsys, tmp_path):
        # every anchor's partner is document 0, so no batch has 2 disjoint pairs
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"d{i}", "text": "Red fox runs. Blue owl sleeps. Green frog sings."})
            + "\n" for i in range(4)))
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, "train", "--corpus", str(corpus), "--out-dir", str(out_dir),
                           "--method", "tps", "--batch-size", "4", "--k", "2", "--epochs", "2")
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "epoch 1: no batch of 2 collision-free tps pairs can be formed, so "
                       "all 4 documents are unscheduled (first: 'd0', 'd1', 'd2', 'd3')"}
        assert not out_dir.exists()

    def test_defaults_are_the_train_config_defaults(self, capsys, tmp_path):
        corpus = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, "train", "--corpus", str(corpus),
                           "--out-dir", str(out_dir), "--k", "4")
        assert code == 0, err
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["config"] == dataclasses.asdict(TrainConfig(num_clusters=4))
        # embed reproduces the per-epoch embeddings at training's test length
        embed = cli.build_parser().parse_args(["embed", "--corpus", "c", "--checkpoint",
                                               "k", "--vocab", "v", "--out", "o"])
        assert embed.max_len == TrainConfig.max_len_test

    def test_dump_tfidf_vectors(self, capsys, tmp_path):
        corpus = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "run"
        dump = tmp_path / "tfidf.jsonl"
        code, _, _ = run(capsys, *train_args(corpus, out_dir, epochs="1"),
                         "--dump-tfidf", str(dump))
        assert code == 0
        lines = [json.loads(l) for l in dump.read_text().splitlines()]
        assert len(lines) == 40
        for record in lines:
            assert set(record) == {"id", "indices", "values"}
            idx = record["indices"]
            assert idx == sorted(idx)
            assert all(v > 0 for v in record["values"])
            norm = sum(v * v for v in record["values"]) ** 0.5
            assert norm == pytest.approx(1.0, abs=1e-9)


class TestEmbedClusterEval:
    def pipeline(self, capsys, tmp_path):
        corpus = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, *train_args(corpus, out_dir))
        assert code == 0, err
        emb = tmp_path / "emb.txt"
        code, _, err = run(capsys, "embed", "--corpus", str(corpus),
                           "--checkpoint", str(out_dir / "best.ckpt"),
                           "--vocab", str(out_dir / "vocab.json"),
                           "--out", str(emb), "--max-len", "128")
        assert code == 0, err
        return corpus, out_dir, emb

    def test_embed_writes_header_and_all_docs(self, capsys, tmp_path):
        corpus_path, _, emb = self.pipeline(capsys, tmp_path)
        lines = emb.read_text().splitlines()
        assert lines[0] == "dim=64"
        assert len(lines) == 41
        ids, matrix = read_embeddings(emb)
        assert ids == [d.id for d in load_corpus(corpus_path).documents]
        assert matrix.shape == (40, 64)
        assert np.all(np.isfinite(matrix))

    def test_embed_rerun_identical_bytes(self, capsys, tmp_path):
        corpus, out_dir, emb = self.pipeline(capsys, tmp_path)
        emb2 = tmp_path / "emb2.txt"
        code, _, _ = run(capsys, "embed", "--corpus", str(corpus),
                         "--checkpoint", str(out_dir / "best.ckpt"),
                         "--vocab", str(out_dir / "vocab.json"),
                         "--out", str(emb2), "--max-len", "128")
        assert code == 0
        assert emb.read_bytes() == emb2.read_bytes()

    def test_cluster_writes_assignments_and_summary(self, capsys, tmp_path):
        _, _, emb = self.pipeline(capsys, tmp_path)
        assign = tmp_path / "assign.jsonl"
        code, out, err = run(capsys, "cluster", "--embeddings", str(emb),
                             "--k", "4", "--out", str(assign))
        assert code == 0, err
        summary = json.loads(out)
        assert summary["k"] == 4 and summary["n"] == 40
        assert summary["objective"] > 0
        lines = [json.loads(l) for l in assign.read_text().splitlines()]
        assert len(lines) == 40
        for record in lines:
            assert set(record) == {"cluster", "id"}
            assert 0 <= record["cluster"] < 4

    def test_cluster_defaults_are_the_library_defaults(self, capsys, tmp_path):
        emb, assign = tmp_path / "emb.txt", tmp_path / "a.jsonl"
        embeddings = np.random.default_rng(0).normal(size=(30, 5))
        write_embeddings([f"d{i}" for i in range(30)], embeddings, emb)
        code, out, err = run(capsys, "cluster", "--embeddings", str(emb),
                             "--out", str(assign), "--k", "3")
        assert code == 0, err
        model = spherical_kmeans(read_embeddings(emb)[1], k=3)
        assert [json.loads(line)["cluster"] for line in assign.read_text().splitlines()] \
            == model.assignments.tolist()
        assert json.loads(out)["iterations"] == model.iterations_run

    def test_more_restarts_never_worse(self, capsys, tmp_path):
        _, _, emb = self.pipeline(capsys, tmp_path)
        objectives = {}
        for restarts in ("1", "10"):
            code, out, _ = run(capsys, "cluster", "--embeddings", str(emb),
                               "--k", "4", "--restarts", restarts,
                               "--out", str(tmp_path / f"a{restarts}.jsonl"))
            assert code == 0
            objectives[restarts] = json.loads(out)["objective"]
        assert objectives["10"] >= objectives["1"]

    def test_eval_on_gold_labels_scores_perfect(self, capsys, tmp_path):
        corpus_path = make_synth(capsys, tmp_path)
        corpus = load_corpus(corpus_path)
        assign = tmp_path / "gold.jsonl"
        with open(assign, "w") as fh:
            for doc in corpus.documents:
                fh.write(json.dumps({"id": doc.id, "cluster": doc.label}) + "\n")
        metrics = tmp_path / "metrics.json"
        code, out, err = run(capsys, "eval", "--assignments", str(assign),
                             "--corpus", str(corpus_path), "--out", str(metrics))
        assert code == 0, err
        payload = json.loads(metrics.read_text())
        assert payload["acc"] == 1.0
        assert payload["ami"] == pytest.approx(1.0, abs=1e-9)
        assert payload["silhouette"] is None
        assert payload["mapping"] == {"0": 0, "1": 1, "2": 2, "3": 3}
        assert np.trace(np.array(payload["confusion"])) == 40

    def test_eval_rejects_sample_cap_below_one(self, capsys, tmp_path):
        corpus_path = make_synth(capsys, tmp_path)
        corpus = load_corpus(corpus_path)
        assign = tmp_path / "gold.jsonl"
        assign.write_text("".join(json.dumps({"id": d.id, "cluster": d.label}) + "\n"
                                  for d in corpus.documents))
        emb = tmp_path / "emb.txt"
        rng = np.random.default_rng(0)
        write_embeddings([d.id for d in corpus.documents],
                         rng.normal(size=(len(corpus), 4)), emb)
        argv = ["eval", "--assignments", str(assign), "--corpus", str(corpus_path),
                "--out", str(tmp_path / "m.json")]
        # the cap is checked whether or not a silhouette is asked for
        for args in (argv + ["--embeddings", str(emb)], argv):
            for cap in ("0", "-1"):
                code, _, err = run(capsys, *args, "--sample-cap", cap)
                assert code == 1
                assert json.loads(err) == {"error": "ValueError",
                                           "message": "sample_cap must be >= 1"}
            code, _, err = run(capsys, *args, "--sample-cap", "1")
            assert code == 0, err

    def test_eval_rejects_cluster_values_that_are_not_indices(self, capsys, tmp_path):
        # JSON true/false load as bool, which Python counts as an int
        corpus_path = make_synth(capsys, tmp_path)
        assign = tmp_path / "assign.jsonl"
        for value in (False, True, -1, "0"):
            assign.write_text(json.dumps({"id": "t0d0", "cluster": value}) + "\n")
            code, _, err = run(capsys, "eval", "--assignments", str(assign),
                               "--corpus", str(corpus_path),
                               "--out", str(tmp_path / "m.json"))
            assert code == 1
            assert json.loads(err)["message"] == \
                "line 1: cluster must be a non-negative integer"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("line", ["5", '"id cluster"', '["t0d0", 0]', "null",
                                      '{"id": "t0d0"}'],
                             ids=["number", "string", "array", "null", "no-cluster"])
    def test_eval_rejects_lines_that_are_not_assignment_objects(self, capsys, tmp_path,
                                                               line):
        corpus_path = make_synth(capsys, tmp_path)
        assign = tmp_path / "assign.jsonl"
        assign.write_text(json.dumps({"id": "t0d1", "cluster": 0}) + "\n" + line + "\n")
        code, _, err = run(capsys, "eval", "--assignments", str(assign),
                           "--corpus", str(corpus_path), "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message":
                                   "line 2: expected keys 'id' and 'cluster'"}
        assert not (tmp_path / "m.json").exists()

    def test_eval_missing_assignment_is_an_error(self, capsys, tmp_path):
        corpus_path = make_synth(capsys, tmp_path)
        assign = tmp_path / "partial.jsonl"
        assign.write_text(json.dumps({"id": "t0d0", "cluster": 0}) + "\n")
        code, _, err = run(capsys, "eval", "--assignments", str(assign),
                           "--corpus", str(corpus_path),
                           "--out", str(tmp_path / "m.json"))
        assert code == 1
        payload = json.loads(err)
        assert "no cluster assignment" in payload["message"]

    def test_pipeline_composition_matches_train_history(self, capsys, tmp_path):
        corpus, out_dir, emb = self.pipeline(capsys, tmp_path)
        train_metrics = json.loads((out_dir / "metrics.json").read_text())
        record = train_metrics["history"][train_metrics["best_epoch"] - 1]
        assign = tmp_path / "assign.jsonl"
        code, _, _ = run(capsys, "cluster", "--embeddings", str(emb),
                         "--k", "4", "--out", str(assign),
                         "--seed", str(record["kmeans_seed"]))
        assert code == 0
        metrics = tmp_path / "metrics.json"
        code, _, _ = run(capsys, "eval", "--assignments", str(assign),
                         "--corpus", str(corpus), "--out", str(metrics),
                         "--embeddings", str(emb),
                         "--silhouette-seed", str(record["silhouette_seed"]))
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert abs(payload["silhouette"] - record["silhouette"]) <= 1e-9


def make_class_tree(capsys, tmp_path):
    """The synth corpus as one folder of ``.txt`` files per class."""
    root = tmp_path / "tree"
    for line in make_synth(capsys, tmp_path).read_text().splitlines():
        record = json.loads(line)
        folder = root / f"topic{record['label']}"
        folder.mkdir(parents=True, exist_ok=True)
        (folder / f"{record['id']}.txt").write_text(record["text"], encoding="utf-8")
    return root


class TestDirectoryCorpus:
    def test_pipeline_reads_the_layout_from_the_path(self, capsys, tmp_path):
        tree = make_class_tree(capsys, tmp_path)
        out_dir = tmp_path / "run"
        emb, assign, report = tmp_path / "emb.txt", tmp_path / "a.jsonl", tmp_path / "m.json"
        for argv in (train_args(tree, out_dir, epochs=2),
                     ["embed", "--corpus", str(tree), "--checkpoint",
                      str(out_dir / "best.ckpt"), "--vocab", str(out_dir / "vocab.json"),
                      "--out", str(emb)],
                     ["cluster", "--embeddings", str(emb), "--out", str(assign), "--k", "4"],
                     ["eval", "--assignments", str(assign), "--corpus", str(tree),
                      "--embeddings", str(emb), "--out", str(report)]):
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv[0], err)
        corpus = load_corpus(tree)
        ids, _ = read_embeddings(emb)
        assert ids == [doc.id for doc in corpus.documents]
        assert ids[0].startswith("topic0/") and ids[-1].startswith("topic3/")
        confusion = json.loads(report.read_text())["confusion"]
        # the folders are the gold classes: 10 documents each
        assert [sum(row) for row in confusion] == [10, 10, 10, 10]

    def test_file_name_with_a_space_fails_before_training(self, capsys, tmp_path,
                                                          monkeypatch):
        tree = make_class_tree(capsys, tmp_path)
        first = sorted((tree / "topic0").iterdir())[0]
        first.rename(first.with_name("two words.txt"))
        out_dir = tmp_path / "run"
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        code, _, err = run(capsys, *train_args(tree, out_dir))
        assert code == 1
        assert json.loads(err)["message"].startswith(
            "document id 'topic0/two words.txt' is empty or contains whitespace")
        assert trained == [] and not out_dir.exists()


class TestEmbeddingsInput:
    """``cluster`` and ``eval`` read embeddings through one parser, so a bad
    file fails both the same way, before either writes its output."""

    @pytest.mark.parametrize("text,message", [
        ("dim=2\na 1 2\nb 3 4\na 5 6\n", "line 4: duplicate id 'a'"),
        ("dim=2\na 1 2\n\nb 3 nan\n", "line 4: non-finite value"),
        ("dim=2\na 1 2\nb inf 4\n", "line 3: non-finite value"),
        ("dim=2\n\n", "embeddings file is empty: {path}"),
        ("", "expected header line 'dim=<d>'"),
    ], ids=["duplicate-id", "nan", "inf", "no-rows", "no-header"])
    def test_cluster_and_eval_reject_the_same_way(self, capsys, tmp_path, text, message):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"id": i, "text": "x y.", "label": 0}) + "\n"
                                  for i in "ab"))
        assign = tmp_path / "assign.jsonl"
        assign.write_text("".join(json.dumps({"id": i, "cluster": 0}) + "\n"
                                  for i in "ab"))
        emb = tmp_path / "emb.txt"
        emb.write_text(text)
        out = tmp_path / "out"
        expected = {"error": "ValueError", "message": message.format(path=emb)}
        for argv in (["cluster", "--embeddings", str(emb), "--k", "2"],
                     ["eval", "--assignments", str(assign), "--corpus", str(corpus),
                      "--embeddings", str(emb)]):
            code, _, err = run(capsys, *argv, "--out", str(out))
            assert code == 1
            assert json.loads(err) == expected
            assert not out.exists()


class TestEmbedVocabCheck:
    def embed(self, capsys, tmp_path, tokens, rows=100, payload=None):
        corpus = make_synth(capsys, tmp_path)
        checkpoint = tmp_path / "model.ckpt"
        save_checkpoint(init_params(rows, 8, 8, seed=0), checkpoint)
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"tokens": tokens} if payload is None else payload))
        code, _, err = run(capsys, "embed", "--corpus", str(corpus),
                           "--checkpoint", str(checkpoint), "--vocab", str(vocab),
                           "--out", str(tmp_path / "emb.txt"))
        return code, json.loads(err) if err else None

    def test_vocab_size_must_match_the_table(self, capsys, tmp_path):
        code, err = self.embed(capsys, tmp_path, ["<pad>", "<unk>", "a", "b", "c", "d"])
        assert code == 1 and err["error"] == "ValueError"
        assert "has 6 tokens" in err["message"] and "has 100 rows" in err["message"]
        assert not (tmp_path / "emb.txt").exists()

    def test_repeated_token_rejected(self, capsys, tmp_path):
        code, err = self.embed(capsys, tmp_path, ["<pad>", "<unk>", "a", "b", "a"], rows=5)
        assert code == 1 and err["error"] == "ValueError"
        assert "token 4 'a' repeats token 2" in err["message"]

    def test_reserved_tokens_required(self, capsys, tmp_path):
        code, err = self.embed(capsys, tmp_path, ["a", "b", "c"], rows=3)
        assert code == 1 and err["error"] == "ValueError"
        assert "'<pad>' and '<unk>', got 'a' and 'b'" in err["message"]

    def test_non_string_token_rejected(self, capsys, tmp_path):
        code, err = self.embed(capsys, tmp_path, ["<pad>", "<unk>", "a", 7], rows=4)
        assert code == 1 and err["error"] == "ValueError"
        assert "token 3 is not a string: 7" in err["message"]

    @pytest.mark.parametrize("payload", [["<pad>", "<unk>", "a"], "tokens", 3],
                             ids=["array", "string", "number"])
    def test_top_level_that_is_not_an_object_rejected(self, capsys, tmp_path, payload):
        code, err = self.embed(capsys, tmp_path, None, rows=3, payload=payload)
        assert code == 1 and err["error"] == "ValueError"
        assert err["message"] == f"not a vocabulary file: {tmp_path / 'vocab.json'}"
        assert not (tmp_path / "emb.txt").exists()


    @pytest.mark.parametrize("data", [b"tokens: <pad> <unk>\n", b"\xff\xfe\x00"],
                             ids=["text", "binary"])
    def test_file_that_is_not_json_rejected(self, capsys, tmp_path, data):
        corpus = make_synth(capsys, tmp_path)
        checkpoint, vocab = tmp_path / "model.ckpt", tmp_path / "vocab.json"
        save_checkpoint(init_params(3, 8, 8, seed=0), checkpoint)
        vocab.write_bytes(data)
        code, _, err = run(capsys, "embed", "--corpus", str(corpus),
                           "--checkpoint", str(checkpoint), "--vocab", str(vocab),
                           "--out", str(tmp_path / "emb.txt"))
        assert code == 1
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert error["message"].startswith(f"not a vocabulary file: {vocab}: ")
        assert not (tmp_path / "emb.txt").exists()


class TestEmbedCheckpointCheck:
    @pytest.mark.parametrize("kind", list(BAD_CHECKPOINTS))
    def test_unreadable_checkpoint_exits_1(self, capsys, tmp_path, kind):
        data, match = BAD_CHECKPOINTS[kind]
        corpus = make_synth(capsys, tmp_path)
        checkpoint, vocab = tmp_path / "model.ckpt", tmp_path / "vocab.json"
        checkpoint.write_bytes(data)
        vocab.write_text(json.dumps({"tokens": ["<pad>", "<unk>", "a"]}))
        code, _, err = run(capsys, "embed", "--corpus", str(corpus),
                           "--checkpoint", str(checkpoint), "--vocab", str(vocab),
                           "--out", str(tmp_path / "emb.txt"))
        assert code == 1
        error = json.loads(err)
        assert error["error"] == "ValueError" and re.search(match, error["message"])
        assert not (tmp_path / "emb.txt").exists()
        assert UNPICKLED == []


class TestEmbedInputChecks:
    def embed(self, capsys, tmp_path, bad_id="b", max_len="256"):
        corpus = tmp_path / "corpus.jsonl"
        docs = [{"id": "a", "text": "alpha beta."}, {"id": bad_id, "text": "beta gamma."}]
        corpus.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        checkpoint = tmp_path / "model.ckpt"
        save_checkpoint(init_params(5, 8, 8, seed=0), checkpoint)
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"tokens": ["<pad>", "<unk>", "alpha", "beta",
                                               "gamma"]}))
        code, _, err = run(capsys, "embed", "--corpus", str(corpus),
                           "--checkpoint", str(checkpoint), "--vocab", str(vocab),
                           "--out", str(tmp_path / "emb.txt"), "--max-len", max_len)
        return code, json.loads(err) if err else None

    @pytest.mark.parametrize("bad_id", ["", "two words", "tab\tid"],
                             ids=["empty", "space", "tab"])
    def test_unwritable_id_fails_before_any_output(self, capsys, tmp_path, monkeypatch,
                                                   bad_id):
        # the good id comes first: a row-by-row check would leave it written
        embedded = []
        monkeypatch.setattr(cli, "embed_corpus", lambda *args: embedded.append(args))
        code, err = self.embed(capsys, tmp_path, bad_id=bad_id)
        assert code == 1 and err["error"] == "ValueError"
        assert f"document id {bad_id!r} is empty or contains whitespace" in err["message"]
        assert embedded == [] and not (tmp_path / "emb.txt").exists()

    def test_max_len_below_one_rejected(self, capsys, tmp_path):
        code, err = self.embed(capsys, tmp_path, max_len="0")
        assert code == 1 and err == {"error": "ValueError",
                                     "message": "max_len must be >= 1"}
        assert not (tmp_path / "emb.txt").exists()
        code, err = self.embed(capsys, tmp_path, max_len="1")
        assert code == 0, err


class TestSentenceSplitting:
    """Only sad training reads a document's sentences."""

    def test_only_sad_training_splits_sentences(self, capsys, tmp_path, monkeypatch):
        corpus_path = make_synth(capsys, tmp_path)
        texts = sorted(doc.text for doc in load_corpus(corpus_path).documents)
        real = corpus_module.split_sentences

        def refuse(text):
            raise AssertionError("split_sentences called")

        monkeypatch.setattr(corpus_module, "split_sentences", refuse)
        out_dir = tmp_path / "tps"
        emb, assign = tmp_path / "emb.txt", tmp_path / "assign.jsonl"
        for argv in (
            train_args(corpus_path, out_dir, method="tps", epochs="2"),
            ["embed", "--corpus", str(corpus_path), "--checkpoint",
             str(out_dir / "best.ckpt"), "--vocab", str(out_dir / "vocab.json"),
             "--out", str(emb)],
            ["cluster", "--embeddings", str(emb), "--k", "4", "--out", str(assign)],
            ["eval", "--assignments", str(assign), "--corpus", str(corpus_path),
             "--embeddings", str(emb), "--out", str(tmp_path / "eval.json")],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 0, err

        split = []
        monkeypatch.setattr(corpus_module, "split_sentences",
                            lambda text: split.append(text) or real(text))
        code, _, err = run(capsys, *train_args(corpus_path, tmp_path / "sad"))
        assert code == 0, err
        assert sorted(split) == texts


class TestCliPlumbing:
    def test_missing_input_file_reports_json_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--assignments", "nope.jsonl",
                           "--corpus", "nope.jsonl",
                           "--out", str(tmp_path / "m.json"))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] in ("FileNotFoundError", "ValueError")

    def test_module_entrypoint_runs_as_subprocess(self, tmp_path):
        out = tmp_path / "c.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sadcluster.cli", "synth", "--out", str(out),
             "--docs-per-topic", "2"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_unlabeled_corpus_rejected_by_eval(self, capsys, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(json.dumps({"id": "a", "text": "Some text here."}) + "\n")
        assign = tmp_path / "a.jsonl"
        assign.write_text(json.dumps({"id": "a", "cluster": 0}) + "\n")
        code, _, err = run(capsys, "eval", "--assignments", str(assign),
                           "--corpus", str(raw),
                           "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert "unlabeled" in json.loads(err)["message"]
