"""Tests of the benchmark's own code: span arithmetic, wrapping, counters
and output checks, on corpora small enough to run in a second."""

import json
from pathlib import Path

import pytest

import sadcluster.cli
import sadcluster.contrastive
import sadcluster.encoder
from run import END_TO_END, run_pass
from tracing import Tracer, layer_metric_names
from workloads import WORKLOADS, CheckFailed, Files, Workload, check, set_up


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    # outer 0..10 holds a 1..4 (which holds leaf 2..3) and b 5..9
    tracer = Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 9, 10))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("leaf"):
                pass
        with tracer.span("b"):
            pass
    spans = {s.name: s for s in tracer.spans}
    assert spans["outer"].self_s == 10 - 3 - 4
    assert spans["a"].self_s == 3 - 1
    assert spans["leaf"].self_s == 1
    assert spans["b"].self_s == 4
    assert spans["outer"].parent is None
    assert spans["a"].parent == spans["b"].parent == spans["outer"].id
    assert spans["leaf"].parent == spans["a"].id


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=fake_clock(0, 1, 2, 3))
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError
    assert [s.name for s in tracer.spans] == ["inner", "outer"]
    assert tracer.spans[1].self_s == 3 - 1


def test_wrapping_counts_calls_at_every_lookup_site():
    original = sadcluster.encoder.tokenize
    vocab = sadcluster.encoder.Vocabulary({"<pad>": 0, "<unk>": 1, "word": 2})
    tracer = Tracer()
    with tracer.installed() as missing:
        assert sadcluster.contrastive.tokenize is sadcluster.encoder.tokenize
        assert sadcluster.cli.train is sadcluster.contrastive.train
        sadcluster.encoder.tokenize("word word", vocab, 4)
        sadcluster.contrastive.tokenize("word", vocab, 4)
    assert missing == []
    assert tracer.totals()["encoder.tokenize"][0] == 2
    assert sadcluster.encoder.tokenize is original
    assert sadcluster.contrastive.tokenize is original


def tiny(method: str | None) -> Workload:
    args = {"sad": ("--method", "sad", "--batch-size", "4", "--epochs", "1", "--lr", "1e-2"),
            "tps": ("--method", "tps", "--batch-size", "4", "--epochs", "2", "--lr", "1e-2")}
    return Workload(topics=3, docs_per_topic=3, vocab_per_topic=20, sentences_per_doc=4,
                    tokens_per_sentence=5, overlap=0.2, k=3,
                    train_args=args.get(method))


def traced_pass(w, tmp_path):
    files = Files.under(tmp_path)
    ids = set_up(w, 7, files)
    tracer = Tracer()
    with tracer.installed():
        record = run_pass(sadcluster.cli, w, 7, files, ids, tracer)
    return record, tracer.layer_metrics(), files, ids


def test_sad_counters(tmp_path):
    record, m, _, _ = traced_pass(tiny("sad"), tmp_path)
    assert record["failed"] == 0, record["errors"]
    # 9 docs of 4 five-token sentences, batches of 4: two batches of
    # ten-token views at max_len 128, the last one-document batch skipped;
    # then the epoch's and the embed subcommand's 20-token docs at 256
    real = 2 * 4 * 2 * 10 + 2 * 9 * 20
    slots = 2 * 4 * 2 * 128 + 2 * 9 * 256
    assert m["encoder.tokens_encoded"] == real
    assert m["encoder.real_token_frac"] == real / slots
    assert m["contrastive.sad_skipped_batches"] == 1
    assert m["contrastive.build_batch_sad.calls"] == 2
    assert m["cluster.spherical_kmeans.calls"] == 2
    assert m["cluster.kmeans_iterations"] >= 2
    assert m["contrastive.optimizer_step.bytes"] > 0
    assert m["tfidf.similarity_matrix.calls"] == 0
    assert m["cli.main.train.calls"] == 1
    assert set(m) | {"trace_overhead_frac"} == {name for name, _ in layer_metric_names()}


def test_tps_counters(tmp_path):
    record, m, _, _ = traced_pass(tiny("tps"), tmp_path)
    assert record["failed"] == 0, record["errors"]
    # tf-idf similarity, then the epoch-2 model similarity: 9 x 9 float64
    assert m["tfidf.similarity_matrix.bytes"] == 2 * 9 * 9 * 8
    assert 0 < m["contrastive.tps_scheduled_frac"] <= 1
    assert m["contrastive.plan_tps_batches.calls"] == 2
    assert m["contrastive.sad_skipped_batches"] == 0


def test_infer_only_workload_passes_its_checks(tmp_path):
    record, m, _, _ = traced_pass(tiny(None), tmp_path)
    assert record["failed"] == 0, record["errors"]
    assert record["attempted"] == 3
    assert set(record["facts"]) == {"acc", "ami", "silhouette"}
    assert m["contrastive.train.calls"] == 0


def test_checks_reject_wrong_outputs(tmp_path):
    w = tiny(None)
    record, _, files, ids = traced_pass(w, tmp_path)
    assert record["failed"] == 0
    lines = files.embeddings.read_text().splitlines()
    files.embeddings.write_text("\n".join(lines[:-1] + [lines[-1].split()[0] + " nan" * 64]))
    with pytest.raises(CheckFailed):
        check(w, "embed", ids, files)
    files.assignments.write_text(json.dumps({"id": ids[0], "cluster": w.k}) + "\n")
    with pytest.raises(CheckFailed):
        check(w, "cluster", ids, files)
    files.metrics.write_text(json.dumps({"acc": 1.5, "ami": 0.5, "silhouette": 0.1}))
    with pytest.raises(CheckFailed):
        check(w, "eval", ids, files)
    files.train_dir.mkdir()
    (files.train_dir / "metrics.json").write_text(json.dumps({"best_epoch": 2, "history": [{}]}))
    with pytest.raises(CheckFailed):
        check(tiny("sad"), "train", ids, files)


def test_an_infer_pass_reuses_the_trained_checkpoint(tmp_path):
    w = tiny("sad")
    files = Files.under(tmp_path)
    ids = set_up(w, 7, files)
    first = run_pass(sadcluster.cli, w, 7, files, ids)
    again = run_pass(sadcluster.cli, w, 7, files, ids, train=False)
    assert first["failed"] == again["failed"] == 0, again["errors"]
    assert list(again["seconds"]) == ["embed", "cluster", "eval"]
    assert again["attempted"] == 3
    assert again["facts"] == {k: v for k, v in first["facts"].items() if k != "best_epoch"}


def test_a_failed_check_fails_the_rest_of_the_pass(tmp_path):
    class SilentCli:
        """Exits 0 but writes nothing."""

        @staticmethod
        def main(argv):
            return 0

    w = tiny("sad")
    files = Files.under(tmp_path)
    ids = set_up(w, 7, files)
    assert run_pass(sadcluster.cli, w, 7, files, ids)["failed"] == 0
    # the good pass's files are gone before the next pass is checked
    record = run_pass(SilentCli, w, 7, files, ids)
    assert record["attempted"] == 4
    assert record["failed"] == 4
    assert record["errors"][0].startswith("train output check")


def test_benchmark_json_lists_what_the_runs_report():
    bench = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layer_metric_names()
