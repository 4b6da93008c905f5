"""Property tests of the command line contract on small drawn corpora.

Each subcommand either exits 0 with outputs that hold together (the
checks the benchmark makes on every run), or exits 1 with exactly one
JSON line on stderr and leaves none of its outputs behind. Every JSON
file written is strict JSON (no NaN or Infinity), and the same inputs
give the same bytes.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sadcluster.cli import main

# Unicode letters, digits and "_" (which the tokenizer splits on); a word
# has 2 characters or more, because a capital such as "Ω." reads as an
# initial, not an end
WORDS = st.text(alphabet="aé中ßΩz19_", min_size=2, max_size=4)
SENTENCES = st.lists(WORDS, min_size=1, max_size=5).map(" ".join)
# empty and punctuation-only sentences, drawn among the worded ones
ODD_SENTENCES = st.sampled_from(["", "...", "?!", ", ;", "_"])
# empty, with whitespace, or (None) a repeat of the next document's id
BAD_IDS = st.sampled_from(["", "d x", "d\tx", "x\u00a0", None])


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=reject_constant)


def now_and_then(draw, one_in: int) -> bool:
    # hypothesis favours the ends of a range, so test a value inside it
    return draw(st.integers(0, one_in - 1)) == one_in // 2


@st.composite
def texts(draw):
    sentences = draw(st.lists(SENTENCES, min_size=2, max_size=5))
    if now_and_then(draw, 4):
        sentences[draw(st.integers(0, len(sentences) - 1))] = draw(ODD_SENTENCES)
    if now_and_then(draw, 12):  # a text with no word at all
        sentences = draw(st.lists(ODD_SENTENCES, max_size=2))
    return " ".join(s + "." for s in sentences)


@st.composite
def drawn_corpora(draw):
    """(jsonl lines, k): near-k document counts, odd ids and texts."""
    n = draw(st.integers(2, 8))
    docs = draw(st.lists(texts(), min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(1, n - 1), max_size=2)):
        # identical, or near-identical: one word more
        docs[i] = docs[i - 1] + (" " + draw(WORDS) if draw(st.booleans()) else "")
    ids = [f"d{i}" for i in range(n)]
    if now_and_then(draw, 6):
        i, bad = draw(st.integers(0, n - 1)), draw(BAD_IDS)
        ids[i] = ids[(i + 1) % n] if bad is None else bad
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    k = n + 1 if now_and_then(draw, 8) else draw(st.integers(2, max(2, n - 1)))
    lines = [json.dumps({"id": i, "text": t, "label": l}) + "\n"
             for i, t, l in zip(ids, docs, labels)]
    return "".join(lines), k


SYNTH_OPTIONS = st.fixed_dictionaries({
    "--topics": st.integers(2, 3),
    "--docs-per-topic": st.integers(1, 3),
    "--vocab-per-topic": st.integers(1, 4),
    "--sentences-per-doc": st.integers(1, 3),
    "--tokens-per-sentence": st.integers(1, 3),
    "--overlap": st.sampled_from([0.0, 0.5, 1.0]),
    "--seed": st.integers(0, 3),
})
TRAIN_OPTIONS = st.fixed_dictionaries({
    "--method": st.sampled_from(["sad", "tps"]),
    "--batch-size": st.integers(2, 4),
    "--epochs": st.integers(1, 2),
    "--max-len-train": st.integers(1, 6),
    "--lr": st.just(1e-2),
})


def run(argv, outputs) -> bool:
    """Run one subcommand and check the exit contract; True if it succeeded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    if code == 0:
        assert all(Path(path).exists() for path in outputs), argv
        return True
    assert code == 1, argv
    assert len(err.getvalue().splitlines()) == 1
    assert set(strict_json(err.getvalue())) == {"error", "message"}
    left = [path for path in outputs if Path(path).exists()]
    assert left == [], (argv, err.getvalue())
    return False


def check_train(metrics_path: Path, epochs: int) -> None:
    metrics = strict_json(metrics_path.read_text(encoding="utf-8"))
    assert 1 <= metrics["best_epoch"] <= epochs
    assert len(metrics["history"]) == epochs
    for name in ("best.ckpt", "final.ckpt", "vocab.json"):
        assert (metrics_path.parent / name).is_file()


def check_embeddings(path: Path, ids: list[str]) -> None:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        assert header.startswith("dim=")
        rows = [line.split() for line in fh if line.strip()]
    assert [row[0] for row in rows] == ids
    values = np.array([row[1:] for row in rows], dtype=np.float64)
    assert values.shape == (len(ids), int(header[4:]))
    assert np.all(np.isfinite(values))


def check_assignments(path: Path, ids: list[str], k: int) -> None:
    records = [strict_json(line) for line in path.read_text(encoding="utf-8").splitlines()]
    clusters = {record["id"]: record["cluster"] for record in records}
    assert len(records) == len(ids) and sorted(clusters) == sorted(ids)
    assert all(isinstance(c, int) and 0 <= c < k for c in clusters.values())


def check_eval(path: Path) -> None:
    metrics = strict_json(path.read_text(encoding="utf-8"))
    for name, lo in (("acc", 0.0), ("ami", -1.0), ("silhouette", -1.0)):
        value = metrics[name]
        assert isinstance(value, float) and math.isfinite(value) and lo <= value <= 1.0


def pipeline(work: Path, k: int, train_options: dict) -> None:
    """train -> embed -> cluster -> eval on ``work/corpus.jsonl``, as far
    as the stages succeed."""
    corpus, run_dir = work / "corpus.jsonl", work / "run"
    pairs, tfidf = work / "pairs.jsonl", work / "tfidf.jsonl"
    epochs = train_options["--epochs"]
    train = ["train", "--corpus", corpus, "--out-dir", run_dir, "--k", k,
             "--embed-dim", 4, "--output-dim", 3, "--seed", 0,
             "--dump-pairs", pairs, "--dump-tfidf", tfidf,
             *(x for item in train_options.items() for x in item)]
    if not run(train, [run_dir, pairs, tfidf]):
        return
    check_train(run_dir / "metrics.json", epochs)
    ids = [strict_json(line)["id"] for line in corpus.read_text(encoding="utf-8").splitlines()]
    emb = work / "emb.txt"
    if not run(["embed", "--corpus", corpus, "--checkpoint", run_dir / "best.ckpt",
                "--vocab", run_dir / "vocab.json", "--out", emb], [emb]):
        return
    check_embeddings(emb, ids)
    assign = work / "assign.jsonl"
    if not run(["cluster", "--embeddings", emb, "--out", assign, "--k", k, "--seed", 0],
               [assign]):
        return
    check_assignments(assign, ids, k)
    scores = work / "eval.json"
    if run(["eval", "--assignments", assign, "--corpus", corpus, "--out", scores,
            "--embeddings", emb], [scores]):
        check_eval(scores)


def written(work: Path) -> dict[str, bytes]:
    """Every file under ``work``; each JSON one must be strict JSON."""
    files = {str(p.relative_to(work)): p.read_bytes() for p in work.rglob("*") if p.is_file()}
    for name, data in files.items():
        if name.endswith(".json"):
            strict_json(data.decode("utf-8"))
        elif name.endswith(".jsonl"):
            for line in data.decode("utf-8").splitlines():
                strict_json(line)
        elif name.endswith(".ckpt"):
            strict_json(data.split(b"\n", 1)[0].decode("utf-8"))
    return files


def twice(make_corpus, k: int, train_options: dict) -> None:
    """Run the pipeline in two fresh directories: the same bytes each time."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name in ("a", "b"):
            work = Path(tmp) / name
            work.mkdir()
            make_corpus(work / "corpus.jsonl")
            pipeline(work, k, train_options)
            runs.append(written(work))
        assert runs[0] == runs[1]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(drawn_corpora(), TRAIN_OPTIONS)
def test_drawn_corpus_keeps_the_cli_contract(corpus, train_options):
    lines, k = corpus
    twice(lambda path: path.write_text(lines, encoding="utf-8"), k, train_options)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(SYNTH_OPTIONS, st.integers(2, 7), TRAIN_OPTIONS)
# equal documents in two topics: the silhouette once came out 1 + 2**-52
@example({"--topics": 2, "--docs-per-topic": 3, "--vocab-per-topic": 1,
          "--sentences-per-doc": 2, "--tokens-per-sentence": 3, "--overlap": 0.0,
          "--seed": 0}, 2,
         {"--method": "sad", "--batch-size": 3, "--epochs": 1, "--max-len-train": 3,
          "--lr": 1e-2})
def test_synth_corpus_keeps_the_cli_contract(synth_options, k, train_options):
    def make_corpus(path):
        argv = ["synth", "--out", path, *(x for item in synth_options.items() for x in item)]
        assert run(argv, [path])

    twice(make_corpus, k, train_options)
