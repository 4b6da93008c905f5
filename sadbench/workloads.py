"""Seeded benchmark inputs, the subcommands each workload runs, and the
checks on every subcommand's output.

The inputs are topic-block corpora in the same model as
``sadcluster.synth``: each topic owns a vocabulary block, one more block
is shared, and each token comes from the shared block with probability
``overlap``. They are drawn with vectorised numpy here, so set-up costs
little and does not depend on the program being measured.
"""

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EMBED_DIM = 64


@dataclass(frozen=True)
class Workload:
    topics: int
    docs_per_topic: int
    vocab_per_topic: int
    sentences_per_doc: int
    tokens_per_sentence: int
    overlap: float
    k: int
    # extra ``train`` arguments; None means the workload only runs
    # embed -> cluster -> eval on a seeded untrained checkpoint
    train_args: tuple[str, ...] | None

    @property
    def epochs(self) -> int:
        return int(self.train_args[self.train_args.index("--epochs") + 1])


# Why each workload exists is recorded in BENCHMARK.json. ACC, AMI and
# silhouette are the quality fingerprint, so every workload must learn
# (or, untrained, separate) its topics: near chance they vary too much
# between seeds to compare. Hence the learning rate is raised from the
# CLI default (3e-5, which learns nothing in three epochs), and sad
# documents are long enough (240 tokens) that each topic word occurs a
# few times; 1500 words per topic then give V near 25k.
WORKLOADS = {
    "sad-v25k": Workload(
        topics=16, docs_per_topic=100, vocab_per_topic=1500,
        sentences_per_doc=20, tokens_per_sentence=12, overlap=0.7, k=16,
        train_args=("--method", "sad", "--batch-size", "32", "--epochs", "3",
                    "--lr", "1e-2"),
    ),
    "tps-short-n6000": Workload(
        topics=8, docs_per_topic=750, vocab_per_topic=400,
        sentences_per_doc=4, tokens_per_sentence=8, overlap=0.7, k=8,
        train_args=("--method", "tps", "--batch-size", "64", "--epochs", "3",
                    "--lr", "1e-2"),
    ),
    # small topic vocabularies let even an untrained encoder separate the
    # topics, so ACC/AMI sit well above chance and vary little by seed
    "infer-n8000": Workload(
        topics=20, docs_per_topic=400, vocab_per_topic=50,
        sentences_per_doc=10, tokens_per_sentence=10, overlap=0.2, k=20,
        train_args=None,
    ),
}


class CheckFailed(Exception):
    """A subcommand returned 0 but its output is wrong."""


@dataclass(frozen=True)
class Files:
    corpus: Path
    vocab: Path
    checkpoint: Path
    train_dir: Path
    embeddings: Path
    assignments: Path
    metrics: Path

    @classmethod
    def under(cls, workdir: Path) -> "Files":
        return cls(
            corpus=workdir / "corpus.jsonl",
            vocab=workdir / "vocab.json",
            checkpoint=workdir / "init.ckpt",
            train_dir=workdir / "train",
            embeddings=workdir / "embeddings.txt",
            assignments=workdir / "assignments.jsonl",
            metrics=workdir / "eval.json",
        )

    def clear_outputs(self, train: bool = True) -> None:
        """Remove what a pass writes, so no check reads an earlier pass's file;
        ``train=False`` keeps the trained checkpoint a later pass reuses."""
        if train:
            shutil.rmtree(self.train_dir, ignore_errors=True)
        for path in (self.embeddings, self.assignments, self.metrics):
            path.unlink(missing_ok=True)


def generate_corpus(w: Workload, seed: int):
    """Returns (doc ids, labels, texts, distinct tokens) for a seed."""
    rng = np.random.default_rng([seed, w.topics, w.docs_per_topic])
    n = w.topics * w.docs_per_topic
    shape = (n, w.sentences_per_doc, w.tokens_per_sentence)
    shared = rng.random(shape) < w.overlap
    index = rng.integers(0, w.vocab_per_topic, shape)
    labels = np.repeat(np.arange(w.topics), w.docs_per_topic)
    words = np.array(
        [[f"topic{t}word{i}" for i in range(w.vocab_per_topic)] for t in range(w.topics)]
        + [[f"shared{i}" for i in range(w.vocab_per_topic)]]
    )
    block = np.where(shared, w.topics, labels[:, None, None])
    tokens = words[block, index]
    texts = [" ".join(" ".join(s) + "." for s in doc) for doc in tokens.tolist()]
    ids = [f"t{label}d{i}" for i, label in enumerate(labels.tolist())]
    return ids, labels.tolist(), texts, np.unique(tokens).tolist()


def set_up(w: Workload, seed: int, files: Files) -> list[str]:
    """Write the workload's input files; returns the document ids."""
    ids, labels, texts, vocabulary = generate_corpus(w, seed)
    with open(files.corpus, "w", encoding="utf-8") as fh:
        for doc_id, label, text in zip(ids, labels, texts):
            fh.write(json.dumps({"id": doc_id, "label": label, "text": text}) + "\n")
    if w.train_args is None:
        from sadcluster.encoder import init_params, save_checkpoint

        tokens = ["<pad>", "<unk>"] + vocabulary
        with open(files.vocab, "w", encoding="utf-8") as fh:
            json.dump({"tokens": tokens}, fh)
        save_checkpoint(init_params(len(tokens), EMBED_DIM, EMBED_DIM, seed=seed),
                        files.checkpoint)
    return ids


def commands(w: Workload, seed: int, files: Files, train: bool = True) -> list[list[str]]:
    """The subcommands of one pass, in order; each reads the last's output.
    ``train=False`` leaves out ``train`` and embeds with the checkpoint an
    earlier pass trained."""
    steps = []
    checkpoint, vocab = files.checkpoint, files.vocab
    if w.train_args is not None:
        if train:
            steps.append(["train", "--corpus", str(files.corpus),
                          "--out-dir", str(files.train_dir), "--k", str(w.k),
                          "--seed", str(seed), *w.train_args])
        checkpoint = files.train_dir / "best.ckpt"
        vocab = files.train_dir / "vocab.json"
    steps.append(["embed", "--corpus", str(files.corpus),
                  "--checkpoint", str(checkpoint), "--vocab", str(vocab),
                  "--out", str(files.embeddings)])
    steps.append(["cluster", "--embeddings", str(files.embeddings),
                  "--out", str(files.assignments), "--k", str(w.k),
                  "--seed", str(seed)])
    steps.append(["eval", "--assignments", str(files.assignments),
                  "--corpus", str(files.corpus), "--out", str(files.metrics),
                  "--embeddings", str(files.embeddings)])
    return steps


def _finite_in(value, lo: float, hi: float, name: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value) \
            or not lo <= value <= hi:
        raise CheckFailed(f"{name}={value!r} is not a finite number in [{lo}, {hi}]")
    return float(value)


def check_train(w: Workload, files: Files) -> dict:
    with open(files.train_dir / "metrics.json", encoding="utf-8") as fh:
        metrics = json.load(fh)
    best = metrics.get("best_epoch")
    if not isinstance(best, int) or not 1 <= best <= w.epochs:
        raise CheckFailed(f"best_epoch={best!r} is not in [1, {w.epochs}]")
    if len(metrics.get("history", [])) != w.epochs:
        raise CheckFailed(f"history does not hold {w.epochs} epochs")
    for name in ("best.ckpt", "final.ckpt", "vocab.json"):
        if not (files.train_dir / name).is_file():
            raise CheckFailed(f"train wrote no {name}")
    return {"best_epoch": best}


def check_embeddings(ids: list[str], files: Files) -> dict:
    with open(files.embeddings, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("dim="):
            raise CheckFailed(f"bad embeddings header {header!r}")
        dim = int(header[4:])
        rows = [line.split() for line in fh if line.strip()]
    if [row[0] for row in rows] != ids:
        raise CheckFailed(f"embeddings hold {len(rows)} rows, not one per document in order")
    values = np.array([row[1:] for row in rows], dtype=np.float64)
    if values.shape != (len(ids), dim) or not np.all(np.isfinite(values)):
        raise CheckFailed("embeddings are not a finite n x dim table")
    return {}


def check_assignments(w: Workload, ids: list[str], files: Files) -> dict:
    with open(files.assignments, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    clusters = {record["id"]: record["cluster"] for record in records}
    if len(records) != len(ids) or sorted(clusters) != sorted(ids):
        raise CheckFailed("assignments do not cover every document exactly once")
    bad = [c for c in clusters.values() if not isinstance(c, int) or not 0 <= c < w.k]
    if bad:
        raise CheckFailed(f"{len(bad)} assignments outside [0, {w.k})")
    return {}


def check_eval(files: Files) -> dict:
    with open(files.metrics, encoding="utf-8") as fh:
        metrics = json.load(fh)
    return {
        "acc": _finite_in(metrics.get("acc"), 0.0, 1.0, "acc"),
        "ami": _finite_in(metrics.get("ami"), -1.0, 1.0, "ami"),
        "silhouette": _finite_in(metrics.get("silhouette"), -1.0, 1.0, "silhouette"),
    }


def check(w: Workload, command: str, ids: list[str], files: Files) -> dict:
    """Check one subcommand's output; raises CheckFailed, returns facts."""
    if command == "train":
        return check_train(w, files)
    if command == "embed":
        return check_embeddings(ids, files)
    if command == "cluster":
        return check_assignments(w, ids, files)
    return check_eval(files)
