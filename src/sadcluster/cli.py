"""Command line pipeline: synth, preprocess, train, embed, cluster, eval.

Every subcommand is rerunnable: the same inputs and seed produce the
same output bytes. All randomness flows from --seed through named
sub-streams, so results cannot depend on scheduling. Errors exit
nonzero with a one-line JSON object on stderr.
"""

import argparse
import dataclasses
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from .augment import shuffle_divide
from .cluster import spherical_kmeans
from .contrastive import TrainConfig, epoch_rng, sad_batches, train
from .corpus import (
    Corpus,
    filter_min_sentences,
    load_corpus,
    preprocess_newsgroup_style,
    preprocess_reuters_style,
    save_corpus,
)
from .encoder import (
    PAD_TOKEN,
    UNK_TOKEN,
    Vocabulary,
    embed_corpus,
    load_checkpoint,
    load_external_embeddings,
    lookup_external,
    save_checkpoint,
)
from .evaluate import evaluate_clustering
from .synth import generate_synthetic_corpus
from .tfidf import fit_tfidf, similarity_matrix, top1_from_matrix, transform_corpus

METRICS_SCHEMA_VERSION = 1


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_labeled(path, format: str) -> Corpus:
    corpus = load_corpus(path, format=format)
    missing = [doc.id for doc in corpus.documents if doc.label is None]
    if missing:
        raise ValueError(
            f"corpus has {len(missing)} unlabeled documents "
            f"(first: {missing[0]!r}); labels are required here"
        )
    return corpus


def save_vocab(vocab: Vocabulary, path) -> None:
    tokens = [None] * len(vocab)
    for token, idx in vocab.token_to_id.items():
        tokens[idx] = token
    _write_json({"tokens": tokens}, path)


def load_vocab(path) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    tokens = payload.get("tokens")
    if not isinstance(tokens, list) or len(tokens) < 2:
        raise ValueError(f"not a vocabulary file: {path}")
    if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
        raise ValueError(f"{path}: tokens 0 and 1 must be {PAD_TOKEN!r} and "
                         f"{UNK_TOKEN!r}, got {tokens[0]!r} and {tokens[1]!r}")
    token_to_id = {}
    for i, token in enumerate(tokens):
        if not isinstance(token, str):
            raise ValueError(f"{path}: token {i} is not a string: {token!r}")
        if token in token_to_id:
            raise ValueError(f"{path}: token {i} {token!r} repeats token "
                             f"{token_to_id[token]}")
        token_to_id[token] = i
    return Vocabulary(token_to_id)


def write_embeddings(ids, embeddings: np.ndarray, path) -> None:
    """Text format: header ``dim=<d>``, then ``<id> <d floats>`` per doc.

    Every id is checked before ``path`` is opened, so a bad id leaves no
    partial file behind.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    for doc_id in ids:
        if not doc_id or any(ch.isspace() for ch in doc_id):
            raise ValueError(
                f"document id {doc_id!r} is empty or contains whitespace and "
                "cannot be written to the embeddings format"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={embeddings.shape[1]}\n")
        for doc_id, row in zip(ids, embeddings):
            fh.write(doc_id + " " + " ".join(repr(float(v)) for v in row) + "\n")


def read_embeddings(path):
    """Returns (ids in file order, n x d float array)."""
    table = load_external_embeddings(path)
    ids = list(table)
    if not ids:
        raise ValueError(f"embeddings file is empty: {path}")
    return ids, np.stack([table[i] for i in ids])


def cmd_synth(args) -> int:
    corpus = generate_synthetic_corpus(
        topics=args.topics,
        docs_per_topic=args.docs_per_topic,
        vocab_per_topic=args.vocab_per_topic,
        sentences_per_doc=args.sentences_per_doc,
        tokens_per_sentence=args.tokens_per_sentence,
        overlap=args.overlap,
        seed=args.seed,
    )
    save_corpus(corpus, args.out)
    return 0


def cmd_preprocess(args) -> int:
    corpus = load_corpus(getattr(args, "in"), format=args.format)
    before = len(corpus)
    if args.profile == "newsgroup":
        corpus = preprocess_newsgroup_style(corpus, min_words=args.min_words)
    elif args.profile == "reuters":
        corpus = preprocess_reuters_style(corpus, top_k_classes=args.top_k_classes)
    if args.min_sentences > 0:
        corpus = filter_min_sentences(corpus, args.min_sentences)
    save_corpus(corpus, args.out)
    if args.stats:
        histogram: dict[str, int] = {}
        for doc in corpus.documents:
            if doc.label is None:
                key = "unlabeled"
            elif corpus.label_names is not None:
                key = corpus.label_names[doc.label]
            else:
                key = str(doc.label)
            histogram[key] = histogram.get(key, 0) + 1
        _write_json(
            {
                "schema_version": METRICS_SCHEMA_VERSION,
                "documents_before": before,
                "documents_after": len(corpus),
                "class_histogram": histogram,
            },
            args.stats,
        )
    return 0


def _dump_tfidf(corpus: Corpus, path) -> None:
    model = fit_tfidf(corpus)
    x = transform_corpus(model, corpus)
    with open(path, "w", encoding="utf-8") as fh:
        for doc, start, stop in zip(corpus.documents, x.indptr[:-1], x.indptr[1:]):
            record = {
                "id": doc.id,
                "indices": x.indices[start:stop].tolist(),
                "values": x.data[start:stop].tolist(),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _dump_pairs(corpus: Corpus, config: TrainConfig, path) -> None:
    """Debugging dump of the positives training builds in epoch 1.

    sad pairs are drawn as training draws them (same stream, batch order
    and skipped final batch) and written in corpus order with their
    batch index; a document in a skipped batch has no pair and no line.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if config.method == "sad":
            rng = epoch_rng(config.seed, 1)
            pairs = {}
            for b, idx in sad_batches(len(corpus), config.batch_size, rng):
                for i in idx:
                    pairs[int(i)] = (b, shuffle_divide(corpus.documents[i], rng))
            for i in sorted(pairs):
                b, (half_a, half_b) = pairs[i]
                sentences = corpus.documents[i].sentences
                record = {
                    "batch": b,
                    "source_id": corpus.documents[i].id,
                    "view_a": " ".join(sentences[j] for j in half_a),
                    "view_b": " ".join(sentences[j] for j in half_b),
                    "sentence_ids_a": half_a.tolist(),
                    "sentence_ids_b": half_b.tolist(),
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            model = fit_tfidf(corpus)
            sims = similarity_matrix(transform_corpus(model, corpus))
            pairing = top1_from_matrix(sims)
            for n in range(pairing.partner.shape[0]):
                record = {
                    "n": n,
                    "m": int(pairing.partner[n]),
                    "sim": float(pairing.similarity[n]),
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def cmd_train(args) -> int:
    corpus = load_corpus(args.corpus, format=args.format)
    config = TrainConfig(
        method=args.method,
        batch_size=args.batch_size,
        temperature=args.temperature,
        learning_rate=args.lr,
        optimizer=args.optimizer,
        weight_decay=args.weight_decay,
        epochs=args.epochs,
        alpha=args.alpha,
        seed=args.seed,
        max_len_train=args.max_len_train,
        max_len_test=args.max_len_test,
        num_clusters=args.k,
        embed_dim=args.embed_dim,
        output_dim=args.output_dim,
        max_vocab=args.max_vocab,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.dump_tfidf:
        _dump_tfidf(corpus, args.dump_tfidf)
    if args.dump_pairs:
        _dump_pairs(corpus, config, args.dump_pairs)

    result = train(corpus, config)
    save_checkpoint(result.best_params, out_dir / "best.ckpt")
    if result.final_params.same_bits(result.best_params):
        # the best epoch was the last: the same bytes, serialized once
        shutil.copyfile(out_dir / "best.ckpt", out_dir / "final.ckpt")
    else:
        save_checkpoint(result.final_params, out_dir / "final.ckpt")
    save_vocab(result.vocab, out_dir / "vocab.json")
    _write_json(
        {
            "schema_version": METRICS_SCHEMA_VERSION,
            "command": "train",
            "config": dataclasses.asdict(config),
            "history": result.history,
            "best_epoch": result.best_epoch,
        },
        out_dir / "metrics.json",
    )
    print(json.dumps({"best_epoch": result.best_epoch,
                      "epochs": len(result.history),
                      "out_dir": str(out_dir)}, sort_keys=True))
    return 0


def cmd_embed(args) -> int:
    corpus = load_corpus(args.corpus, format=args.format)
    params = load_checkpoint(args.checkpoint)
    vocab = load_vocab(args.vocab)
    rows = params.embedding_table.shape[0]
    if len(vocab) != rows:
        raise ValueError(f"vocabulary {args.vocab} has {len(vocab)} tokens but the "
                         f"checkpoint's embedding table has {rows} rows")
    embeddings = embed_corpus(params, vocab, corpus, args.max_len)
    write_embeddings([doc.id for doc in corpus.documents], embeddings, args.out)
    return 0


def cmd_cluster(args) -> int:
    ids, embeddings = read_embeddings(args.embeddings)
    model = spherical_kmeans(
        embeddings,
        k=args.k,
        seed=args.seed,
        max_iter=args.max_iter,
        tol=args.tol,
        restarts=args.restarts,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        for doc_id, cluster in zip(ids, model.assignments):
            fh.write(json.dumps({"cluster": int(cluster), "id": doc_id},
                                sort_keys=True) + "\n")
    print(json.dumps({"iterations": model.iterations_run, "k": args.k,
                      "n": len(ids), "objective": model.objective},
                     sort_keys=True))
    return 0


def _read_assignments(path) -> dict[str, int]:
    assignments: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"line {lineno}: invalid JSON: {err}") from err
            if "id" not in record or "cluster" not in record:
                raise ValueError(f"line {lineno}: expected keys 'id' and 'cluster'")
            doc_id = record["id"]
            if doc_id in assignments:
                raise ValueError(f"line {lineno}: duplicate id {doc_id!r}")
            cluster = record["cluster"]
            if type(cluster) is not int or cluster < 0:  # JSON true/false are bool
                raise ValueError(f"line {lineno}: cluster must be a non-negative integer")
            assignments[doc_id] = cluster
    if not assignments:
        raise ValueError(f"assignments file is empty: {path}")
    return assignments


def cmd_eval(args) -> int:
    corpus = _load_labeled(args.corpus, format=args.format)
    assignments = _read_assignments(args.assignments)
    clusters = []
    for doc in corpus.documents:
        if doc.id not in assignments:
            raise ValueError(f"no cluster assignment for document {doc.id!r}")
        clusters.append(assignments[doc.id])
    labels = corpus.labels_array()

    embeddings = None
    if args.embeddings:
        table = load_external_embeddings(args.embeddings)
        embeddings = lookup_external(table, corpus)

    report = evaluate_clustering(labels, clusters, embeddings=embeddings,
                                 sample_cap=args.sample_cap,
                                 seed=args.silhouette_seed)
    payload = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "acc": report.acc,
        "ami": report.ami,
        "silhouette": None if math.isnan(report.silhouette) else report.silhouette,
        "mapping": {str(c): int(l) for c, l in sorted(report.mapping.items())},
        "confusion": [[int(v) for v in row] for row in report.confusion],
        "n": len(labels),
    }
    _write_json(payload, args.out)
    print(json.dumps({"acc": report.acc, "ami": report.ami,
                      "silhouette": payload["silhouette"]}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sadcluster",
        description="Contrastive document clustering pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic topic-block corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--topics", type=int, default=4)
    p.add_argument("--docs-per-topic", type=int, default=50)
    p.add_argument("--vocab-per-topic", type=int, default=600)
    p.add_argument("--sentences-per-doc", type=int, default=10)
    p.add_argument("--tokens-per-sentence", type=int, default=10)
    p.add_argument("--overlap", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="clean a corpus and report stats")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--profile", choices=("newsgroup", "reuters", "none"),
                   default="none")
    p.add_argument("--format", choices=("jsonl", "dir-per-class"),
                   default="jsonl")
    p.add_argument("--min-words", type=int, default=10)
    p.add_argument("--top-k-classes", type=int, default=10)
    p.add_argument("--min-sentences", type=int, default=0)
    p.add_argument("--stats", default=None)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="contrastive training with per-epoch selection")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("jsonl", "dir-per-class"),
                   default="jsonl")
    p.add_argument("--method", choices=("sad", "tps"), default="sad")
    p.add_argument("--batch-size", type=int, default=320)
    p.add_argument("--lr", type=float, default=3e-5)
    p.add_argument("--temperature", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len-train", type=int, default=128)
    p.add_argument("--max-len-test", type=int, default=256)
    p.add_argument("--optimizer", choices=("adamw", "sgd"), default="adamw")
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--output-dim", type=int, default=64)
    p.add_argument("--max-vocab", type=int, default=30000)
    p.add_argument("--dump-tfidf", default=None)
    p.add_argument("--dump-pairs", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed a corpus with a saved checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("jsonl", "dir-per-class"),
                   default="jsonl")
    p.add_argument("--max-len", type=int, default=256)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("cluster", help="spherical k-means over an embeddings file")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("eval", help="score assignments against gold labels")
    p.add_argument("--assignments", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("jsonl", "dir-per-class"),
                   default="jsonl")
    p.add_argument("--embeddings", default=None)
    p.add_argument("--silhouette-seed", type=int, default=0)
    p.add_argument("--sample-cap", type=int, default=2000)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # surfaced as machine-readable JSON
        print(json.dumps({"error": type(err).__name__, "message": str(err)},
                         sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
