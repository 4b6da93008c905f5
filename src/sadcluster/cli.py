"""Command line pipeline: synth, preprocess, train, embed, cluster, eval.

Every subcommand is rerunnable: the same inputs and seed produce the
same output bytes. All randomness flows from --seed through named
sub-streams, so results cannot depend on scheduling. A failure exits 1
with a one-line JSON object on stderr; a usage error exits 2 (argparse).
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .cluster import spherical_kmeans
from .contrastive import TrainConfig, train
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
    save_checkpoint,
)
from .evaluate import evaluate_clustering
from .synth import generate_synthetic_corpus
from .tfidf import fit_tfidf, index_tokens, transform_corpus

METRICS_SCHEMA_VERSION = 1


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_labeled(path) -> Corpus:
    corpus = load_corpus(path)
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
        try:
            payload = json.load(fh)
        except ValueError as err:  # not JSON, or not UTF-8
            raise ValueError(f"not a vocabulary file: {path}: {err}") from err
    tokens = payload.get("tokens") if isinstance(payload, dict) else None
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


def check_ids(ids) -> None:
    """Reject an id the embeddings format cannot hold: empty, or with
    whitespace, which separates the fields of a line."""
    for doc_id in ids:
        if not doc_id or any(ch.isspace() for ch in doc_id):
            raise ValueError(
                f"document id {doc_id!r} is empty or contains whitespace and "
                "cannot be written to the embeddings format"
            )


def write_embeddings(ids, embeddings: np.ndarray, path) -> None:
    """Text format: header ``dim=<d>``, then ``<id> <d floats>`` per doc.

    Every id is checked before ``path`` is opened, so a bad id leaves no
    partial file behind.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    check_ids(ids)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={embeddings.shape[1]}\n")
        fh.writelines(doc_id + " " + " ".join(map(repr, row.tolist())) + "\n"
                      for doc_id, row in zip(ids, embeddings))


def read_embeddings(path):
    """Returns (ids in file order, n x d float array).

    The one reader of the format ``write_embeddings`` writes, whether the
    file came from ``embed`` or from another encoder. A bad header, a
    wrong value count, a repeated id and a non-finite value raise
    ValueError naming the line, and a value ``float`` cannot parse raises
    its error; of several bad lines, the first is reported.
    """
    ids, lines, values, seen = [], [], [], set()
    problem = None  # raised once the lines before it are checked for non-finite values
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("dim="):
            raise ValueError("expected header line 'dim=<d>'")
        try:
            dim = int(header[4:])
        except ValueError as err:
            raise ValueError(f"bad dimension in header: {header!r}") from err
        if dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            doc_id, *row = line.split()
            if len(row) != dim:
                problem = ValueError(f"line {lineno}: expected {dim} values, got {len(row)}")
            elif doc_id in seen:
                problem = ValueError(f"line {lineno}: duplicate id {doc_id!r}")
            else:
                try:
                    values += map(float, row)
                except ValueError as err:
                    problem = err
                    del values[len(ids) * dim:]
            if problem is not None:
                break
            seen.add(doc_id)
            ids.append(doc_id)
            lines.append(lineno)
    x = np.array(values).reshape(len(ids), dim)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"line {lines[bad[0]]}: non-finite value")
    if problem is not None:
        raise problem
    if not ids:
        raise ValueError(f"embeddings file is empty: {path}")
    return ids, x


def _check_outputs(args) -> None:
    """Fail before any work on a file to write that cannot be created."""
    for flag in args.outputs:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path and Path(path).is_dir():
            raise IsADirectoryError(f"{flag} {path} is a directory")
        if path and not Path(path).parent.is_dir():
            raise FileNotFoundError(f"{flag} {path}: directory {Path(path).parent} "
                                    "does not exist")


def _given(args, *own) -> dict:
    """The options given on the command line, less the ``own`` ones the
    command reads itself. A sub-parser built with ``argparse.SUPPRESS``
    sets nothing for an option not given, so the library default holds."""
    return {k: v for k, v in vars(args).items()
            if k not in {"command", "func", "outputs", *own}}


def cmd_synth(args) -> int:
    save_corpus(generate_synthetic_corpus(**_given(args, "out")), args.out)
    return 0


def cmd_preprocess(args) -> int:
    if args.min_sentences < 0:
        raise ValueError("min_sentences must be >= 0 (0 keeps every document)")
    corpus = load_corpus(getattr(args, "in"))
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
    tokens, terms = index_tokens(doc.text for doc in corpus.documents)
    x = transform_corpus(fit_tfidf(terms, len(tokens)), terms)
    with open(path, "w", encoding="utf-8") as fh:
        for doc, start, stop in zip(corpus.documents, x.indptr[:-1], x.indptr[1:]):
            record = {
                "id": doc.id,
                "indices": x.indices[start:stop].tolist(),
                "values": x.data[start:stop].tolist(),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _dump_pairs(corpus: Corpus, method: str, first_pairs, path) -> None:
    """Debugging dump of the positives epoch 1 trained on.

    sad pairs are written in corpus order with their batch index; a
    document in a skipped batch has no pair and no line.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if method == "sad":
            for b, i, (half_a, half_b) in sorted(first_pairs, key=lambda p: p[1]):
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
            for n in range(first_pairs.partner.shape[0]):
                record = {
                    "n": n,
                    "m": int(first_pairs.partner[n]),
                    "sim": float(first_pairs.similarity[n]),
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    settings = vars(args)
    config = TrainConfig(**{f.name: settings[f.name] for f in dataclasses.fields(TrainConfig)
                            if f.name in settings})
    # a bad id or an out-dir train cannot create fails now, not after the run
    check_ids([doc.id for doc in corpus.documents])
    out_dir = Path(args.out_dir)
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise NotADirectoryError(f"--out-dir {out_dir}: {nearest} is not a directory")
    result = train(corpus, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.best_params, out_dir / "best.ckpt")
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
    if args.dump_tfidf:
        _dump_tfidf(corpus, args.dump_tfidf)
    if args.dump_pairs:
        _dump_pairs(corpus, config.method, result.first_pairs, args.dump_pairs)
    print(json.dumps({"best_epoch": result.best_epoch,
                      "epochs": len(result.history),
                      "out_dir": str(out_dir)}, sort_keys=True))
    return 0


def cmd_embed(args) -> int:
    if args.max_len < 1:
        raise ValueError(f"--max-len must be >= 1, got {args.max_len}")
    corpus = load_corpus(args.corpus)
    check_ids([doc.id for doc in corpus.documents])
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
    model = spherical_kmeans(embeddings, **_given(args, "embeddings", "out"))
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
            if not isinstance(record, dict) or not {"id", "cluster"} <= record.keys():
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
    corpus = _load_labeled(args.corpus)
    assignments = _read_assignments(args.assignments)
    clusters = []
    for doc in corpus.documents:
        if doc.id not in assignments:
            raise ValueError(f"no cluster assignment for document {doc.id!r}")
        clusters.append(assignments[doc.id])
    labels = corpus.labels_array()

    embeddings = None
    if args.embeddings:
        ids, embeddings = read_embeddings(args.embeddings)
        row = {doc_id: i for i, doc_id in enumerate(ids)}
        for doc in corpus.documents:
            if doc.id not in row:
                raise ValueError(f"no external embedding for document id {doc.id!r}")
        # rebinding frees the file-order copy before the silhouette runs
        embeddings = embeddings[[row[doc.id] for doc in corpus.documents]]

    report = evaluate_clustering(labels, clusters, embeddings=embeddings,
                                 seed=args.silhouette_seed)
    payload = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "acc": report.acc,
        "ami": report.ami,
        "silhouette": report.silhouette,
        "mapping": {str(c): int(l) for c, l in sorted(report.mapping.items())},
        "confusion": [[int(v) for v in row] for row in report.confusion],
        "n": len(labels),
    }
    _write_json(payload, args.out)
    print(json.dumps({"acc": report.acc, "ami": report.ami,
                      "silhouette": report.silhouette}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sadcluster",
        description="Contrastive document clustering pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic topic-block corpus",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.add_argument("--topics", type=int)
    p.add_argument("--docs-per-topic", type=int)
    p.add_argument("--vocab-per-topic", type=int)
    p.add_argument("--sentences-per-doc", type=int)
    p.add_argument("--tokens-per-sentence", type=int)
    p.add_argument("--overlap", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth, outputs=("--out",))

    p = sub.add_parser("preprocess", help="clean a corpus and report stats")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--profile", choices=("newsgroup", "reuters", "none"),
                   default="none")
    p.add_argument("--min-words", type=int, default=10)
    p.add_argument("--top-k-classes", type=int, default=10)
    p.add_argument("--min-sentences", type=int, default=0)
    p.add_argument("--stats", default=None)
    p.set_defaults(func=cmd_preprocess, outputs=("--out", "--stats"))

    p = sub.add_parser("train", help="contrastive training with per-epoch selection")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=int, required=True, dest="num_clusters", metavar="K")
    p.add_argument("--method", choices=("sad", "tps"), default=TrainConfig.method)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                   dest="learning_rate", metavar="LR")
    p.add_argument("--temperature", type=float, default=TrainConfig.temperature)
    p.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--max-len-train", type=int, default=TrainConfig.max_len_train)
    p.add_argument("--max-len-test", type=int, default=TrainConfig.max_len_test)
    p.add_argument("--optimizer", choices=("adamw", "sgd"),
                   default=TrainConfig.optimizer)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p.add_argument("--embed-dim", type=int, default=TrainConfig.embed_dim)
    p.add_argument("--output-dim", type=int, default=TrainConfig.output_dim)
    p.add_argument("--max-vocab", type=int, default=TrainConfig.max_vocab)
    p.add_argument("--dump-tfidf", default=None)
    p.add_argument("--dump-pairs", default=None)
    p.set_defaults(func=cmd_train, outputs=("--dump-pairs", "--dump-tfidf"))

    p = sub.add_parser("embed", help="embed a corpus with a saved checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-len", type=int, default=TrainConfig.max_len_test)
    p.set_defaults(func=cmd_embed, outputs=("--out",))

    p = sub.add_parser("cluster", help="spherical k-means over an embeddings file",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_cluster, outputs=("--out",))

    p = sub.add_parser("eval", help="score assignments against gold labels")
    p.add_argument("--assignments", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--silhouette-seed", type=int, default=0)
    p.set_defaults(func=cmd_eval, outputs=("--out",))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except Exception as err:  # surfaced as machine-readable JSON
        print(json.dumps({"error": type(err).__name__, "message": str(err)},
                         sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
