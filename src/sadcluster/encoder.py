"""Token vocabulary and the trainable mean-pooling encoder.

The built-in encoder is deliberately small: an embedding table, a mean
pool over each view's token ids, and an optional affine projection with
tanh. Pooling is a product with a sparse matrix holding one unit entry
per token, so views are never padded to a common length. It trains
from scratch with exact analytic gradients, and the same interfaces
accept externally computed document embeddings (e.g. from a pre-trained
transformer run out of process).
"""

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .corpus import Corpus
from .rng import derive_rng
from .tfidf import tokenize_text

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

CHECKPOINT_FORMAT = "sadcluster-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class Vocabulary:
    """Dense token→id map with reserved pad=0 and unk=1."""

    token_to_id: dict[str, int]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK_TOKEN]

    def __len__(self) -> int:
        return len(self.token_to_id)


@dataclass
class TokenSequence:
    """One view: its token ids, truncated to at most ``max_len``, unpadded.

    The encoder reads only ``ids``. ``max_len`` is the limit the view was
    truncated to; it stays because the benchmark's token-slot counter
    reads it.
    """

    ids: np.ndarray
    max_len: int

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.ids.size > self.max_len:
            raise ValueError("ids must have at most max_len entries")

    @property
    def length(self) -> int:
        return self.ids.size


@dataclass
class EncoderParams:
    """Trainable tensors: V x d embedding table, optional d x d' projection."""

    embedding_table: np.ndarray
    projection_w: np.ndarray | None = None
    projection_b: np.ndarray | None = None

    @property
    def output_dim(self) -> int:
        if self.projection_w is not None:
            return self.projection_w.shape[1]
        return self.embedding_table.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        out = {"embedding_table": self.embedding_table}
        if self.projection_w is not None:
            out["projection_w"] = self.projection_w
            out["projection_b"] = self.projection_b
        return out

    def same_bits(self, other: "EncoderParams") -> bool:
        """True if both hold the same tensors with bitwise-equal values."""
        mine, theirs = self.tensors(), other.tensors()
        return mine.keys() == theirs.keys() and all(
            mine[k].dtype == theirs[k].dtype and mine[k].shape == theirs[k].shape
            and mine[k].tobytes() == theirs[k].tobytes() for k in mine)

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            embedding_table=self.embedding_table.copy(),
            projection_w=None if self.projection_w is None else self.projection_w.copy(),
            projection_b=None if self.projection_b is None else self.projection_b.copy(),
        )


def build_vocab(corpus: Corpus, max_vocab: int = 30000) -> Vocabulary:
    """Keep the ``max_vocab`` most frequent tokens, ties lexicographic."""
    if max_vocab < 1:
        raise ValueError("max_vocab must be >= 1")
    counts: Counter = Counter()
    for doc in corpus.documents:
        counts.update(tokenize_text(doc.text))
    if not counts:
        raise ValueError("corpus contains no tokens")
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    token_to_id = {PAD_TOKEN: 0, UNK_TOKEN: 1}
    for token, _ in ranked[:max_vocab]:
        token_to_id[token] = len(token_to_id)
    return Vocabulary(token_to_id)


def text_ids(text: str, vocab: Vocabulary) -> np.ndarray:
    """Ids of every token of ``text``, OOV mapped to unk, not truncated."""
    get, unk = vocab.token_to_id.get, vocab.unk_id
    return np.array([get(token, unk) for token in tokenize_text(text)],
                    dtype=np.int64)


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> TokenSequence:
    """Tokenize, map OOV to unk and truncate to ``max_len``."""
    return TokenSequence(text_ids(text, vocab)[:max_len], max_len)


def init_params(vocab_size: int, embed_dim: int, output_dim: int | None,
                seed: int) -> EncoderParams:
    """Seeded initialization: table uniform(-0.05, 0.05), Xavier projection.

    ``output_dim=None`` builds a projection-free encoder whose output is
    the pooled ``embed_dim`` vector itself.
    """
    table_rng = derive_rng(seed, "init", "embedding")
    table = table_rng.uniform(-0.05, 0.05, size=(vocab_size, embed_dim))
    table[0, :] = 0.0  # pad row, never pooled but kept at zero
    if output_dim is None:
        return EncoderParams(embedding_table=table)
    proj_rng = derive_rng(seed, "init", "projection")
    limit = np.sqrt(6.0 / (embed_dim + output_dim))
    w = proj_rng.uniform(-limit, limit, size=(embed_dim, output_dim))
    b = np.zeros(output_dim)
    return EncoderParams(embedding_table=table, projection_w=w, projection_b=b)


def _pooling_matrix(seqs: list[TokenSequence], vocab_size: int):
    """Sum-pooling matrix of a batch, and the token count of each row.

    Row i holds a 1.0 at column ``id`` for every token of ``seqs[i]``,
    repeats included, in token order. ``P @ table`` then adds each row's
    token vectors one by one in sequence order, as a padded gather
    followed by a masked sum does, so dividing by the lengths afterwards
    gives bit-identical means.
    """
    lengths = np.array([seq.length for seq in seqs], dtype=np.int64)
    empty = np.flatnonzero(lengths == 0)
    if empty.size:
        raise ValueError(f"sequence {empty[0]}: an empty view cannot be encoded")
    ids = np.concatenate([seq.ids for seq in seqs])
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise IndexError(f"token ids must lie in [0, {vocab_size}) for this "
                         f"embedding table, got [{ids.min()}, {ids.max()}]")
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    pool = scipy.sparse.csr_array((np.ones(ids.size), ids, indptr),
                                  shape=(len(seqs), vocab_size))
    return pool, lengths


def encode_batch_forward(params: EncoderParams, seqs: list[TokenSequence]):
    """Forward pass for a batch; returns (outputs, cache for backward)."""
    pool, lengths = _pooling_matrix(seqs, params.embedding_table.shape[0])
    pooled = (pool @ params.embedding_table) / lengths[:, None]
    if params.projection_w is None:
        return pooled, {"pool": pool, "lengths": lengths}
    out = np.tanh(pooled @ params.projection_w + params.projection_b)
    cache = {"pool": pool, "lengths": lengths, "pooled": pooled, "out": out}
    return out, cache


def encode_batch_backward(params: EncoderParams, cache: dict,
                          grad_out: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. all tensors, given dL/d(outputs)."""
    if params.projection_w is None:
        grad_pooled = grad_out
        grads = {}
    else:
        grad_affine = grad_out * (1.0 - cache["out"] ** 2)
        grads = {
            "projection_w": cache["pooled"].T @ grad_affine,
            "projection_b": grad_affine.sum(axis=0),
        }
        grad_pooled = grad_affine @ params.projection_w.T
    # P.T walks the batch rows in order and each row's tokens in order,
    # the same summation order as a scatter-add over the flattened batch
    grads["embedding_table"] = cache["pool"].T @ (grad_pooled / cache["lengths"][:, None])
    return grads


def embed_corpus(params: EncoderParams, vocab: Vocabulary, corpus: Corpus,
                 max_len: int, doc_ids: list[np.ndarray] | None = None) -> np.ndarray:
    """Embed every document of a corpus at the given max length.

    ``doc_ids`` are the documents' ``text_ids`` when the caller already
    has them; otherwise the corpus is tokenized here.
    """
    if doc_ids is None:
        doc_ids = [text_ids(doc.text, vocab) for doc in corpus.documents]
    seqs = []
    for doc, ids in zip(corpus.documents, doc_ids):
        if ids.size == 0:
            raise ValueError(f"document {doc.id!r} has no tokens")
        seqs.append(TokenSequence(ids[:max_len], max_len))
    return encode_batch_forward(params, seqs)[0]


def load_external_embeddings(path) -> dict[str, np.ndarray]:
    """Read id-keyed embeddings: header ``dim=<d>``, then ``<id> <d floats>``."""
    embeddings: dict[str, np.ndarray] = {}
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
            parts = line.split()
            doc_id, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ValueError(
                    f"line {lineno}: expected {dim} values, got {len(values)}"
                )
            if doc_id in embeddings:
                raise ValueError(f"line {lineno}: duplicate id {doc_id!r}")
            vec = np.array([float(v) for v in values])
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"line {lineno}: non-finite value")
            embeddings[doc_id] = vec
    return embeddings


def lookup_external(embeddings: dict[str, np.ndarray], corpus: Corpus) -> np.ndarray:
    """Stack external embeddings in corpus order; absent ids raise by name."""
    rows = []
    for doc in corpus.documents:
        if doc.id not in embeddings:
            raise KeyError(f"no external embedding for document id {doc.id!r}")
        rows.append(embeddings[doc.id])
    return np.stack(rows)


def save_checkpoint(params: EncoderParams, path) -> None:
    """Write parameters as deterministic jsonl (header, then one tensor/line)."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
                  "tensors": sorted(params.tensors())}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for name in sorted(params.tensors()):
            tensor = params.tensors()[name]
            record = {"name": name, "shape": list(tensor.shape),
                      "data": tensor.ravel().tolist()}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_checkpoint(path) -> EncoderParams:
    """Read parameters written by ``save_checkpoint``."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("not a checkpoint file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header.get('version')}")
        tensors = {}
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            tensors[record["name"]] = np.array(record["data"]).reshape(record["shape"])
    if set(tensors) != set(header["tensors"]):
        raise ValueError("checkpoint tensor list does not match header")
    if "embedding_table" not in tensors:
        raise ValueError("checkpoint is missing the embedding table")
    return EncoderParams(
        embedding_table=tensors["embedding_table"],
        projection_w=tensors.get("projection_w"),
        projection_b=tensors.get("projection_b"),
    )
