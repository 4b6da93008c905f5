"""Token vocabulary and the trainable mean-pooling encoder.

The built-in encoder is deliberately small: an embedding table, a mean
pool over each view's token ids, and an affine projection with tanh.
Pooling is a product with a sparse matrix holding one unit entry per
token, so views are never padded to a common length. It trains from
random weights with exact analytic gradients; the table's gradient holds only
the rows of the batch's tokens. Embeddings computed
elsewhere (e.g. by a pre-trained transformer run out of process) skip
this module: ``cluster`` and ``eval`` read them as text.
"""

import itertools
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .corpus import Corpus
from .rng import derive_rng
from .tfidf import tokenize_text

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

CHECKPOINT_FORMAT = "sadcluster-checkpoint"
CHECKPOINT_VERSION = 2


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
    """One view: the first ``max_len`` of the token ids it is given, unpadded.

    The encoder reads only ``ids``. ``max_len`` is the limit the view was
    cut to; it stays because the benchmark's token-slot counter reads it.
    """

    ids: np.ndarray
    max_len: int

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        self.ids = np.asarray(self.ids, dtype=np.int64)[:self.max_len]

    @property
    def length(self) -> int:
        return self.ids.size


@dataclass
class EncoderParams:
    """Trainable tensors: V x d embedding table, d x d' projection, d' bias."""

    embedding_table: np.ndarray
    projection_w: np.ndarray
    projection_b: np.ndarray

    @property
    def output_dim(self) -> int:
        return self.projection_w.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {"embedding_table": self.embedding_table,
                "projection_w": self.projection_w, "projection_b": self.projection_b}

    def copy(self) -> "EncoderParams":
        return EncoderParams(**{k: v.copy() for k, v in self.tensors().items()})


def build_vocab(tokens: list[str], terms: list[np.ndarray],
                max_vocab: int) -> tuple[Vocabulary, np.ndarray]:
    """Keep the ``max_vocab`` most frequent tokens, ties lexicographic.

    ``tokens`` and ``terms`` are what ``tfidf.index_tokens`` returns.
    Also returns each term's id: ``term_to_id[terms[k]]`` are text k's
    ids, with the tokens left out mapped to unk.
    """
    if max_vocab < 1:
        raise ValueError("max_vocab must be >= 1")
    if not tokens:
        raise ValueError("corpus contains no tokens")
    counts = np.bincount(np.concatenate(terms), minlength=len(tokens))
    # tokens are sorted, so a stable sort by count keeps ties lexicographic
    kept = np.argsort(-counts, kind="stable")[:max_vocab].tolist()
    token_to_id = {PAD_TOKEN: 0, UNK_TOKEN: 1}
    token_to_id.update((tokens[t], i) for i, t in enumerate(kept, start=2))
    term_to_id = np.full(len(tokens), token_to_id[UNK_TOKEN], dtype=np.int64)
    term_to_id[kept] = np.arange(2, 2 + len(kept))
    return Vocabulary(token_to_id), term_to_id


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> TokenSequence:
    """The view of ``text``: its first ``max_len`` tokens, OOV mapped to
    unk. Only those are looked up, so a long text costs ``max_len`` lookups."""
    tokens = tokenize_text(text)
    del tokens[max_len:]  # in place: a text no longer than max_len is not copied
    ids = np.fromiter(map(vocab.token_to_id.get, tokens, itertools.repeat(vocab.unk_id)),
                      np.int64, len(tokens))
    return TokenSequence(ids, max_len)


def init_params(vocab_size: int, embed_dim: int, output_dim: int,
                seed: int) -> EncoderParams:
    """Seeded initialization: table uniform(-0.05, 0.05), Xavier projection."""
    table_rng = derive_rng(seed, "init", "embedding")
    table = table_rng.uniform(-0.05, 0.05, size=(vocab_size, embed_dim))
    table[0, :] = 0.0  # pad row, never pooled but kept at zero
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
    out = np.tanh(pooled @ params.projection_w + params.projection_b)
    cache = {"pool": pool, "lengths": lengths, "pooled": pooled, "out": out}
    return out, cache


def encode_batch_backward(params: EncoderParams, cache: dict, grad_out: np.ndarray
                          ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Gradients of a scalar loss w.r.t. all tensors, given dL/d(outputs).

    The table's gradient covers only the batch's tokens. Returns the
    gradients and ``{"embedding_table": ids}``, the batch's sorted
    distinct token ids: row k of the table gradient is that of table row
    ``ids[k]``, and every other row's is zero. ``optimizer_step`` takes
    both.
    """
    grad_affine = grad_out * (1.0 - cache["out"] ** 2)
    grad_pooled = grad_affine @ params.projection_w.T
    pool = cache["pool"]
    ids, columns = np.unique(pool.indices, return_inverse=True)
    touched = scipy.sparse.csr_array((pool.data, columns, pool.indptr),
                                     shape=(pool.shape[0], ids.size))
    grads = {
        "projection_w": cache["pooled"].T @ grad_affine,
        "projection_b": grad_affine.sum(axis=0),
        # P.T walks the batch rows in order and each row's tokens in order,
        # the same summation order as a scatter-add over the flattened
        # batch; numbering the columns by touched row keeps that order
        "embedding_table": touched.T @ (grad_pooled / cache["lengths"][:, None]),
    }
    return grads, {"embedding_table": ids}


def embed_corpus(params: EncoderParams, vocab: Vocabulary, corpus: Corpus,
                 max_len: int, doc_ids: list[np.ndarray] | None = None) -> np.ndarray:
    """Embed every document of a corpus at the given max length.

    ``doc_ids`` are the documents' token ids when the caller already has
    them; otherwise the corpus is tokenized here.
    """
    if doc_ids is None:
        seqs = [tokenize(doc.text, vocab, max_len) for doc in corpus.documents]
    else:
        seqs = [TokenSequence(ids, max_len) for ids in doc_ids]
    empty = [repr(doc.id) for doc, seq in zip(corpus.documents, seqs) if seq.length == 0]
    if empty:
        raise ValueError(f"{len(empty)} document(s) have no tokens: " + ", ".join(empty))
    return encode_batch_forward(params, seqs)[0]


def save_checkpoint(params: EncoderParams, path) -> None:
    """Write a JSON header line, then each tensor as one ``.npy`` record."""
    tensors = params.tensors()
    header = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
              "tensors": sorted(tensors)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in header["tensors"]:
            np.lib.format.write_array(fh, tensors[name], allow_pickle=False)


def load_checkpoint(path) -> EncoderParams:
    """Read what ``save_checkpoint`` wrote; any other file, or tensors no
    encoder can hold, raise ValueError."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as err:  # a binary or non-JSON first line
            raise ValueError("not a checkpoint file") from err
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("not a checkpoint file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"checkpoint version {header.get('version')!r} is not "
                             f"supported; this build reads version {CHECKPOINT_VERSION}")
        names = header.get("tensors")
        if names != ["embedding_table", "projection_b", "projection_w"]:
            raise ValueError(f"checkpoint tensor list {names!r} is not the one "
                             "save_checkpoint writes")
        tensors = {}
        for name in names:
            try:
                tensors[name] = np.lib.format.read_array(fh, allow_pickle=False)
            except ValueError as err:  # truncated, or an object array
                raise ValueError(f"checkpoint tensor {name!r}: {err}") from err
            if tensors[name].dtype != np.float64:
                raise ValueError(f"checkpoint tensor {name!r} has dtype "
                                 f"{tensors[name].dtype.str}, not native float64")
            if not np.all(np.isfinite(tensors[name])):
                raise ValueError(f"checkpoint tensor {name!r} has non-finite values")
        if fh.read(1):
            raise ValueError("checkpoint has bytes after its last tensor")
    table = tensors["embedding_table"]
    if table.ndim != 2 or table.size == 0:
        raise ValueError(f"checkpoint tensor 'embedding_table' has shape {table.shape}, "
                         "not a non-empty V x d table")
    w, b = tensors["projection_w"], tensors["projection_b"]
    if w.ndim != 2 or w.shape[0] != table.shape[1] or w.size == 0:
        raise ValueError(f"checkpoint tensor 'projection_w' has shape {w.shape}, "
                         f"not ({table.shape[1]}, d') with d' >= 1")
    if b.shape != w.shape[1:]:
        raise ValueError(f"checkpoint tensor 'projection_b' has shape {b.shape}, "
                         f"not {w.shape[1:]}")
    return EncoderParams(**tensors)
