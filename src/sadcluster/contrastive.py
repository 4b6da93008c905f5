"""Contrastive training: batches, NT-Xent loss, AdamW, training loop.

Positive pairs come either from shuffle & divide (two halves of the same
document) or from TF-IDF top-1 sampling (a document and its most similar
neighbor). Each mini-batch holds B pairs laid out as rows (2i, 2i+1);
every anchor sees its positive plus 2B-2 negatives. Model selection is
label-free: after each epoch the corpus is embedded, clustered with
spherical k-means, and scored by cosine silhouette; the epoch with the
best silhouette wins.
"""

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.sparse

from .augment import shuffle_divide
from .cluster import spherical_kmeans, unit_rows
from .corpus import Corpus
from .encoder import (
    EncoderParams,
    TokenSequence,
    Vocabulary,
    build_vocab,
    embed_corpus,
    encode_batch_backward,
    encode_batch_forward,
    init_params,
    tokenize,
)
from .evaluate import silhouette_score
from .rng import derive_rng, derive_seed
from .tfidf import (
    PositivePairing,
    TopKSimilarity,
    fit_tfidf,
    index_tokens,
    label_match_rate,
    top1_from_matrix,
    transform_corpus,
)


@dataclass
class TrainConfig:
    """Hyperparameters for contrastive training.

    ``epochs=None`` uses the method default: ceil(n / batch_size) for
    sad, 4 for tps. ``num_clusters`` drives the per-epoch k-means used
    for silhouette model selection and must be set before training.
    """

    method: str = "sad"
    batch_size: int = 320
    temperature: float = 0.5
    learning_rate: float = 3e-5
    weight_decay: float = 0.0
    epochs: int | None = None
    alpha: float = 0.5
    seed: int = 0
    max_len_train: int = 128
    max_len_test: int = 256
    num_clusters: int | None = None
    embed_dim: int = 64
    output_dim: int = 64
    max_vocab: int = 30000
    # not a setting: only the benchmark's optimizer-bytes counter reads it,
    # and it goes when the benchmark reads the program's own trace
    optimizer: ClassVar[str] = "adamw"

    def __post_init__(self):
        if self.method not in ("sad", "tps"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        for name in ("temperature", "learning_rate", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.epochs is not None and self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.max_len_train < 1 or self.max_len_test < 1:
            raise ValueError("max lengths must be >= 1")
        if self.num_clusters is not None and self.num_clusters < 2:
            raise ValueError("num_clusters must be >= 2 (or None until training)")
        if self.max_vocab < 1:
            raise ValueError("max_vocab must be >= 1")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if self.output_dim < 1:
            raise ValueError("output_dim must be >= 1")


@dataclass
class TrainResult:
    """``first_pairs`` are epoch 1's positives: for sad, ``(batch, document
    index, halves)`` per trained document in training order; for tps, the
    pairing. ``tfidf`` is the TF-IDF matrix tps pairs on (None for sad)."""

    best_params: EncoderParams
    final_params: EncoderParams
    vocab: Vocabulary
    history: list[dict]
    best_epoch: int
    first_pairs: list[tuple[int, int, tuple[np.ndarray, np.ndarray]]] | PositivePairing
    tfidf: scipy.sparse.csr_matrix | None


def sad_batches(n: int, batch_size: int,
                rng: np.random.Generator) -> list[tuple[int, np.ndarray]]:
    """One sad epoch's batches as (batch index, document indices).

    Draws the epoch's document order from ``rng``, which the batches'
    shuffle & divide draws then continue, batch by batch. A final batch
    of one document is skipped: the loss needs 2 pairs.
    """
    order = rng.permutation(n)
    batches = enumerate(order[start:start + batch_size]
                        for start in range(0, n, batch_size))
    return [(b, idx) for b, idx in batches if idx.size >= 2]


def build_batch_sad(halves: list[tuple[np.ndarray, np.ndarray]],
                    doc_sentence_ids: list[list[np.ndarray]],
                    max_len: int) -> list[TokenSequence]:
    """Shuffle-and-divide batch: document k's two halves at rows (2k, 2k+1).

    ``halves[k]`` is what ``shuffle_divide`` drew for document k and
    ``doc_sentence_ids[k]`` are its sentences' ids. A half's ids are its
    sentences' ids concatenated, then truncated: the same as tokenizing
    the space-joined half, since no token spans a space.
    """
    views = []
    for pair, ids in zip(halves, doc_sentence_ids, strict=True):
        for half in pair:
            joined = np.concatenate([ids[i] for i in half.tolist()])
            views.append(TokenSequence(joined[:max_len], max_len))
    return views


def build_batch_tps(pairing: PositivePairing, anchors,
                    doc_ids: list[np.ndarray], max_len: int) -> list[TokenSequence]:
    """TPS batch from anchor indices: views (2i, 2i+1) = (D_n, D_partner[n]).

    ``doc_ids[k]`` are the token ids of document k. A document may appear
    at most once in a batch, whether as anchor or partner; a collision
    raises.
    """
    views = []
    used: set[int] = set()
    for n in anchors:
        n = int(n)
        m = int(pairing.partner[n])
        if n in used or m in used:
            raise ValueError(
                f"document collision in batch: anchor {n} / partner {m} "
                "already sampled"
            )
        used.update((n, m))
        views += [TokenSequence(doc_ids[n][:max_len], max_len),
                  TokenSequence(doc_ids[m][:max_len], max_len)]
    return views


def plan_tps_batches(pairing: PositivePairing, batch_size: int,
                     rng: np.random.Generator) -> list[list[int]]:
    """Split all documents into collision-free anchor batches.

    Documents are visited in a random order; an anchor whose pair would
    collide with the current batch is deferred to the next one. Batches
    with fewer than 2 pairs are dropped.
    """
    n = pairing.partner.shape[0]
    remaining = deque(int(i) for i in rng.permutation(n))
    batches = []
    while remaining:
        current: list[int] = []
        used: set[int] = set()
        deferred: list[int] = []
        while remaining and len(current) < batch_size:
            i = remaining.popleft()
            m = int(pairing.partner[i])
            if i in used or m in used:
                deferred.append(i)
                continue
            current.append(i)
            used.update((i, m))
        if len(current) >= 2:
            batches.append(current)
        if not current:
            break
        remaining = deque(deferred + list(remaining))
    return batches


def _normalize_embeddings(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] % 2 != 0:
        raise ValueError("embeddings must be a 2B x d matrix")
    if x.shape[0] < 4:
        raise ValueError("need at least 2 pairs (no negatives otherwise)")
    return unit_rows(x)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def nt_xent(embeddings: np.ndarray, temperature: float) -> tuple[float, np.ndarray]:
    """Normalized temperature-scaled cross entropy over 2B embeddings, and
    its exact gradient w.r.t. the unnormalized rows.

    Row 2i's positive is row 2i+1 and vice versa; all other 2B-2 rows
    are negatives. Rows are L2-normalized first. One array of
    exp(logit - row max) gives both the stabilized log-sum-exp of the
    loss and the softmax of the gradient.
    """
    unit, norms = _normalize_embeddings(embeddings)
    n = unit.shape[0]
    rows = np.arange(n)
    pos = rows ^ 1
    logits = (unit @ unit.T) / temperature
    np.fill_diagonal(logits, -np.inf)
    positive = logits[rows, pos]
    row_max = logits.max(axis=1)
    logits -= row_max[:, None]
    g = np.exp(logits, out=logits)
    total = g.sum(axis=1)
    loss = float((row_max + np.log(total) - positive).mean())
    g /= total[:, None]
    g[rows, pos] -= 1.0
    g /= n
    grad_unit = (g + g.T) @ unit / temperature
    radial = np.sum(grad_unit * unit, axis=1, keepdims=True)
    return loss, (grad_unit - radial * unit) / norms[:, None]


def nt_xent_loss(embeddings: np.ndarray, temperature: float) -> float:
    """The loss of ``nt_xent``."""
    return nt_xent(embeddings, temperature)[0]


def nt_xent_gradient(embeddings: np.ndarray, temperature: float) -> np.ndarray:
    """The gradient of ``nt_xent``."""
    return nt_xent(embeddings, temperature)[1]


@dataclass
class OptimizerState:
    """AdamW's step count and moments. Each moment is one scale, shared by
    every tensor, times an array per tensor: tensor ``name`` has first
    moment ``m_scale * m[name]`` and second moment ``v_scale * r[name]**2``.
    The zero arrays a tensor first seen at a later step starts with are
    right at any scale."""

    step: int = 0
    m_scale: float = 1.0
    v_scale: float = 1.0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    r: dict[str, np.ndarray] = field(default_factory=dict)


# AdamW's moment decay rates and denominator term: the usual values, fixed
ADAMW_BETA1 = 0.9
ADAMW_BETA2 = 0.999
ADAMW_EPS = 1e-8
# A scale below this is multiplied into its arrays and reset to 1, long
# before the arrays (about gradient / scale) could overflow: with
# beta1 = 0.9 every 2185 steps, with beta2 = 0.999 every 230k.
ADAMW_RESCALE_BELOW = 1e-100
# A step updates the moments of a block's touched rows and then makes four
# elementwise passes over the block before it goes on to the next, so the
# block stays in cache. About 64k elements (512 KB) per block.
ADAMW_BLOCK_ELEMENTS = 1 << 16


def optimizer_step(tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                   config: TrainConfig, state: OptimizerState,
                   rows: dict[str, np.ndarray] | None = None) -> None:
    """One in-place AdamW (decoupled weight decay) update.

    ``tensors`` maps names to the 1-d or 2-d arrays to update in place
    (for an encoder, ``params.tensors()``). ``rows`` maps a name to the
    sorted distinct rows its gradient covers, as ``encode_batch_backward``
    returns them: ``grads[name]`` then holds just those rows, and every
    other row takes a zero gradient's step. A gradient not named in
    ``rows`` covers its whole tensor. With the moments held as in
    ``OptimizerState`` (M = ``m[name]``, R = ``r[name]``), AdamW on the
    full gradient,
        m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g**2,
        p -= lr (m_hat / (sqrt(v_hat) + eps) + wd p),
    becomes, up to rounding,
        m_scale *= b1,  M[rows] += (1 - b1) g / m_scale,
        v_scale *= b2,  R[rows] = sqrt(R[rows]**2 + (1 - b2) g**2 / v_scale),
        p -= rate M / (R + eps'),  after p *= 1 - lr wd,
    where sqrt(v_hat) = c R with c = sqrt(v_scale / (1 - b2**t)), so
    eps' = eps / c and rate = lr m_scale / ((1 - b1**t) c). Non-finite
    gradients, or values after the update, abort with the tensor name.
    """
    rows = rows or {}
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient for {name}")
        shape = tensors[name].shape
        if name in rows:
            shape = (len(rows[name]), *shape[1:])
        if grad.shape != shape:
            raise ValueError(f"shape mismatch for {name}")
    state.step += 1
    t, b1, b2 = state.step, ADAMW_BETA1, ADAMW_BETA2
    state.m_scale *= b1
    state.v_scale *= b2
    if state.m_scale < ADAMW_RESCALE_BELOW:
        for m in state.m.values():
            m *= state.m_scale
        state.m_scale = 1.0
    if state.v_scale < ADAMW_RESCALE_BELOW:
        for r in state.r.values():
            r *= math.sqrt(state.v_scale)
        state.v_scale = 1.0
    m_coef, v_coef = (1 - b1) / state.m_scale, (1 - b2) / state.v_scale
    c = math.sqrt(state.v_scale / (1 - b2**t))
    eps, rate = ADAMW_EPS / c, config.learning_rate * state.m_scale / ((1 - b1**t) * c)
    decay = 1 - config.learning_rate * config.weight_decay
    for name, grad in grads.items():
        p = tensors[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.r[name] = np.zeros_like(p)
        m, r = state.m[name], state.r[name]
        # a dense gradient is the case where every row is touched
        touched = rows[name] if name in rows else np.arange(len(p))
        size = max(1, ADAMW_BLOCK_ELEMENTS // max(1, math.prod(p.shape[1:])))
        a = np.empty_like(p[:size])
        for start in range(0, len(p), size):
            block, n = slice(start, start + size), min(size, len(p) - start)
            lo, hi = np.searchsorted(touched, (start, start + n))
            _add_gradient(m[block], r[block], touched[lo:hi] - start, grad[lo:hi],
                          m_coef, v_coef)
            _adamw_block(p[block], m[block], r[block], a[:n], eps, rate, decay)
            if not np.all(np.isfinite(p[block])):
                raise FloatingPointError(f"non-finite values in {name} after update")


def _add_gradient(m, r, rows, g, m_coef: float, v_coef: float) -> None:
    """``m[rows] += m_coef g`` and ``r[rows] = sqrt(r[rows]**2 + v_coef
    g**2)`` on one block, through two arrays of its touched rows' size."""
    part, term = np.take(m, rows, axis=0), np.multiply(g, m_coef)
    part += term
    m[rows] = part
    np.take(r, rows, axis=0, out=part)
    np.square(part, out=part)
    np.square(g, out=term)
    term *= v_coef
    part += term
    np.sqrt(part, out=part)
    r[rows] = part


def _adamw_block(p, m, r, a, eps: float, rate: float, decay: float) -> None:
    """``p -= rate m / (r + eps)`` on one block, in place, with ``a`` as
    work space: four passes, and a fifth, ``p *= decay``, first when there
    is weight decay (1 - lr wd, which is p -= lr wd p in one pass)."""
    np.add(r, eps, out=a)
    np.divide(m, a, out=a)
    a *= rate
    if decay != 1:
        p *= decay
    p -= a


def _train_step(params: EncoderParams, state: OptimizerState,
                views: list[TokenSequence], config: TrainConfig) -> float:
    out, cache = encode_batch_forward(params, views)
    loss, grad_out = nt_xent(out, config.temperature)
    grads, rows = encode_batch_backward(params, cache, grad_out)
    optimizer_step(params.tensors(), grads, config, state, rows)
    return loss


def _preflight(corpus: Corpus, doc_ids: list[np.ndarray],
               doc_sentence_ids: list[list[np.ndarray]] | None) -> None:
    """Reject, before any training, every document that would abort it.

    A document needs tokens to be embedded. With sentence ids (sad), it
    needs m >= 2 sentences to be divided, and a half can also come out
    empty: the smaller half has floor(m/2) sentences, so this happens
    iff at least floor(m/2) of them have no tokens.
    """
    problems = []
    for k, doc in enumerate(corpus.documents):
        if doc_ids[k].size == 0:
            problems.append(f"{doc.id!r} has no tokens")
        elif doc_sentence_ids is not None:
            m = len(doc_sentence_ids[k])
            empty = sum(ids.size == 0 for ids in doc_sentence_ids[k])
            if m < 2:
                problems.append(f"{doc.id!r} has {m} sentence(s); need at least 2 "
                                "to divide")
            elif empty >= m // 2:
                problems.append(f"{doc.id!r} has {empty} of {m} sentences without "
                                "tokens, so a half can be empty")
    if problems:
        raise ValueError(f"{len(problems)} document(s) cannot be trained on: "
                         + "; ".join(problems))


def default_epochs(method: str, corpus_size: int, batch_size: int) -> int:
    """Method defaults: ceil(n / B) for sad, 4 for tps."""
    if method == "sad":
        return max(1, math.ceil(corpus_size / batch_size))
    return 4


def train(corpus: Corpus, config: TrainConfig) -> TrainResult:
    """Contrastive training with label-free epoch selection.

    Each epoch regenerates positives (reshuffled halves for sad, blended
    top-1 resampling for tps), steps through the mini-batches, then
    embeds the whole corpus, clusters it, and records the silhouette.
    The returned ``best_params`` are from the best-silhouette epoch
    (ties to the earliest); history has one record per epoch, and
    ``first_pairs`` the positives epoch 1 trained on. Documents
    that would abort training (no tokens; for sad, fewer than 2 sentences
    or a half that can come out empty) are all rejected together before
    the first epoch.
    """
    if config.num_clusters is None:
        raise ValueError("config.num_clusters must be set for training")
    n = len(corpus)
    if config.epochs is not None:
        epochs = config.epochs
    else:
        epochs = default_epochs(config.method, n, config.batch_size)
    if epochs < 1:
        raise ValueError("training needs at least 1 epoch")
    if n < max(3, config.num_clusters):  # k-means needs k points, the silhouette 3
        raise ValueError(f"corpus too small: {n} documents for k={config.num_clusters} "
                         "(the silhouette needs at least 3)")
    # every text is tokenized once: the vocabulary, the views, the embeddings
    # and (tps) the TF-IDF matrix all read its terms. sad reads sentences: a
    # document's ids join its sentences' ids, as sentences split only at spaces
    sad = config.method == "sad"
    units = [doc.sentences if sad else [doc.text] for doc in corpus.documents]
    tokens, terms = index_tokens(itertools.chain.from_iterable(units))
    vocab, term_to_id = build_vocab(tokens, terms, config.max_vocab)
    tfidf = None if sad else transform_corpus(fit_tfidf(terms, len(tokens)), terms)
    for k, t in enumerate(terms):
        terms[k] = term_to_id[t]  # in place, so each term array is freed as it goes
    ids = iter(terms)
    unit_ids = [[next(ids) for _ in unit] for unit in units]
    doc_ids = [np.concatenate([np.empty(0, np.int64), *u]) for u in unit_ids]
    _preflight(corpus, doc_ids, unit_ids if sad else None)
    params = init_params(len(vocab), config.embed_dim, config.output_dim,
                         seed=config.seed)
    state = OptimizerState()

    sim_tfidf = None if sad else TopKSimilarity(tfidf)

    all_labeled = all(doc.label is not None for doc in corpus.documents)
    history: list[dict] = []
    best_epoch = -1
    best_silhouette = -np.inf  # a silhouette is finite, so epoch 1 always wins
    first_pairs: list | PositivePairing = []

    embeddings = None
    for epoch in range(1, epochs + 1):
        rng = derive_rng(config.seed, "epoch", epoch)
        batch_losses: list[float] = []
        match_rate = None

        if sad:
            batches = sad_batches(n, config.batch_size, rng)
        else:
            # epoch 1 pairs on TF-IDF alone; later epochs blend in the last
            # epoch's embeddings: no update happened since
            pairing = top1_from_matrix(sim_tfidf, embeddings, config.alpha, epoch)
            if epoch == 1:
                first_pairs = pairing
            if all_labeled:
                match_rate = label_match_rate(pairing, corpus.labels_array())
            batches = list(enumerate(plan_tps_batches(pairing, config.batch_size, rng)))
            if not batches:
                first = ", ".join(repr(doc.id) for doc in corpus.documents[:5])
                raise ValueError(f"epoch {epoch}: no batch of 2 collision-free tps pairs "
                                 f"can be formed, so all {n} documents are unscheduled "
                                 f"(first: {first})")
        for b, idx in batches:
            try:
                if sad:
                    halves = [shuffle_divide(corpus.documents[i], rng) for i in idx]
                    if epoch == 1:
                        first_pairs += [(b, int(i), pair) for i, pair in zip(idx, halves)]
                    views = build_batch_sad(halves, [unit_ids[i] for i in idx],
                                            config.max_len_train)
                else:
                    views = build_batch_tps(pairing, idx, doc_ids, config.max_len_train)
                batch_losses.append(_train_step(params, state, views, config))
            except (ValueError, FloatingPointError) as err:
                raise RuntimeError(f"epoch {epoch}, batch {b}: {err}") from err

        embeddings = embed_corpus(params, vocab, corpus, config.max_len_test, doc_ids)
        kmeans_seed = derive_seed(config.seed, "kmeans-epoch", epoch)
        cluster_model = spherical_kmeans(embeddings, k=config.num_clusters,
                                         seed=kmeans_seed)
        silhouette = silhouette_score(embeddings, cluster_model.assignments)
        record = {
            "epoch": epoch,
            "loss": float(np.mean(batch_losses)),
            "batch_losses": batch_losses,
            "silhouette": silhouette,
            "kmeans_seed": kmeans_seed,
        }
        if match_rate is not None:
            record["label_match_rate"] = match_rate
        history.append(record)
        if silhouette > best_silhouette:
            best_silhouette = silhouette
            best_epoch = epoch
            best_params = params.copy()

    return TrainResult(
        best_params=best_params,
        final_params=params,
        vocab=vocab,
        history=history,
        best_epoch=best_epoch,
        first_pairs=first_pairs,
        tfidf=tfidf,
    )


def supervised_finetune(params: EncoderParams, vocab: Vocabulary,
                        train_corpus: Corpus, test_corpus: Corpus,
                        use_sad: bool, config: TrainConfig) -> tuple[dict, float]:
    """Fine-tune encoder + a linear softmax head on labeled documents.

    With ``use_sad``, every training document of at least 2 sentences is
    replaced each epoch by one freshly shuffled half (train-time
    augmentation); one of fewer trains on its whole text. Returns the head
    tensors and the held-out accuracy. The head starts at zero, so with 0
    epochs predictions collapse to class 0 (chance level on balanced data).
    """
    train_labels = np.array(train_corpus.labels_array())
    test_labels = np.array(test_corpus.labels_array())
    k = int(max(train_labels.max(), test_labels.max())) + 1
    head = {
        "head_w": np.zeros((params.output_dim, k)),
        "head_b": np.zeros(k),
    }
    params = params.copy()
    state = OptimizerState()
    epochs = 10 if config.epochs is None else config.epochs
    n = len(train_corpus)

    for epoch in range(1, epochs + 1):
        rng = derive_rng(config.seed, "finetune-epoch", epoch)
        texts = []
        for doc in train_corpus.documents:
            if use_sad and len(doc.sentences) >= 2:
                half_a, _ = shuffle_divide(doc, rng)
                texts.append(" ".join(doc.sentences[i] for i in half_a))
            else:
                texts.append(doc.text)
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            seqs = [tokenize(texts[i], vocab, config.max_len_train) for i in idx]
            labels = train_labels[idx]
            out, cache = encode_batch_forward(params, seqs)
            logits = out @ head["head_w"] + head["head_b"]
            d_logits = _softmax_rows(logits)
            d_logits[np.arange(idx.size), labels] -= 1.0
            d_logits /= idx.size
            head_grads = {
                "head_w": out.T @ d_logits,
                "head_b": d_logits.sum(axis=0),
            }
            grad_out = d_logits @ head["head_w"].T
            enc_grads, enc_rows = encode_batch_backward(params, cache, grad_out)
            optimizer_step(head | params.tensors(), head_grads | enc_grads, config,
                           state, enc_rows)

    test_emb = embed_corpus(params, vocab, test_corpus, config.max_len_test)
    predictions = np.argmax(test_emb @ head["head_w"] + head["head_b"], axis=1)
    accuracy = float(np.mean(predictions == test_labels))
    return head, accuracy
