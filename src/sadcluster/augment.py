"""Shuffle & divide augmentation.

A document's sentences are shuffled uniformly at random and split into
two halves; the halves are two views of the same content and form a
positive pair for contrastive training. Pairs are regenerated each epoch
so the model sees many different halvings of each document.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Document
from .rng import fisher_yates


@dataclass
class DocumentViewPair:
    """Two half-document views of one source document.

    ``sentence_ids_a`` / ``sentence_ids_b`` index the source document's
    sentences in shuffled order; the views are the space-joins of those
    sentences. The two index lists are disjoint, cover all sentences,
    and differ in length by at most one.
    """

    source_id: str
    view_a: str
    view_b: str
    sentence_ids_a: list[int]
    sentence_ids_b: list[int]


def shuffle_divide(doc: Document, rng: np.random.Generator) -> DocumentViewPair:
    """Shuffle a document's sentence order and split it into two halves.

    The first ceil(m/2) shuffled sentences become view_a, the rest
    view_b, keeping shuffled order within each half. Deterministic given
    the rng state.
    """
    m = len(doc.sentences)
    if m < 2:
        raise ValueError(
            f"document {doc.id!r} has {m} sentence(s); need at least 2 to divide"
        )
    perm = fisher_yates(m, rng)
    half = math.ceil(m / 2)
    ids_a = [int(i) for i in perm[:half]]
    ids_b = [int(i) for i in perm[half:]]
    return DocumentViewPair(
        source_id=doc.id,
        view_a=" ".join(doc.sentences[i] for i in ids_a),
        view_b=" ".join(doc.sentences[i] for i in ids_b),
        sentence_ids_a=ids_a,
        sentence_ids_b=ids_b,
    )
