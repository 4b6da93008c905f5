"""Shuffle & divide augmentation.

A document's sentences are shuffled uniformly at random and split into
two halves; the halves are two views of the same content and form a
positive pair for contrastive training. Pairs are regenerated each epoch
so the model sees many different halvings of each document.
"""

import math

import numpy as np

from .corpus import Document
from .rng import fisher_yates


def shuffle_divide(doc: Document,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle a document's sentence order and split it into two halves.

    Returns the sentence indices of each half as int64 arrays: the first
    ceil(m/2) shuffled sentences, then the rest, each in shuffled order.
    The halves are disjoint, cover all sentences and differ in length by
    at most one; a half's view is the space-join of its sentences.
    Deterministic given the rng state.
    """
    m = len(doc.sentences)
    if m < 2:
        raise ValueError(
            f"document {doc.id!r} has {m} sentence(s); need at least 2 to divide"
        )
    perm = fisher_yates(m, rng)
    half = math.ceil(m / 2)
    return perm[:half], perm[half:]
