"""Unsupervised text classification by contrastive representation learning.

The pipeline: split documents into sentences, form positive pairs either
by shuffling and halving each document (shuffle & divide) or by TF-IDF
nearest-neighbor sampling, train a small mean-pooling encoder with the
normalized temperature-scaled cross entropy loss, cluster the resulting
embeddings with spherical k-means, and pick the best epoch by silhouette
score, all without labels.

The top level holds the names the README quickstart and the demos use;
everything else is imported from its module, e.g.
``sadcluster.evaluate.hungarian``.
"""

from .augment import shuffle_divide
from .cluster import spherical_kmeans
from .contrastive import TrainConfig, train
from .corpus import Corpus, Document, preprocess_newsgroup_style, split_sentences
from .encoder import embed_corpus, init_params
from .evaluate import evaluate_clustering
from .synth import generate_synthetic_corpus
from .tfidf import (
    blended_similarity,
    fit_tfidf,
    index_tokens,
    label_match_rate,
    similarity_matrix,
    top1_from_matrix,
    transform_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "Document",
    "TrainConfig",
    "blended_similarity",
    "embed_corpus",
    "evaluate_clustering",
    "fit_tfidf",
    "generate_synthetic_corpus",
    "index_tokens",
    "init_params",
    "label_match_rate",
    "preprocess_newsgroup_style",
    "shuffle_divide",
    "similarity_matrix",
    "spherical_kmeans",
    "split_sentences",
    "top1_from_matrix",
    "train",
    "transform_corpus",
]
