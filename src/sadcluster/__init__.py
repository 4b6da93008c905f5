"""Unsupervised text classification by contrastive representation learning.

The pipeline: split documents into sentences, form positive pairs either
by shuffling and halving each document (shuffle & divide) or by TF-IDF
nearest-neighbor sampling, train a small mean-pooling encoder with the
normalized temperature-scaled cross entropy loss, cluster the resulting
embeddings with spherical k-means, and pick the best epoch by silhouette
score, all without labels.
"""

from .augment import shuffle_divide
from .cluster import ClusterModel, assign, spherical_kmeans
from .contrastive import (
    TrainConfig,
    TrainResult,
    build_batch_sad,
    build_batch_tps,
    nt_xent_gradient,
    nt_xent_loss,
    optimizer_step,
    plan_tps_batches,
    supervised_finetune,
    train,
)
from .corpus import (
    Corpus,
    Document,
    filter_min_sentences,
    load_corpus,
    preprocess_newsgroup_style,
    preprocess_reuters_style,
    save_corpus,
    split_sentences,
)
from .encoder import (
    EncoderParams,
    Vocabulary,
    build_vocab,
    embed_corpus,
    init_params,
    load_checkpoint,
    load_external_embeddings,
    lookup_external,
    save_checkpoint,
    tokenize,
)
from .evaluate import (
    EvalReport,
    adjusted_mutual_information,
    clustering_accuracy,
    confusion_matrix,
    evaluate_clustering,
    hungarian,
    silhouette_score,
)
from .rng import derive_rng, derive_seed, fisher_yates
from .synth import generate_synthetic_corpus
from .tfidf import (
    PositivePairing,
    TfIdfModel,
    blended_similarity,
    fit_tfidf,
    label_match_rate,
    similarity_matrix,
    top1_from_matrix,
    transform_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterModel",
    "Corpus",
    "Document",
    "EncoderParams",
    "EvalReport",
    "PositivePairing",
    "TfIdfModel",
    "TrainConfig",
    "TrainResult",
    "Vocabulary",
    "adjusted_mutual_information",
    "assign",
    "blended_similarity",
    "build_batch_sad",
    "build_batch_tps",
    "build_vocab",
    "clustering_accuracy",
    "confusion_matrix",
    "derive_rng",
    "derive_seed",
    "embed_corpus",
    "evaluate_clustering",
    "filter_min_sentences",
    "fisher_yates",
    "fit_tfidf",
    "generate_synthetic_corpus",
    "hungarian",
    "init_params",
    "label_match_rate",
    "load_checkpoint",
    "load_corpus",
    "load_external_embeddings",
    "lookup_external",
    "nt_xent_gradient",
    "nt_xent_loss",
    "optimizer_step",
    "plan_tps_batches",
    "preprocess_newsgroup_style",
    "preprocess_reuters_style",
    "save_checkpoint",
    "save_corpus",
    "shuffle_divide",
    "silhouette_score",
    "similarity_matrix",
    "spherical_kmeans",
    "split_sentences",
    "supervised_finetune",
    "tokenize",
    "top1_from_matrix",
    "train",
    "transform_corpus",
]
