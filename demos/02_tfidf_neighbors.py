"""TF-IDF vectors, top-1 cosine neighbors, and the epoch blend.

Positive pairs for TPS come from nearest neighbors in TF-IDF space at
epoch 1; later epochs blend in model similarity with a weight that
decays geometrically, so training gradually trusts its own embeddings.
Pairing holds the TF-IDF similarity as a ``TopKSimilarity``: each row's
``TOP_K`` largest entries and the next largest as a bound on the rest.
``top1_from_matrix`` takes it and the model's embeddings, forms the
model similarity and the blend one block of rows at a time, and forms a
row's whole TF-IDF row again only when the bound cannot rule the rest
out. Its partners are those of the whole blended n x n matrix.
"""

import numpy as np

from sadcluster import (
    blended_similarity,
    fit_tfidf,
    generate_synthetic_corpus,
    index_tokens,
    label_match_rate,
    similarity_matrix,
    top1_from_matrix,
    transform_corpus,
)
from sadcluster.tfidf import TopKSimilarity


def whole_top1(matrix):
    """Each row's argmax off the diagonal of a whole n x n matrix."""
    masked = matrix.copy()
    np.fill_diagonal(masked, -np.inf)
    return masked.argmax(axis=1)


corpus = generate_synthetic_corpus(topics=4, docs_per_topic=250, seed=7)
# each text is tokenized once; TF-IDF columns index the sorted distinct tokens
tokens, terms = index_tokens(doc.text for doc in corpus.documents)
x = transform_corpus(fit_tfidf(terms, len(tokens)), terms)

print(f"corpus: {len(corpus)} docs, vocabulary {len(tokens)} tokens")
nnz = np.diff(x.indptr)
print(f"sparse TF-IDF rows: {nnz.min()}-{nnz.max()} nonzeros per doc")

store = TopKSimilarity(x)
pairing = top1_from_matrix(store)
rate = label_match_rate(pairing, corpus.labels_array())
print(f"top-1 neighbor shares the gold label for {rate:.0%} of documents")
kept = store.index.shape[1]
sims = similarity_matrix(x)  # the whole n x n matrix, only to compare
print(f"the store keeps {kept} of each row's {len(corpus) - 1} similarities "
      f"({store.index.nbytes + store.value.nbytes} of {sims.nbytes} bytes)")
same = np.array_equal(pairing.partner, whole_top1(sims))
print(f"same partners as the whole n x n matrix: {same}")

print("\nfirst five pairings (doc -> neighbor, cosine):")
for n in range(5):
    doc = corpus.documents[n]
    partner = corpus.documents[int(pairing.partner[n])]
    print(f"  {doc.id} (topic {doc.label}) -> {partner.id} "
          f"(topic {partner.label}), sim {pairing.similarity[n]:.3f}")

# blend weight alpha^(epoch-1) moves from pure TF-IDF to mostly model
# seeded stand-in embeddings: one Gaussian row of 8 values per document
embeddings = np.random.default_rng(0).normal(size=(len(corpus), 8))
sim_model = similarity_matrix(embeddings)
alpha = 0.5
print("\nblend weight on the TF-IDF term by epoch (alpha=0.5):")
for epoch in (1, 2, 3, 5):
    blended = blended_similarity(sims, sim_model, alpha, epoch)
    weight = alpha ** (epoch - 1)
    print(f"  epoch {epoch}: weight {weight:.3f}", end="")
    if epoch == 1:
        identical = blended.tobytes() == sims.tobytes()
        print(f"  (bit-identical to TF-IDF: {identical})")
    else:
        print()
        fused = top1_from_matrix(store, embeddings, alpha, epoch)
        same = np.array_equal(fused.partner, whole_top1(blended))
        print(f"    blended in the top-1 pass: same partners as the whole blend: {same}")
