"""TF-IDF vectors, top-1 cosine neighbors, and the epoch blend.

Positive pairs for TPS come from nearest neighbors in TF-IDF space at
epoch 1; later epochs blend in model similarity with a weight that
decays geometrically, so training gradually trusts its own embeddings.
``top1_from_matrix`` can form that blend itself, one block of rows at a
time, and pair on it without an n x n copy.
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

corpus = generate_synthetic_corpus(topics=4, docs_per_topic=10, seed=7)
# each text is tokenized once; TF-IDF columns index the sorted distinct tokens
tokens, terms = index_tokens(doc.text for doc in corpus.documents)
x = transform_corpus(fit_tfidf(terms, len(tokens)), terms)

print(f"corpus: {len(corpus)} docs, vocabulary {len(tokens)} tokens")
nnz = np.diff(x.indptr)
print(f"sparse TF-IDF rows: {nnz.min()}-{nnz.max()} nonzeros per doc")

sims = similarity_matrix(x)
pairing = top1_from_matrix(sims)
rate = label_match_rate(pairing, corpus.labels_array())
print(f"top-1 neighbor shares the gold label for {rate:.0%} of documents")

print("\nfirst five pairings (doc -> neighbor, cosine):")
for n in range(5):
    doc = corpus.documents[n]
    partner = corpus.documents[int(pairing.partner[n])]
    print(f"  {doc.id} (topic {doc.label}) -> {partner.id} "
          f"(topic {partner.label}), sim {pairing.similarity[n]:.3f}")

# blend weight alpha^(epoch-1) moves from pure TF-IDF to mostly model
rng = np.random.default_rng(0)
sim_model = rng.uniform(0, 1, size=sims.shape)
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
        fused = top1_from_matrix(sims, sim_model, weight)
        same = np.array_equal(fused.partner, top1_from_matrix(blended).partner)
        print(f"    blended in the top-1 pass: same partners as the whole blend: {same}")
