"""Synthetic topic-block corpora for end-to-end runs and benchmarks.

Each topic owns a disjoint vocabulary block; one extra block is shared
by all topics. Every token of every sentence is drawn from the shared
block with probability ``overlap`` and from the document's topic block
otherwise, so ``overlap`` directly controls how much the topics bleed
into each other. Generation is fully determined by the seed.
"""

from .corpus import Corpus, Document
from .rng import derive_rng


def generate_synthetic_corpus(topics: int = 4, docs_per_topic: int = 50,
                              vocab_per_topic: int = 600,
                              sentences_per_doc: int = 10,
                              tokens_per_sentence: int = 10,
                              overlap: float = 0.2,
                              seed: int = 0) -> Corpus:
    """Balanced labeled corpus of ``topics * docs_per_topic`` documents."""
    if topics < 2:
        raise ValueError("need at least 2 topics")
    if docs_per_topic < 1 or vocab_per_topic < 1:
        raise ValueError("docs_per_topic and vocab_per_topic must be >= 1")
    if sentences_per_doc < 1 or tokens_per_sentence < 1:
        raise ValueError("sentence and token counts must be >= 1")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must be in [0, 1]")

    topic_vocab = [
        [f"topic{t}word{i}" for i in range(vocab_per_topic)]
        for t in range(topics)
    ]
    shared_vocab = [f"shared{i}" for i in range(vocab_per_topic)]

    documents = []
    for t in range(topics):
        for d in range(docs_per_topic):
            rng = derive_rng(seed, "synth", t, d)
            sentences = []
            for _ in range(sentences_per_doc):
                tokens = []
                for _ in range(tokens_per_sentence):
                    if rng.random() < overlap:
                        tokens.append(shared_vocab[int(rng.integers(0, vocab_per_topic))])
                    else:
                        tokens.append(topic_vocab[t][int(rng.integers(0, vocab_per_topic))])
                sentences.append(" ".join(tokens) + ".")
            documents.append(Document(f"t{t}d{d}", " ".join(sentences), label=t))
    return Corpus(documents, label_names=[f"topic{t}" for t in range(topics)])
