"""Sentence splitting, cleanup profiles, and shuffle & divide.

Walks the preprocessing path a document takes before training: boundary
detection with abbreviation guards, newsgroup-style cleanup, and the
halving augmentation that produces a positive pair per document.
"""

import json

from sadcluster import (
    Corpus,
    Document,
    preprocess_newsgroup_style,
    shuffle_divide,
    split_sentences,
)
from sadcluster.rng import derive_rng

text = ("Dr. Smith arrived at 3.5 p.m. to review the results. "
        "The experiment, run by J. Doe, had finished early! "
        "Was the outcome reproducible? It was. "
        "Every run used the same seed, e.g. 42, for all draws.")

print("== sentence splitting ==")
for i, sentence in enumerate(split_sentences(text)):
    print(f"  [{i}] {sentence}")

raw = Document(
    "msg-1",
    "From: someone@example.com\nSubject: results\n\n" + text
    + "\nSee http://example.com/full-report for details.",
    label=0,
)
cleaned = preprocess_newsgroup_style(Corpus(documents=(raw,)))
print("\n== newsgroup cleanup ==")
print("  before:", json.dumps(raw.text[:60]))
print("  after: ", json.dumps(cleaned.documents[0].text[:60]))

doc = Document("demo", text)
print("\n== shuffle & divide (three epochs, one document) ==")
for epoch in range(1, 4):
    rng = derive_rng(42, "epoch", epoch)
    half_a, half_b = shuffle_divide(doc, rng)
    print(f"  epoch {epoch}:")
    print(f"    view_a <- sentences {half_a.tolist()}")
    print(f"    view_b <- sentences {half_b.tolist()}")

# the two halves always partition the document, whatever the epoch, and
# each view (the space-join of its half) splits back into its sentences
halves = shuffle_divide(doc, derive_rng(42, "epoch", 1))
assert sorted(i for half in halves for i in half) == list(range(len(doc.sentences)))
views = [" ".join(doc.sentences[i] for i in half) for half in halves]
assert sorted(s for view in views for s in split_sentences(view)) == sorted(doc.sentences)
print("\nhalves are disjoint and cover every sentence: ok")
