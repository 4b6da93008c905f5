"""Corpus loading, sentence splitting, and dataset-style preprocessing.

Documents come in as jsonl (one object per line with ``id``, ``text`` and
optional ``label``/``labels``) or as a directory tree with one folder per
class; the path says which. Preprocessing profiles mirror the usual
newsgroup / newswire cleanup rules: header and footer stripping, URL and
email removal, multi-label and duplicate filtering, top-k class selection.
"""

import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path


# Words that end in '.' without ending a sentence. Frozen so splitting is
# reproducible across runs and machines.
ABBREVIATIONS = frozenset({
    "mr.", "mrs.", "ms.", "dr.", "prof.", "sr.", "jr.", "st.", "rev.",
    "gen.", "rep.", "sen.", "gov.", "capt.", "sgt.", "col.", "lt.", "maj.",
    "vs.", "etc.", "e.g.", "i.e.", "cf.", "al.", "eg.", "ie.",
    "inc.", "ltd.", "co.", "corp.", "dept.", "univ.", "assn.", "bros.",
    "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.", "sep.",
    "sept.", "oct.", "nov.", "dec.",
    "u.s.", "u.k.", "u.n.", "d.c.", "a.m.", "p.m.",
    "ph.d.", "b.a.", "m.a.", "b.s.", "m.s.",
    "no.", "vol.", "pp.", "fig.", "figs.", "ed.", "eds.", "approx.", "est.",
})

_TERMINATOR_RE = re.compile(r"[.!?]+")
_HEADER_LINE_RE = re.compile(r"^[A-Za-z][A-Za-z0-9-]*:(\s|$)")
_URL_RE = re.compile(r"(https?://\S+|www\.\S+)", re.IGNORECASE)
_EMAIL_RE = re.compile(r"[^\s@]+@[^\s@]+\.[^\s@]+")


@dataclass
class Document:
    """One text document as it was read.

    ``label`` is the single class index when known; ``labels`` keeps the
    raw multi-label list from ingestion (newswire-style data) so the
    reuters profile can filter on it.
    """

    id: str
    text: str
    label: int | None = None
    labels: tuple[int, ...] | None = None

    @cached_property
    def sentences(self) -> list[str]:
        """``split_sentences(text)``, split on first use and kept."""
        return split_sentences(self.text)


@dataclass
class Corpus:
    documents: list[Document]
    label_names: list[str] | None = None

    def __post_init__(self):
        seen = set()
        for doc in self.documents:
            if doc.id in seen:
                raise ValueError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)

    def __len__(self) -> int:
        return len(self.documents)

    def labels_array(self) -> list[int]:
        """Gold labels of all documents; raises if any is missing."""
        labels = []
        for doc in self.documents:
            if doc.label is None:
                raise ValueError(f"document {doc.id!r} has no label")
            labels.append(doc.label)
        return labels


def split_sentences(text: str) -> list[str]:
    """Split text into sentences on '.', '!', '?' followed by whitespace.

    Terminators are kept with their sentence. A '.' does not split when
    the word it ends is a known abbreviation or a single initial, or when
    it sits inside a decimal number. Empty segments are dropped.
    """
    boundaries = []
    n = len(text)
    for match in _TERMINATOR_RE.finditer(text):
        end = match.end()
        if end < n and not text[end].isspace():
            continue
        if match.group() == ".":
            start = match.start()
            word_start = start
            while word_start > 0 and not text[word_start - 1].isspace():
                word_start -= 1
            word = text[word_start:end].lower()
            if word in ABBREVIATIONS:
                continue
            if len(word) == 2 and word[0].isalpha():
                continue  # single initial, e.g. "J."
            # decimal split across whitespace, e.g. "3. 14"
            rest = text[end:].lstrip()
            if start > 0 and text[start - 1].isdigit() and rest[:1].isdigit():
                continue
        boundaries.append(end)

    sentences = []
    prev = 0
    for cut in boundaries:
        segment = text[prev:cut].strip()
        if segment:
            sentences.append(segment)
        prev = cut
    tail = text[prev:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _parse_jsonl_line(line: str, lineno: int) -> Document:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as err:
        raise ValueError(f"line {lineno}: invalid JSON ({err.msg})") from err
    if not isinstance(record, dict):
        raise ValueError(f"line {lineno}: expected a JSON object")
    doc_id = record.get("id")
    text = record.get("text")
    if not isinstance(doc_id, str) or not isinstance(text, str):
        raise ValueError(f"line {lineno}: 'id' and 'text' must be strings")
    label = record.get("label")
    labels = record.get("labels")
    if label is not None and labels is not None:
        raise ValueError(f"line {lineno}: give either 'label' or 'labels', not both")
    # type() rather than isinstance(): JSON true/false load as bool, an int
    if label is not None and (type(label) is not int or label < 0):
        raise ValueError(f"line {lineno}: 'label' must be a non-negative integer")
    if labels is not None:
        if not isinstance(labels, list) or not all(type(x) is int and x >= 0 for x in labels):
            raise ValueError(f"line {lineno}: 'labels' must be a list of non-negative integers")
        labels = tuple(labels)
        if len(labels) == 1:
            label = labels[0]
    return Document(doc_id, text, label=label, labels=labels)


def load_corpus(path) -> Corpus:
    """Load a corpus: a directory is read as one folder per class, any
    other path as jsonl.

    Document order is deterministic: input order for jsonl, lexicographic
    path order for a directory. Duplicate ids and malformed lines raise
    with the offending line number.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus path does not exist: {path}")
    if path.is_dir():
        class_dirs = sorted(p for p in path.iterdir() if p.is_dir())
        if not class_dirs:
            raise ValueError(f"no class directories under {path}")
        documents = []
        label_names = [p.name for p in class_dirs]
        for label, class_dir in enumerate(class_dirs):
            for file in sorted(class_dir.glob("*.txt")):
                text = file.read_text(encoding="utf-8", errors="replace")
                documents.append(Document(f"{class_dir.name}/{file.name}", text, label=label))
        return Corpus(documents, label_names=label_names)
    documents = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            doc = _parse_jsonl_line(line, lineno)
            if doc.id in seen:
                raise ValueError(
                    f"line {lineno}: duplicate id {doc.id!r} "
                    f"(first seen on line {seen[doc.id]})"
                )
            seen[doc.id] = lineno
            documents.append(doc)
    return Corpus(documents)


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus back to jsonl (re-loadable by ``load_corpus``)."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            record: dict = {"id": doc.id, "text": doc.text}
            if doc.labels is not None and len(doc.labels) != 1:
                record["labels"] = list(doc.labels)
            elif doc.label is not None:
                record["label"] = doc.label
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _strip_header(text: str) -> str:
    lines = text.split("\n")
    blank = None
    for i, line in enumerate(lines):
        if not line.strip():
            blank = i
            break
    if blank is None or blank == 0:
        return text
    head = lines[:blank]
    if not _HEADER_LINE_RE.match(head[0]):
        return text
    for line in head:
        if not (_HEADER_LINE_RE.match(line) or line[:1].isspace()):
            return text
    return "\n".join(lines[blank + 1:])


def _strip_footer(text: str) -> str:
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.strip() == "--":
            return "\n".join(lines[:i])
    return text


def preprocess_newsgroup_style(corpus: Corpus, min_words: int = 10) -> Corpus:
    """Newsgroup-style cleanup: drop headers, signatures, URLs, emails.

    The header is the leading block of ``Key: value`` lines before the
    first blank line; the footer is everything from the first line that
    is exactly ``--``. Documents shorter than ``min_words`` words after
    cleanup are dropped.
    """
    if min_words < 1:
        raise ValueError("min_words must be >= 1")
    kept = []
    for doc in corpus.documents:
        text = _strip_header(doc.text)
        text = _strip_footer(text)
        text = _URL_RE.sub(" ", text)
        text = _EMAIL_RE.sub(" ", text)
        text = text.strip()
        if len(text.split()) >= min_words:
            kept.append(Document(doc.id, text, label=doc.label, labels=doc.labels))
    return Corpus(kept, label_names=corpus.label_names)


def _normalize_whitespace(text: str) -> str:
    return " ".join(text.split())


def preprocess_reuters_style(corpus: Corpus, top_k_classes: int = 10) -> Corpus:
    """Newswire-style cleanup: single-label, deduplicated, top-k classes.

    Removes multi-labeled documents and empty bodies, then exact duplicate
    texts (whitespace-normalized, first occurrence kept), keeps only the
    ``top_k_classes`` most frequent remaining labels, and relabels classes
    densely 0..k-1 by descending frequency (ties by original label index).
    """
    if top_k_classes < 1:
        raise ValueError("top_k_classes must be >= 1")
    singles = []
    for doc in corpus.documents:
        n_labels = len(doc.labels) if doc.labels is not None else (1 if doc.label is not None else 0)
        if n_labels > 1:
            continue
        if not doc.text.strip():
            continue
        singles.append(doc)

    deduped = []
    seen_texts = set()
    for doc in singles:
        key = _normalize_whitespace(doc.text)
        if key in seen_texts:
            continue
        seen_texts.add(key)
        deduped.append(doc)

    counts = Counter(doc.label for doc in deduped if doc.label is not None)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    top = ranked[:top_k_classes]
    relabel = {old: new for new, (old, _) in enumerate(top)}

    kept = []
    for doc in deduped:
        if doc.label not in relabel:
            continue
        new_label = relabel[doc.label]
        kept.append(Document(doc.id, doc.text, label=new_label,
                             labels=(new_label,) if doc.labels is not None else None))

    names = None
    if corpus.label_names is not None:
        names = [corpus.label_names[old] for old, _ in top]
    return Corpus(kept, label_names=names)


def filter_min_sentences(corpus: Corpus, min_sentences: int = 4) -> Corpus:
    """Keep documents with at least ``min_sentences`` sentences."""
    if min_sentences < 1:
        raise ValueError("min_sentences must be >= 1")
    kept = [doc for doc in corpus.documents if len(doc.sentences) >= min_sentences]
    return Corpus(kept, label_names=corpus.label_names)
