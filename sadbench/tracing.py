"""Spans and counters recorded from outside the program.

A ``Tracer`` wraps public sadcluster functions at every module attribute
that refers to them, so a call is recorded whichever module looks the
function up (``tokenize`` from ``encoder`` or from ``contrastive``).
Spans are kept in memory and written out when the run ends. Counters are
computed from the wrapped functions' arguments and results; the program
itself is not changed.
"""

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "sadcluster"

# Layer functions by defining module, as named in the per-layer metrics.
LAYER_FUNCTIONS = {
    "corpus": ("load_corpus", "save_corpus"),
    "augment": ("shuffle_divide",),
    "encoder": ("build_vocab", "tokenize", "encode_batch_forward",
                "encode_batch_backward", "embed_corpus", "save_checkpoint",
                "load_checkpoint"),
    "contrastive": ("train", "build_batch_sad", "build_batch_tps",
                    "plan_tps_batches", "nt_xent_loss", "nt_xent_gradient",
                    "optimizer_step"),
    "tfidf": ("fit_tfidf", "transform_corpus", "similarity_matrix",
              "blended_similarity", "top1_from_matrix"),
    "cluster": ("spherical_kmeans",),
    "evaluate": ("silhouette_score", "adjusted_mutual_information",
                 "clustering_accuracy"),
    "cli": ("write_embeddings", "read_embeddings"),
}

SUBCOMMANDS = ("train", "embed", "cluster", "eval")

# (name, unit, how it is computed from the raw counters)
COUNTERS = (
    ("encoder.real_token_frac", "ratio",
     lambda c: _ratio(c["real_tokens"], c["token_slots"])),
    ("encoder.tokens_encoded", "count", lambda c: c["real_tokens"]),
    ("cluster.kmeans_iterations", "count", lambda c: c["kmeans_iterations"]),
    ("contrastive.tps_scheduled_frac", "ratio",
     lambda c: _ratio(c["tps_scheduled"], c["tps_docs"])),
    ("contrastive.sad_skipped_batches", "count",
     lambda c: c["sad_batches_expected"] - c["sad_batches_built"]),
    ("tfidf.similarity_matrix.bytes", "computed_bytes", lambda c: c["similarity_bytes"]),
    ("contrastive.optimizer_step.bytes", "computed_bytes", lambda c: c["optimizer_bytes"]),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def span_name(module: str, function: str) -> str:
    return f"{module}.{function}"


def root_name(subcommand: str) -> str:
    return f"cli.main.{subcommand}"


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    spans = [span_name(m, f) for m, fns in LAYER_FUNCTIONS.items() for f in fns]
    spans += [root_name(s) for s in SUBCOMMANDS]
    names = []
    for name in spans:
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    names += [(name, unit) for name, unit, _ in COUNTERS]
    names.append(("trace_overhead_frac", "ratio"))
    return names


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    self_s: float


class Tracer:
    """In-memory span recorder; self time is computed as spans close."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: defaultdict = defaultdict(int)
        self._open: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else None
        frame = [span_id, name, self.clock(), 0.0]
        self._open.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            self._open.pop()
            duration = end - frame[2]
            if self._open:
                self._open[-1][3] += duration
            self.spans.append(Span(span_id, name, frame[2], end, parent,
                                   duration - frame[3]))

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and summed self time per span name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            out[s.name][0] += 1
            out[s.name][1] += s.self_s
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def layer_metrics(self, passes: int = 1) -> dict[str, float]:
        """Per-layer metrics per pass; ratios are over all passes."""
        totals = self.totals()
        values = {}
        for name, _ in layer_metric_names():
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = totals.get(base, (0, 0.0))[0] / passes
            elif kind == "self_s":
                values[name] = totals.get(base, (0, 0.0))[1] / passes
        for name, unit, compute in COUNTERS:
            value = compute(self.counters)
            values[name] = value if unit == "ratio" else value / passes
        return values

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "self_s": s.self_s}) + "\n")

    @contextmanager
    def installed(self):
        """Wrap every layer function at each module attribute naming it.

        Yields the list of layer functions the package does not define.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        replaced = []
        missing = []
        for module, functions in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"{PACKAGE}.{module}")
            for function in functions:
                original = getattr(home, function, None)
                if original is None:
                    missing.append(span_name(module, function))
                    continue
                wrapper = self._wrap(span_name(module, function), original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            replaced.append((m, attr, original))
        try:
            yield missing
        finally:
            for m, attr, original in replaced:
                setattr(m, attr, original)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook:
                hook(self.counters, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _count_tokens(c, args, result):
    for seq in args["seqs"]:
        c["real_tokens"] += int(seq.length)
        c["token_slots"] += int(seq.max_len)


def _count_kmeans(c, args, result):
    c["kmeans_iterations"] += int(result.iterations_run)


def _count_tps_plan(c, args, result):
    c["tps_scheduled"] += sum(len(batch) for batch in result)
    c["tps_docs"] += int(args["pairing"].partner.shape[0])


def _count_train(c, args, result):
    config = args["config"]
    if config.method == "sad":
        epochs = len(result.history)
        c["sad_batches_expected"] += epochs * math.ceil(len(args["corpus"]) / config.batch_size)


def _count_sad_batch(c, args, result):
    c["sad_batches_built"] += 1


def _count_similarity(c, args, result):
    c["similarity_bytes"] += int(result.nbytes)


def _count_optimizer(c, args, result):
    # one step reads and writes the parameter and reads the gradient;
    # AdamW also reads and writes its two moment buffers
    arrays = 2 if args["config"].optimizer == "sgd" else 4
    c["optimizer_bytes"] += arrays * sum(int(g.nbytes) for g in args["grads"].values())


_HOOKS = {
    "encoder.encode_batch_forward": _count_tokens,
    "cluster.spherical_kmeans": _count_kmeans,
    "contrastive.plan_tps_batches": _count_tps_plan,
    "contrastive.train": _count_train,
    "contrastive.build_batch_sad": _count_sad_batch,
    "tfidf.similarity_matrix": _count_similarity,
    "contrastive.optimizer_step": _count_optimizer,
}
