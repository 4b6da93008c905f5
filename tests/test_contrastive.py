import math

import numpy as np
import pytest

from sadcluster import contrastive, encoder, tfidf
from sadcluster.augment import shuffle_divide
from sadcluster.contrastive import (
    OptimizerState,
    TrainConfig,
    build_batch_sad,
    build_batch_tps,
    default_epochs,
    nt_xent_gradient,
    nt_xent_loss,
    optimizer_step,
    plan_tps_batches,
    supervised_finetune,
    train,
)
from sadcluster.corpus import Corpus, Document
from sadcluster.encoder import init_params, text_ids, tokenize
from sadcluster.rng import derive_rng
from sadcluster.synth import generate_synthetic_corpus
from sadcluster.tfidf import PositivePairing, similarity_matrix
from test_encoder import vocab_of


def reference_nt_xent(embeddings, temperature):
    """Plain-loop NT-Xent with no vectorization and no stabilization."""
    x = np.asarray(embeddings, dtype=np.float64)
    unit = [row / math.sqrt(sum(v * v for v in row)) for row in x]
    n = len(unit)
    total = 0.0
    for i in range(n):
        pos = i + 1 if i % 2 == 0 else i - 1
        sims = {j: sum(a * b for a, b in zip(unit[i], unit[j]))
                for j in range(n) if j != i}
        denom = sum(math.exp(s / temperature) for s in sims.values())
        total += -math.log(math.exp(sims[pos] / temperature) / denom)
    return total / n


def numerical_gradient(embeddings, temperature, h=1e-6):
    x = np.asarray(embeddings, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            plus = x.copy()
            plus[i, j] += h
            minus = x.copy()
            minus[i, j] -= h
            grad[i, j] = (nt_xent_loss(plus, temperature)
                          - nt_xent_loss(minus, temperature)) / (2 * h)
    return grad


def toy_corpus(num_docs=8, sentences=4, label=None):
    docs = []
    for d in range(num_docs):
        text = " ".join(f"doc{d} token{d} word{s} filler{s}."
                        for s in range(sentences))
        docs.append(Document(f"d{d}", text,
                                  label=None if label is None else d % label))
    names = None if label is None else tuple(f"c{i}" for i in range(label))
    return Corpus(documents=tuple(docs), label_names=names)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.method == "sad"
        assert cfg.batch_size == 320
        assert cfg.temperature == 0.5
        assert cfg.learning_rate == pytest.approx(3e-5)
        assert cfg.optimizer == "adamw"
        assert cfg.epochs is None
        assert cfg.alpha == 0.5

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            TrainConfig(method="simclr")

    def test_rejects_small_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=1)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            TrainConfig(temperature=0.0)

    def test_rejects_nonpositive_learning_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-1e-3)

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError, match="optimizer"):
            TrainConfig(optimizer="rmsprop")

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            TrainConfig(alpha=1.5)

    def test_rejects_negative_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["temperature", "learning_rate", "weight_decay"])
    def test_rejects_non_finite_float(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            TrainConfig(**{field: value})

    def test_rejects_negative_weight_decay(self):
        with pytest.raises(ValueError, match="^weight_decay must be >= 0$"):
            TrainConfig(weight_decay=-1.0)

    @pytest.mark.parametrize("field", ["embed_dim", "output_dim"])
    def test_rejects_dimension_below_one(self, field):
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
                TrainConfig(**{field: value})

    def test_zero_epochs_allowed_for_evaluation_only_runs(self):
        assert TrainConfig(epochs=0).epochs == 0


def sentence_ids(docs, vocab):
    return [[text_ids(s, vocab) for s in doc.sentences] for doc in docs]


def draw_halves(docs, rng):
    return [shuffle_divide(doc, rng) for doc in docs]


class TestContrastiveBatch:
    """A batch is a plain list of 2B views, positives at rows (2i, 2i+1).

    A training step checks that shape before it changes any parameter.
    """

    def step_rejects(self, n_views, match):
        corpus = toy_corpus(2)
        vocab = vocab_of(corpus, 100)
        params = init_params(len(vocab), 4, 3, seed=0)
        before = params.copy()
        views = [tokenize("doc0 token0", vocab, 8) for _ in range(n_views)]
        with pytest.raises(ValueError, match=match):
            contrastive._train_step(params, OptimizerState(), views,
                                    TrainConfig(learning_rate=1e-2))
        assert params.tensors().keys() == before.tensors().keys()
        for name, tensor in params.tensors().items():
            assert tensor.tobytes() == before.tensors()[name].tobytes(), name

    def test_requires_alignment(self):
        self.step_rejects(5, "2B")

    def test_requires_two_pairs(self):
        self.step_rejects(2, "2 pairs")

    def test_num_pairs(self):
        corpus = toy_corpus(3)
        vocab = vocab_of(corpus, 1000)
        views = build_batch_sad(draw_halves(corpus.documents, derive_rng(0, "test")),
                                sentence_ids(corpus.documents, vocab), 32)
        assert len(views) == 6
        params = init_params(len(vocab), 4, 3, seed=0)
        loss = contrastive._train_step(params, OptimizerState(), views,
                                       TrainConfig(learning_rate=1e-2))
        assert math.isfinite(loss)


class TestBuildBatchSad:
    def test_layout_two_views_per_document(self):
        corpus = toy_corpus(4)
        vocab = vocab_of(corpus, 1000)
        ids = sentence_ids(corpus.documents, vocab)
        views = build_batch_sad(draw_halves(corpus.documents, derive_rng(0, "test")),
                                ids, 32)
        assert len(views) == 8
        # rows (2k, 2k+1) hold the two halves of document k: together
        # they are its sentences' ids, each once
        for k, doc_ids in enumerate(ids):
            rows = views[2 * k:2 * k + 2]
            got = np.concatenate([v.ids for v in rows])
            assert sorted(got) == sorted(np.concatenate(doc_ids))

    def test_views_are_tokenized_halves(self):
        corpus = toy_corpus(2, sentences=6)
        vocab = vocab_of(corpus, 1000)
        views = build_batch_sad(draw_halves(corpus.documents, derive_rng(1, "test")),
                                sentence_ids(corpus.documents, vocab), 64)
        for seq in views:
            # real token ids only, no pad id, within the truncation limit
            assert seq.max_len == 64 and 0 < seq.length <= 64
            assert np.all(seq.ids != 0)

    def test_same_rng_state_reproduces_batch(self):
        corpus = toy_corpus(5)
        vocab = vocab_of(corpus, 1000)
        ids = sentence_ids(corpus.documents, vocab)
        a = build_batch_sad(draw_halves(corpus.documents, derive_rng(7, "x")), ids, 32)
        b = build_batch_sad(draw_halves(corpus.documents, derive_rng(7, "x")), ids, 32)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.ids, sb.ids)

    def test_single_sentence_document_rejected(self):
        docs = (Document("a", "One sentence only."),
                Document("b", "First. Second. Third. Fourth."))
        # the halves a batch is built from cannot be drawn
        with pytest.raises(ValueError, match="'a' has 1 sentence.*at least 2"):
            draw_halves(docs, derive_rng(0, "x"))


class TestBuildBatchTps:
    def make_pairing(self, partner):
        partner = np.asarray(partner)
        return PositivePairing(partner=partner,
                               similarity=np.full(partner.shape, 0.5))

    def doc_ids(self, corpus, vocab):
        return [text_ids(doc.text, vocab) for doc in corpus.documents]

    def test_anchor_then_partner_layout(self):
        corpus = toy_corpus(4)
        vocab = vocab_of(corpus, 1000)
        pairing = self.make_pairing([1, 0, 3, 2])
        views = build_batch_tps(pairing, [0, 2], self.doc_ids(corpus, vocab), 32)
        # rows (2k, 2k+1) = (anchor k, its partner): documents 0, 1, 2, 3
        assert len(views) == 4
        for row, doc in zip(views, corpus.documents):
            expected = tokenize(doc.text, vocab, 32)
            assert np.array_equal(row.ids, expected.ids)
            assert row.length == expected.length

    def test_collision_raises(self):
        corpus = toy_corpus(4)
        vocab = vocab_of(corpus, 1000)
        pairing = self.make_pairing([1, 0, 1, 2])
        with pytest.raises(ValueError, match="collision"):
            build_batch_tps(pairing, [0, 2], self.doc_ids(corpus, vocab), 32)

    def test_anchor_repeat_raises(self):
        corpus = toy_corpus(4)
        vocab = vocab_of(corpus, 1000)
        pairing = self.make_pairing([1, 0, 3, 2])
        with pytest.raises(ValueError, match="collision"):
            build_batch_tps(pairing, [0, 0], self.doc_ids(corpus, vocab), 32)


class TestPlanTpsBatches:
    def make_pairing(self, partner):
        partner = np.asarray(partner)
        return PositivePairing(partner=partner,
                               similarity=np.full(partner.shape, 0.5))

    def test_mutual_pairs_pack_exactly(self):
        pairing = self.make_pairing([1, 0, 3, 2, 5, 4, 7, 6])
        batches = plan_tps_batches(pairing, batch_size=2, rng=derive_rng(0, "p"))
        assert all(len(b) == 2 for b in batches)
        anchors = [i for b in batches for i in b]
        assert sorted(anchors) == list(range(8))

    def test_batches_are_collision_free(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(6, 40))
            partner = np.array([(i + 1 + int(rng.integers(0, n - 1))) % n
                                for i in range(n)])
            partner = np.where(partner == np.arange(n), (partner + 1) % n,
                               partner)
            pairing = self.make_pairing(partner)
            batches = plan_tps_batches(pairing, batch_size=4,
                                       rng=derive_rng(trial, "plan"))
            seen_anchors = []
            for batch in batches:
                assert 2 <= len(batch) <= 4
                used = set()
                for i in batch:
                    m = int(partner[i])
                    assert i not in used and m not in used
                    used.update((i, m))
                seen_anchors.extend(batch)
            assert len(seen_anchors) == len(set(seen_anchors))

    def test_deferred_anchor_lands_in_later_batch(self):
        # doc 2 and doc 0 share partner 1, so they can never cobatch
        pairing = self.make_pairing([1, 0, 1, 2, 5, 4])
        found_split = False
        for seed in range(10):
            batches = plan_tps_batches(pairing, batch_size=3,
                                       rng=derive_rng(seed, "defer"))
            homes = {}
            for b, batch in enumerate(batches):
                for i in batch:
                    homes[i] = b
            if 0 in homes and 2 in homes:
                assert homes[0] != homes[2]
                found_split = True
        assert found_split


class TestNtXentLoss:
    def test_collapse_closed_form(self):
        for b in range(2, 9):
            x = np.ones((2 * b, 5))
            for tau in (0.1, 0.5, 1.0):
                assert nt_xent_loss(x, tau) == pytest.approx(
                    math.log(2 * b - 1), abs=1e-9)

    def test_orthogonal_pairs_closed_form(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        expected = -math.log(math.e / (math.e + 2))
        assert nt_xent_loss(x, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            b = int(rng.integers(2, 6))
            d = int(rng.integers(2, 9))
            x = rng.normal(size=(2 * b, d))
            tau = float(rng.uniform(0.1, 2.0))
            assert nt_xent_loss(x, tau) == pytest.approx(
                reference_nt_xent(x, tau), abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 4))
        scales = rng.uniform(0.1, 10.0, size=(6, 1))
        assert nt_xent_loss(x * scales, 0.5) == pytest.approx(
            nt_xent_loss(x, 0.5), rel=1e-12)

    def test_pair_block_permutation_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 3))
        perm = np.array([2, 3, 6, 7, 0, 1, 4, 5])
        assert nt_xent_loss(x[perm], 0.5) == pytest.approx(
            nt_xent_loss(x, 0.5), rel=1e-12)

    def test_loss_is_positive(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.normal(size=(10, 7))
            assert nt_xent_loss(x, 0.5) > 0.0

    def test_rejects_zero_row(self):
        x = np.ones((4, 3))
        x[2] = 0.0
        with pytest.raises(ValueError, match="zero-norm"):
            nt_xent_loss(x, 0.5)

    def test_rejects_odd_row_count(self):
        with pytest.raises(ValueError, match="2B"):
            nt_xent_loss(np.ones((5, 3)), 0.5)

    def test_rejects_single_pair(self):
        with pytest.raises(ValueError, match="2 pairs"):
            nt_xent_loss(np.ones((2, 3)), 0.5)


class TestNtXentGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            b = int(rng.integers(2, 5))
            d = int(rng.integers(3, 9))
            x = rng.normal(size=(2 * b, d))
            tau = float(rng.choice([0.1, 0.5, 1.0]))
            analytic = nt_xent_gradient(x, tau)
            numeric = numerical_gradient(x, tau)
            rel = (np.linalg.norm(analytic - numeric)
                   / max(np.linalg.norm(numeric), 1e-12))
            assert rel < 1e-6

    def test_symmetric_configuration_equal_norms(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        grad = nt_xent_gradient(x, 1.0)
        norms = np.linalg.norm(grad, axis=1)
        assert np.allclose(norms, norms[0], atol=1e-12)
        assert norms[0] > 0.0

    def test_huge_temperature_flattens_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(8, 5))
        grad = nt_xent_gradient(x, 1e6)
        assert np.linalg.norm(grad) < 1e-5

    def test_input_scaling_shrinks_gradient(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 4))
        g1 = nt_xent_gradient(x, 0.5)
        g3 = nt_xent_gradient(3.0 * x, 0.5)
        assert np.allclose(3.0 * g3, g1, atol=1e-12)

    def test_gradient_orthogonal_to_direction(self):
        # radial component is removed: moving along z cannot change the loss
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 5))
        grad = nt_xent_gradient(x, 0.5)
        dots = np.sum(grad * x, axis=1)
        assert np.allclose(dots, 0.0, atol=1e-12)


class TestOptimizerStep:
    def test_sgd_hand_value(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.1)
        optimizer_step(params, grads, cfg, OptimizerState())
        assert params["w"][0] == pytest.approx(0.95, abs=1e-15)

    def test_sgd_weight_decay(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.0])}
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.1, weight_decay=0.1)
        optimizer_step(params, grads, cfg, OptimizerState())
        assert params["w"][0] == pytest.approx(0.99, abs=1e-15)

    def test_adamw_first_step_hand_value(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        cfg = TrainConfig(optimizer="adamw", learning_rate=1e-3,
                          weight_decay=0.0)
        state = OptimizerState()
        optimizer_step(params, grads, cfg, state)
        # bias correction makes m_hat = g and sqrt(v_hat) = |g| on step 1,
        # so the move is -lr * g / (|g| + eps)
        expected = 1.0 - 1e-3 * (0.5 / (0.5 + 1e-8))
        assert params["w"][0] == pytest.approx(expected, abs=1e-15)
        assert params["w"][0] - 1.0 == pytest.approx(-9.999e-4, abs=1e-6)
        assert state.step == 1

    def test_adamw_sign_only_depends_on_gradient_sign(self):
        params = {"w": np.array([1.0, 1.0])}
        grads = {"w": np.array([0.5, -2.0])}
        cfg = TrainConfig(optimizer="adamw", learning_rate=1e-3)
        optimizer_step(params, grads, cfg, OptimizerState())
        moves = params["w"] - 1.0
        assert moves[0] < 0 < moves[1]
        assert abs(moves[0]) == pytest.approx(abs(moves[1]), rel=1e-6)

    def test_adamw_decoupled_weight_decay_with_zero_gradient(self):
        params = {"w": np.array([2.0])}
        grads = {"w": np.array([0.0])}
        cfg = TrainConfig(optimizer="adamw", learning_rate=0.1,
                          weight_decay=0.5)
        optimizer_step(params, grads, cfg, OptimizerState())
        assert params["w"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-12)

    def test_zero_gradient_zero_decay_leaves_params(self):
        params = {"w": np.array([1.5, -0.5])}
        grads = {"w": np.zeros(2)}
        for opt in ("sgd", "adamw"):
            cfg = TrainConfig(optimizer=opt, learning_rate=0.1)
            optimizer_step(params, grads, cfg, OptimizerState())
        assert np.array_equal(params["w"], np.array([1.5, -0.5]))

    def test_nonfinite_gradient_rejected_with_name(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([np.nan])}
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.1)
        with pytest.raises(FloatingPointError, match="w"):
            optimizer_step(params, grads, cfg, OptimizerState())

    def test_shape_mismatch_rejected(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([1.0, 2.0])}
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.1)
        with pytest.raises(ValueError, match="shape"):
            optimizer_step(params, grads, cfg, OptimizerState())

    def test_adamw_state_accumulates_across_steps(self):
        params = {"w": np.array([1.0])}
        cfg = TrainConfig(optimizer="adamw", learning_rate=1e-3)
        state = OptimizerState()
        optimizer_step(params, {"w": np.array([0.5])}, cfg, state)
        optimizer_step(params, {"w": np.array([0.5])}, cfg, state)
        assert state.step == 2
        # constant gradient keeps m_hat/sqrt(v_hat) at 1, so two near-lr moves
        assert params["w"][0] == pytest.approx(1.0 - 2e-3, abs=1e-7)

    def test_updates_encoder_params_in_place(self):
        params = init_params(10, 4, 3, seed=0)
        before = params.embedding_table.copy()
        grads = {name: np.ones_like(t) for name, t in params.tensors().items()}
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.01)
        optimizer_step(params.tensors(), grads, cfg, OptimizerState())
        assert np.allclose(params.embedding_table, before - 0.01)


class TestDefaultEpochs:
    def test_sad_ceil(self):
        assert default_epochs("sad", 100, 32) == 4
        assert default_epochs("sad", 96, 32) == 3
        assert default_epochs("sad", 5, 32) == 1

    def test_tps_fixed(self):
        assert default_epochs("tps", 10000, 32) == 4


class TestTrain:
    def small_config(self, **kw):
        base = dict(method="sad", batch_size=16, learning_rate=5e-3,
                    epochs=3, num_clusters=4, seed=0, max_len_train=64,
                    max_len_test=128)
        base.update(kw)
        return TrainConfig(**base)

    def test_requires_num_clusters(self):
        corpus = generate_synthetic_corpus(docs_per_topic=5, seed=0)
        with pytest.raises(ValueError, match="num_clusters"):
            train(corpus, TrainConfig(method="sad", epochs=1))

    def test_requires_at_least_one_epoch(self, monkeypatch):
        corpus = generate_synthetic_corpus(docs_per_topic=5, seed=0)

        def refuse(texts):
            raise AssertionError("tokenized before the config check")

        monkeypatch.setattr(contrastive, "index_tokens", refuse)
        with pytest.raises(ValueError, match="at least 1 epoch"):
            train(corpus, self.small_config(epochs=0))

    def test_history_one_record_per_epoch(self):
        corpus = generate_synthetic_corpus(docs_per_topic=8, seed=1)
        result = train(corpus, self.small_config(epochs=3))
        assert len(result.history) == 3
        for epoch, record in enumerate(result.history, start=1):
            assert record["epoch"] == epoch
            assert record["batch_losses"]
            assert np.isfinite(record["loss"])
            assert -1.0 <= record["silhouette"] <= 1.0
            assert "kmeans_seed" in record and "silhouette_seed" in record

    def test_best_epoch_is_earliest_argmax_silhouette(self):
        corpus = generate_synthetic_corpus(docs_per_topic=8, seed=2)
        result = train(corpus, self.small_config(epochs=4))
        sils = [r["silhouette"] for r in result.history]
        assert result.best_epoch == int(np.argmax(sils)) + 1

    def test_same_seed_bitwise_identical_history(self):
        corpus = generate_synthetic_corpus(docs_per_topic=8, seed=3)
        a = train(corpus, self.small_config())
        b = train(corpus, self.small_config())
        for ra, rb in zip(a.history, b.history):
            assert ra["batch_losses"] == rb["batch_losses"]
            assert ra["silhouette"] == rb["silhouette"]
        for name, tensor in a.best_params.tensors().items():
            assert np.array_equal(tensor, b.best_params.tensors()[name])

    def test_different_seed_changes_losses(self):
        corpus = generate_synthetic_corpus(docs_per_topic=8, seed=3)
        a = train(corpus, self.small_config(seed=0, epochs=1))
        b = train(corpus, self.small_config(seed=1, epochs=1))
        assert a.history[0]["loss"] != b.history[0]["loss"]

    def test_loss_decreases_on_separable_corpus(self):
        corpus = generate_synthetic_corpus(seed=0)
        cfg = TrainConfig(method="sad", batch_size=32, learning_rate=5e-3,
                          epochs=2, num_clusters=4, seed=0)
        result = train(corpus, cfg)
        first = result.history[0]["batch_losses"]
        assert first[0] > first[-1]
        assert result.history[0]["loss"] > result.history[1]["loss"]

    def test_short_document_aborts_with_location(self, monkeypatch):
        docs = [Document(f"d{i}", "Alpha beta. Gamma delta. Five six. Seven eight.")
                for i in range(7)]
        docs.append(Document("bad", "Only one sentence here."))
        corpus = Corpus(documents=tuple(docs))
        steps = []
        monkeypatch.setattr(contrastive, "build_batch_sad",
                            lambda *a, **k: steps.append(a))
        with pytest.raises(ValueError) as err:
            train(corpus, self.small_config(num_clusters=2, epochs=1))
        message = str(err.value)
        assert message.startswith("1 document(s) cannot be trained on")
        assert "'bad' has 1 sentence(s); need at least 2 to divide" in message
        assert steps == []

    def test_failed_step_reports_epoch_and_batch(self, monkeypatch):
        corpus = generate_synthetic_corpus(docs_per_topic=8, seed=1)

        def overflow(*args, **kwargs):
            raise FloatingPointError("non-finite values in embedding_table after update")

        monkeypatch.setattr(contrastive, "optimizer_step", overflow)
        with pytest.raises(RuntimeError, match=r"^epoch 1, batch 0: non-finite"):
            train(corpus, self.small_config(epochs=1))

    def test_token_free_sentences_fail_before_training(self, monkeypatch):
        docs = [Document(f"d{i}", "Alpha beta. Gamma delta. Five six. Seven eight.")
                for i in range(6)]
        # one half of 3 sentences has a single sentence, so it can be "!!!"
        docs.append(Document("probe", "real words here. !!! ..."))
        # 1 token-free sentence of 4: both halves keep a worded sentence
        docs.append(Document("fine", "Alpha beta. !!! Gamma delta. Five six."))
        docs.append(Document("empty", "!!! ... ???"))
        corpus = Corpus(documents=tuple(docs))
        steps = []
        monkeypatch.setattr(contrastive, "build_batch_sad",
                            lambda *a, **k: steps.append(a))
        with pytest.raises(ValueError) as err:
            train(corpus, self.small_config(num_clusters=2, epochs=1))
        message = str(err.value)
        assert message.startswith("2 document(s) cannot be trained on")
        assert "'probe' has 2 of 3 sentences without tokens" in message
        assert "'empty' has no tokens" in message
        assert "'fine'" not in message
        assert steps == []

    def test_tps_document_without_tokens_fails_before_training(self):
        docs = [Document(f"d{i}", f"word{i} alpha. beta gamma.") for i in range(5)]
        docs.append(Document("empty", "... !!!"))
        corpus = Corpus(documents=tuple(docs))
        with pytest.raises(ValueError, match=r"1 document\(s\).*'empty' has no tokens"):
            train(corpus, self.small_config(method="tps", num_clusters=2,
                                            batch_size=2, epochs=1))

    def test_tps_pairs_on_the_last_epochs_embedding(self, monkeypatch):
        corpus = generate_synthetic_corpus(docs_per_topic=6, seed=4)
        calls = []
        real = contrastive.embed_corpus

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(out)
            return out

        sim_models = []
        real_top1 = contrastive.top1_from_matrix

        def capturing(sim_tfidf, sim_model=None, weight=1.0):
            sim_models.append(sim_model)
            return real_top1(sim_tfidf, sim_model, weight)

        monkeypatch.setattr(contrastive, "embed_corpus", counting)
        monkeypatch.setattr(contrastive, "top1_from_matrix", capturing)
        train(corpus, self.small_config(method="tps", epochs=3))
        assert len(calls) == 3  # once per epoch, none for pairing
        assert sim_models[0] is None  # epoch 1 pairs on TF-IDF alone
        blended = sim_models[1:]
        assert len(blended) == 2
        for epoch_embeddings, s_model in zip(calls, blended):
            assert np.array_equal(s_model, similarity_matrix(epoch_embeddings))

    @pytest.mark.parametrize("method", ["sad", "tps"])
    def test_each_text_is_tokenized_once(self, monkeypatch, method):
        # sad reads every sentence once, tps every document once: the
        # vocabulary, views, embeddings and TF-IDF share those tokens
        corpus = generate_synthetic_corpus(docs_per_topic=8, seed=6)
        calls = []
        real = tfidf.tokenize_text

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(tfidf, "tokenize_text", counting)
        monkeypatch.setattr(encoder, "tokenize_text", counting)
        train(corpus, self.small_config(method=method, epochs=3))
        if method == "sad":
            expected = [s for doc in corpus.documents for s in doc.sentences]
        else:
            expected = [doc.text for doc in corpus.documents]
        assert calls == expected

    def test_tps_records_label_match_rate(self):
        corpus = generate_synthetic_corpus(docs_per_topic=10, seed=4)
        cfg = self.small_config(method="tps", epochs=2)
        result = train(corpus, cfg)
        for record in result.history:
            assert 0.0 <= record["label_match_rate"] <= 1.0
        # topics share almost no vocabulary, so top-1 neighbors match labels
        assert result.history[0]["label_match_rate"] >= 0.95

    def test_tps_unlabeled_corpus_has_no_match_rate(self):
        labeled = generate_synthetic_corpus(docs_per_topic=3, seed=0)
        corpus = Corpus(tuple(Document(doc.id, doc.text) for doc in labeled.documents))
        cfg = self.small_config(method="tps", num_clusters=2, epochs=1,
                                batch_size=4)
        result = train(corpus, cfg)
        assert result.history[0]["batch_losses"]
        assert "label_match_rate" not in result.history[0]

    def test_final_params_differ_from_best_when_best_is_early(self):
        corpus = generate_synthetic_corpus(docs_per_topic=8, seed=5)
        result = train(corpus, self.small_config(epochs=4))
        if result.best_epoch < 4:
            table_best = result.best_params.embedding_table
            table_final = result.final_params.embedding_table
            assert not np.array_equal(table_best, table_final)


class TestSupervisedFinetune:
    def split_balanced(self, corpus):
        docs = list(corpus.documents)
        train_docs = tuple(d for i, d in enumerate(docs) if i % 2 == 0)
        test_docs = tuple(d for i, d in enumerate(docs) if i % 2 == 1)
        return (Corpus(documents=train_docs, label_names=corpus.label_names),
                Corpus(documents=test_docs, label_names=corpus.label_names))

    def test_zero_epochs_is_chance_on_balanced_data(self):
        corpus = generate_synthetic_corpus(topics=4, docs_per_topic=20,
                                           vocab_per_topic=300, seed=5)
        train_c, test_c = self.split_balanced(corpus)
        vocab = vocab_of(corpus, 30000)
        params = init_params(len(vocab), 64, 64, seed=42)
        cfg = TrainConfig(batch_size=16, learning_rate=3e-3, epochs=0,
                          num_clusters=4, seed=0)
        head, acc = supervised_finetune(params, vocab, train_c, test_c,
                                        use_sad=False, config=cfg)
        assert acc == pytest.approx(0.25, abs=1e-12)
        assert head["head_w"].shape == (64, 4)
        assert head["head_b"].shape == (4,)

    def test_separable_corpus_reaches_perfect_accuracy(self):
        corpus = generate_synthetic_corpus(topics=4, docs_per_topic=20,
                                           vocab_per_topic=300, seed=5)
        train_c, test_c = self.split_balanced(corpus)
        vocab = vocab_of(corpus, 30000)
        params = init_params(len(vocab), 64, 64, seed=42)
        cfg = TrainConfig(batch_size=16, learning_rate=3e-3, epochs=12,
                          num_clusters=4, seed=0)
        for use_sad in (False, True):
            head, acc = supervised_finetune(params, vocab, train_c, test_c,
                                            use_sad=use_sad, config=cfg)
            assert acc == pytest.approx(1.0)

    def test_same_seed_reproduces_accuracy(self):
        corpus = generate_synthetic_corpus(topics=2, docs_per_topic=10,
                                           vocab_per_topic=200, seed=6)
        train_c, test_c = self.split_balanced(corpus)
        vocab = vocab_of(corpus, 30000)
        params = init_params(len(vocab), 32, 32, seed=1)
        cfg = TrainConfig(batch_size=8, learning_rate=3e-3, epochs=3,
                          num_clusters=2, seed=9)
        runs = [supervised_finetune(params, vocab, train_c, test_c,
                                    use_sad=True, config=cfg)
                for _ in range(2)]
        assert runs[0][1] == runs[1][1]
        assert np.array_equal(runs[0][0]["head_w"], runs[1][0]["head_w"])
