import numpy as np
import pytest

from mal2gcn.fcg import Corpus, Fcg, FunctionNode
from mal2gcn.featurize import build_vocabulary
from mal2gcn.synth import split_corpus
from mal2gcn.train import (
    EarlyStopper,
    TrainConfig,
    TrainingError,
    train,
    write_train_report,
)


class TestEarlyStopper:
    def test_spec_schedule_stops_after_epoch_five_keeping_epoch_two(self):
        stopper = EarlyStopper(patience=3)
        losses = [0.50, 0.40, 0.41, 0.42, 0.43]
        stops = [stopper.update(epoch, loss) for epoch, loss in enumerate(losses, start=1)]
        assert stops == [False, False, False, False, True]
        assert stopper.best_epoch == 2

    def test_tie_counts_as_no_improvement(self):
        stopper = EarlyStopper(patience=2)
        assert not stopper.update(1, 0.5)
        assert not stopper.update(2, 0.5)
        assert stopper.update(3, 0.5)
        assert stopper.best_epoch == 1

    def test_improvement_resets_the_streak(self):
        stopper = EarlyStopper(patience=2)
        for epoch, loss in enumerate([0.5, 0.6, 0.4, 0.6], start=1):
            assert not stopper.update(epoch, loss)
        assert stopper.best_epoch == 3


@pytest.fixture(scope="module")
def tiny_setup(small_corpus_module):
    corpus, pool = small_corpus_module
    tr, va = split_corpus(corpus, (80, 40))
    vocab = build_vocabulary(tr, k_api=60, k_str=60)
    return tr, va, vocab, pool


@pytest.fixture(scope="module")
def small_corpus_module():
    from mal2gcn.synth import SynthConfig, generate_corpus

    cfg = SynthConfig(
        n_benign=60,
        n_malware=60,
        node_count_min=4,
        node_count_max=25,
        n_benign_apis=60,
        n_benign_strings=60,
        n_malicious_apis=60,
        n_malicious_strings=60,
        n_shared_apis=40,
        n_shared_strings=40,
        seed=11,
    )
    return generate_corpus(cfg)


def small_cfg(**kwargs):
    defaults = dict(h1=24, h2=12, hg=8, max_epochs=6, batch_size=16, seed=5)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestTrain:
    def test_same_seed_gives_bitwise_identical_models(self, tiny_setup):
        tr, va, vocab, _ = tiny_setup
        m1, _ = train(tr, va, vocab, small_cfg())
        m2, _ = train(tr, va, vocab, small_cfg())
        for name, w in m1.weights().items():
            assert np.array_equal(w, getattr(m2, name)), name

    def test_different_seed_gives_different_models(self, tiny_setup):
        tr, va, vocab, _ = tiny_setup
        m1, _ = train(tr, va, vocab, small_cfg(seed=5))
        m2, _ = train(tr, va, vocab, small_cfg(seed=6))
        assert not np.array_equal(m1.w_gcn1, m2.w_gcn1)

    def test_projection_flags_hold_exactly_after_training(self, tiny_setup):
        tr, va, vocab, _ = tiny_setup
        model, report = train(tr, va, vocab, small_cfg(nonneg_gcn=True, nonneg_gclf=True))
        assert model.w_gcn1.min() >= 0.0
        assert model.w_gcn2.min() >= 0.0
        assert model.w_hidden.min() >= 0.0
        assert model.w_out.min() >= 0.0
        assert report.audit_ok()

    def test_unconstrained_model_learns_negative_weights(self, tiny_setup):
        tr, va, vocab, _ = tiny_setup
        model, report = train(tr, va, vocab, small_cfg())
        assert model.w_gcn1.min() < 0.0
        assert not report.nonneg_audit["w_gcn1"]["governed"]

    def test_best_epoch_matches_argmin_val_loss(self, tiny_setup):
        tr, va, vocab, _ = tiny_setup
        _, report = train(tr, va, vocab, small_cfg())
        losses = [e.val_loss for e in report.epochs]
        assert report.best_epoch == int(np.argmin(losses)) + 1

    def test_learns_the_small_corpus(self, tiny_setup):
        tr, va, vocab, _ = tiny_setup
        _, report = train(tr, va, vocab, small_cfg(max_epochs=10))
        assert max(e.val_acc for e in report.epochs) >= 0.9

    def test_empty_corpus_rejected(self, tiny_setup):
        _, va, vocab, _ = tiny_setup
        with pytest.raises(TrainingError, match="empty"):
            train(Corpus(()), va, vocab, small_cfg())

    def test_unlabeled_graph_named_in_error(self, tiny_setup):
        tr, va, vocab, _ = tiny_setup
        bad = Corpus(tr.records + (Fcg("mystery", None, "main", (FunctionNode("main"),), ()),))
        with pytest.raises(TrainingError, match="mystery"):
            train(bad, va, vocab, small_cfg())

    def test_single_label_validation_rejected(self, tiny_setup):
        tr, va, vocab, _ = tiny_setup
        mal_only = Corpus(tuple(g for g in va if g.label == "malware"))
        with pytest.raises(TrainingError, match="both labels"):
            train(tr, mal_only, vocab, small_cfg())

    def test_report_write(self, tiny_setup, tmp_path):
        tr, va, vocab, _ = tiny_setup
        _, report = train(tr, va, vocab, small_cfg())
        path = tmp_path / "report.txt"
        write_train_report(report, path, {"seed": 5})
        text = path.read_text(encoding="utf-8")
        assert text.startswith("#mal2gcn-train-report v1")
        assert f"best_epoch\t{report.best_epoch}" in text
        assert "[epochs]" in text


class TestTrainConfig:
    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_rejects_zero_sizes(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
