"""Adam training loop with early stopping and per-epoch non-negative projection.

`train` fits the corpora and config it is given; adversarial augmentation, if
any, is the caller's: pass the prepared graphs that
`attack.generate_training_adversaries` returns as `adversaries`.
"""

from dataclasses import dataclass

import numpy as np

from .fcg import Corpus, DataError, Fcg, LABEL_MALWARE, normalize_fcg, report_lines, write_lines
from .featurize import Vocabulary
from .gcn import (
    ModelParams,
    batch_loss_and_gradients,
    cross_entropy,
    init_params,
    prepare_fcg,
    project_nonnegative,
    score_prepared,
)

TRAIN_REPORT_HEADER = "#mal2gcn-train-report v1"


class TrainingError(DataError):
    """Training hit a non-finite loss or an unusable corpus."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.008
    batch_size: int = 32
    patience: int = 3
    max_epochs: int = 100
    h1: int = 500
    h2: int = 250
    hg: int = 64
    readout: str = "avg"
    seed: int = 0
    nonneg_gcn: bool = False
    nonneg_gclf: bool = False

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be a finite number > 0")
        if min(self.batch_size, self.patience, self.max_epochs, self.h1, self.h2, self.hg) < 1:
            raise ValueError("batch_size, patience, max_epochs, and layer sizes must be >= 1")


@dataclass(frozen=True)
class EpochStats:
    epoch: int  # 1-based
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass(frozen=True)
class TrainReport:
    epochs: tuple[EpochStats, ...]
    best_epoch: int
    stopping_reason: str  # "early_stopping" | "max_epochs"
    nonneg_audit: dict  # weight name -> {"governed": bool, "min_entry": float}

    def audit_ok(self) -> bool:
        return all(not a["governed"] or a["min_entry"] >= 0.0 for a in self.nonneg_audit.values())


class EarlyStopper:
    """Stop after `patience` consecutive epochs without a strictly lower validation loss."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_loss = np.inf
        self.best_epoch = 0
        self.streak = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if val_loss < self.best_loss:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self.streak = 0
        else:
            self.streak += 1
        return self.streak >= self.patience


class _Adam:
    def __init__(self, shapes: dict, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}

    def step(self, params: ModelParams, grads: dict) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            getattr(params, name)[...] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _label_to_int(g: Fcg) -> int:
    return 1 if g.label == LABEL_MALWARE else 0


def _check_labeled(corpus, name: str) -> None:
    if len(corpus) == 0:
        raise TrainingError(f"{name} corpus is empty")
    for g in corpus:
        if g.label is None:
            raise TrainingError(f"{name} corpus: graph {g.graph_id} is unlabeled")


def _prepare_labeled(records, vocab: Vocabulary):
    prepared = [prepare_fcg(normalize_fcg(g), vocab) for g in records]
    labels = np.array([_label_to_int(g) for g in records], dtype=np.float64)
    return prepared, labels


def _eval_split(params: ModelParams, prepared, labels):
    scores = score_prepared(params, prepared)
    loss = cross_entropy(scores, labels)
    acc = float(((scores >= 0.5).astype(np.float64) == labels).mean())
    return loss, acc


def train(
    train_corpus: Corpus, val_corpus: Corpus, vocab: Vocabulary, cfg: TrainConfig, adversaries=()
) -> tuple[ModelParams, TrainReport]:
    """Train from scratch; returns the (projected) weights of the best validation epoch.

    `adversaries` is a sequence of prepared graphs trained on as malware,
    after the training corpus's graphs.  Deterministic for a fixed (corpora,
    adversaries, vocabulary, config): weight init and epoch shuffles both
    derive from cfg.seed.
    """
    _check_labeled(train_corpus, "train")
    _check_labeled(val_corpus, "validation")
    val_labels_set = {g.label for g in val_corpus}
    if len(val_labels_set) < 2:
        raise TrainingError("validation corpus must contain both labels")

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))

    train_prepared, train_labels = _prepare_labeled(train_corpus.records, vocab)
    train_prepared += adversaries
    train_labels = np.concatenate([train_labels, np.ones(len(adversaries))])
    val_prepared, val_labels = _prepare_labeled(val_corpus.records, vocab)

    d = vocab.size
    params = init_params(d, cfg.h1, cfg.h2, cfg.hg, cfg.nonneg_gcn, cfg.nonneg_gclf, rng, cfg.readout)
    adam = _Adam({k: v.shape for k, v in params.weights().items()}, lr=cfg.learning_rate)
    stopper = EarlyStopper(cfg.patience)

    epochs: list[EpochStats] = []
    stopping_reason = "max_epochs"

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_prepared))
        epoch_losses = []
        epoch_correct = 0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = [train_prepared[i] for i in idx]
            labels = train_labels[idx]
            loss, grads, p = batch_loss_and_gradients(params, batch, labels)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}")
            adam.step(params, grads)
            epoch_losses.append(loss)
            epoch_correct += int(((p >= 0.5) == (labels >= 0.5)).sum())

        params = project_nonnegative(params)

        val_loss, val_acc = _eval_split(params, val_prepared, val_labels)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        epochs.append(
            EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(epoch_losses)),
                train_acc=epoch_correct / len(train_prepared),
                val_loss=val_loss,
                val_acc=val_acc,
            )
        )
        should_stop = stopper.update(epoch, val_loss)
        if stopper.best_epoch == epoch:
            best_params = params.copy()
        if should_stop:
            stopping_reason = "early_stopping"
            break

    audit = {
        name: {"governed": name in best_params.governed_names(), "min_entry": float(w.min())}
        for name, w in best_params.weights().items()
    }
    report = TrainReport(
        epochs=tuple(epochs),
        best_epoch=stopper.best_epoch,
        stopping_reason=stopping_reason,
        nonneg_audit=audit,
    )
    return best_params, report


def write_train_report(report: TrainReport, path, meta: dict | None = None) -> None:
    lines = report_lines(TRAIN_REPORT_HEADER, meta)
    lines += [f"best_epoch\t{report.best_epoch}", f"stopping_reason\t{report.stopping_reason}"]
    for name, audit in report.nonneg_audit.items():
        lines.append(f"audit\t{name}\tgoverned={int(audit['governed'])}\tmin={audit['min_entry']!r}")
    lines += ["[epochs]", "epoch\ttrain_loss\ttrain_acc\tval_loss\tval_acc"]
    for e in report.epochs:
        lines.append(f"{e.epoch}\t{e.train_loss!r}\t{e.train_acc!r}\t{e.val_loss!r}\t{e.val_acc!r}")
    write_lines(path, lines)
