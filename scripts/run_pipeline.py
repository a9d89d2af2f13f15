#!/usr/bin/env python3
"""End-to-end desk experiment: synthetic corpus -> vocabulary -> three model
variants -> test metrics -> evasion sweeps -> summary table.

Writes every artifact (corpus splits, vocabulary, models, reports) under
--workdir and prints a comparison of the unconstrained, convolution-only
non-negative, and fully non-negative variants.
"""

import argparse
import sys
import time
from pathlib import Path

from mal2gcn.attack import (
    DEFAULT_OVERHEADS,
    AttackConfig,
    attack_sweep,
    check_monotonicity,
    write_attack_report,
    write_benign_pool,
)
from mal2gcn.fcg import Corpus, DataError, LABEL_MALWARE, write_corpus
from mal2gcn.featurize import build_vocabulary, write_vocabulary
from mal2gcn.gcn import save_model, score_graphs
from mal2gcn.metrics import compute_metrics, write_metrics_report
from mal2gcn.synth import SynthConfig, generate_corpus, split_corpus
from mal2gcn.train import TrainConfig, train, write_train_report

VARIANTS = {
    "plain": (False, False),
    "gcn-nonneg": (True, False),
    "full-nonneg": (True, True),
}


def parse_split(text: str) -> tuple[int, int, int]:
    """Train, validation and test sizes: exactly three comma-separated non-negative integers."""
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        sizes = ()
    if len(sizes) != 3 or min(sizes) < 0:
        raise argparse.ArgumentTypeError(f"expected three comma-separated non-negative integers, got {text!r}")
    return sizes


def integer_at_least(minimum: int):
    """An argparse type for integers >= minimum, so a bad count is a usage error before any work."""

    def parse(text: str) -> int:
        try:
            if (value := int(text)) >= minimum:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=Path("pipeline_out"))
    parser.add_argument("--seed", type=integer_at_least(0), default=42)
    parser.add_argument("--n-benign", type=integer_at_least(0), default=SynthConfig.n_benign)
    parser.add_argument("--n-malware", type=integer_at_least(0), default=SynthConfig.n_malware)
    parser.add_argument("--split", type=parse_split, default=(2000, 500, 500))
    parser.add_argument("--epochs", type=integer_at_least(1), default=15)
    parser.add_argument("--attack-overhead", type=float, choices=DEFAULT_OVERHEADS, default=200.0)
    return parser


def main():
    parser = build_parser()
    args = parser.parse_args()
    if sum(args.split) > args.n_benign + args.n_malware:
        parser.error(f"--split sizes sum to {sum(args.split)} but the corpus has {args.n_benign + args.n_malware} graphs")
    try:
        return run(args)
    except (DataError, OSError) as exc:  # as the mal2gcn command maps them: one line, exit 2
        print(f"{parser.prog}: data error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    """Every stage of the experiment, its artifacts written under args.workdir; returns the exit code."""
    work = args.workdir
    work.mkdir(parents=True, exist_ok=True)

    print(f"== generating corpus (seed {args.seed}) ==", flush=True)
    corpus, pool = generate_corpus(SynthConfig(n_benign=args.n_benign, n_malware=args.n_malware, seed=args.seed))
    tr, va, te = split_corpus(corpus, args.split)
    for name, part in (("train", tr), ("val", va), ("test", te)):
        write_corpus(part, work / f"corpus.{name}.jsonl")
    write_benign_pool(pool, work / "benign.pool")

    print("== building vocabulary ==", flush=True)
    vocab = build_vocabulary(tr)
    write_vocabulary(vocab, work / "vocab.tsv")

    test_labels = [1 if g.label == LABEL_MALWARE else 0 for g in te]
    malware = Corpus(tuple(g for g in te if g.label == LABEL_MALWARE))

    rows = []
    for variant, (nonneg_gcn, nonneg_gclf) in VARIANTS.items():
        print(f"== training {variant} ==", flush=True)
        started = time.perf_counter()
        cfg = TrainConfig(
            seed=args.seed, nonneg_gcn=nonneg_gcn, nonneg_gclf=nonneg_gclf, max_epochs=args.epochs
        )
        model, report = train(tr, va, vocab, cfg)
        seconds = time.perf_counter() - started
        save_model(model, work / f"model.{variant}.txt", vocab)
        write_train_report(report, work / f"train.{variant}.txt", {"seed": args.seed})

        scores = score_graphs(model, te, vocab)
        metrics = compute_metrics(list(zip(scores, test_labels)))
        write_metrics_report(metrics, work / f"metrics.{variant}.txt", {"seed": args.seed})

        sweep = attack_sweep(model, vocab, malware, pool, AttackConfig(seed=args.seed))
        robust = next(s for s in sweep.summary if s.overhead_pct == args.attack_overhead).robust_acc_conditioned
        write_attack_report(sweep, work / f"attack.{variant}.tsv", {"seed": args.seed})

        mono = check_monotonicity(model, vocab, te, trials=300, seed=args.seed)
        rows.append(
            (
                variant,
                metrics.accuracy,
                metrics.auc if metrics.auc is not None else float("nan"),
                robust,
                len(mono.violations),
                "audit" if not mono.informational else "info",
                seconds,
            )
        )
        print(
            f"   acc={metrics.accuracy:.4f} auc={rows[-1][2]:.4f} "
            f"robust@{args.attack_overhead:g}%={robust:.4f} "
            f"({seconds:.0f}s)",
            flush=True,
        )
        print("   success rate by overhead:", flush=True)
        for s in sweep.summary:
            print(f"     {s.overhead_pct:7.1f}%  success={s.success_rate:.4f}", flush=True)

    print()
    print(f"{'variant':<12} {'test acc':>9} {'auc':>8} {'robust':>8} {'mono.viol':>10} {'mode':>6} {'train s':>8}")
    for variant, acc, auc, robust, violations, mode, seconds in rows:
        print(f"{variant:<12} {acc:>9.4f} {auc:>8.4f} {robust:>8.4f} {violations:>10d} {mode:>6} {seconds:>8.0f}")
    print(f"\nartifacts written to {work}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
