"""Command-line surface: corpus generation, vocabulary building, training,
evaluation, attack sweeps, monotonicity audits, and graph inspection.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data error,
3 check failure (e.g. monotonicity violations found).
"""

import argparse
import hashlib
import logging
import sys
from pathlib import Path

from . import __version__
from .attack import (
    AttackConfig,
    attack_sweep,
    check_monotonicity,
    read_benign_pool,
    write_attack_report,
    write_benign_pool,
)
from .fcg import Corpus, DataError, LABEL_MALWARE, normalize_fcg, read_corpus, write_corpus
from .featurize import build_vocabulary, embed_graph, read_vocabulary, write_vocabulary
from .gcn import GCLF_WEIGHTS, GCN_WEIGHTS, load_model, save_model, score_graphs
from .metrics import compute_metrics, roc_csv_lines, write_metrics_report
from .synth import SynthConfig, derive_benign_pool, generate_corpus, split_corpus, write_manifest
from .train import AdvTrainConfig, TrainConfig, train, write_train_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK_FAILED = 3

logger = logging.getLogger("mal2gcn")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_csv_floats(text: str):
    try:
        return tuple(float(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_csv_names(text: str):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_no_overwrite(args) -> None:
    """Refuse output paths that would clobber this invocation's inputs, however they are spelled."""
    inputs = {
        Path(getattr(args, name)).resolve()
        for name in ("corpus", "val", "vocab", "pool")
        if getattr(args, name, None)
    }
    if args.command in ("eval", "attack", "check-monotone", "inspect") and getattr(args, "model", None):
        inputs.add(Path(args.model).resolve())
    outputs = [
        str(value)
        for name in ("out", "roc_out", "pool_out", "manifest_out")
        if (value := getattr(args, name, None))
    ]
    if args.command in ("train", "gen-corpus") and getattr(args, "model", None):
        outputs.append(str(args.model))
    for out in outputs:
        if Path(out).resolve() in inputs:
            raise UsageError(f"output path {out} would overwrite an input")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mal2gcn", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mal2gcn {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, *, seed=True, strict=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if strict:
            p.add_argument("--strict", action="store_true", help="reject unknown interchange fields")

    p = sub.add_parser("gen-corpus", help="generate a synthetic labeled corpus")
    common(p, strict=False)
    p.add_argument("--out", required=True, help="corpus output path")
    p.add_argument("--n-benign", type=int, default=1500)
    p.add_argument("--n-malware", type=int, default=1500)
    p.add_argument("--node-min", type=int, default=5)
    p.add_argument("--node-max", type=int, default=200)
    p.add_argument("--split", type=_parse_csv_floats, default=None, help="e.g. 2000,500,500 writes .train/.val/.test files")
    p.add_argument("--pool-out", default=None, help="benign pool output (default: <out>.pool)")
    p.add_argument("--manifest-out", default=None, help="manifest output (default: <out>.manifest)")

    p = sub.add_parser("build-vocab", help="select the vocabulary from a labeled corpus")
    common(p, seed=False)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k-api", type=int, default=500)
    p.add_argument("--k-str", type=int, default=500)
    p.add_argument("--prefilter", type=int, default=5000)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--corpus", required=True, help="training corpus")
    p.add_argument("--val", required=True, help="validation corpus")
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True, help="model output path")
    p.add_argument("--out", default=None, help="optional training report path")
    p.add_argument("--nonneg-gcn", type=_parse_bool, default=False)
    p.add_argument("--nonneg-gclf", type=_parse_bool, default=False)
    p.add_argument("--adv-train", type=int, default=0, metavar="COUNT")
    p.add_argument("--pool", default=None, help="benign pool for --adv-train (default: derived from the training corpus)")
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.008)
    p.add_argument("--readout", choices=("avg", "sum", "max"), default="avg")
    p.add_argument("--h1", type=int, default=500)
    p.add_argument("--h2", type=int, default=250)
    p.add_argument("--hg", type=int, default=64)
    p.add_argument("--projection", choices=("per_epoch", "per_step"), default="per_epoch")

    p = sub.add_parser("eval", help="score a labeled corpus and write a metrics report")
    common(p, seed=False)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--roc-out", default=None, help="optional standalone ROC CSV")
    p.add_argument("--readout", choices=("avg", "sum", "max"), default="avg")

    p = sub.add_parser("attack", help="run the overhead sweep against malware samples")
    common(p)
    p.add_argument("--corpus", required=True, help="corpus; non-malware records are skipped")
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--overheads", type=_parse_csv_floats, default=None)
    p.add_argument("--modes", type=_parse_csv_names, default=None)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--readout", choices=("avg", "sum", "max"), default="avg")
    p.add_argument("--reference-overhead", type=float, default=None)

    p = sub.add_parser("check-monotone", help="audit monotonicity on a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--readout", choices=("avg", "sum", "max"), default="avg")

    p = sub.add_parser("inspect", help="pretty-print a graph and its embedding footprint")
    common(p, seed=False)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--graph-id", default=None, help="default: first record")

    return parser


def _cmd_gen_corpus(args) -> int:
    cfg = SynthConfig(
        n_benign=args.n_benign,
        n_malware=args.n_malware,
        node_count_min=args.node_min,
        node_count_max=args.node_max,
        seed=args.seed,
    )
    corpus, pool = generate_corpus(cfg)
    write_corpus(corpus, args.out)
    pool_path = args.pool_out or f"{args.out}.pool"
    write_benign_pool(pool, pool_path)
    manifest_path = args.manifest_out or f"{args.out}.manifest"
    write_manifest(cfg, manifest_path, {"corpus_sha256": _file_digest(args.out), "tool_version": __version__})
    if args.split:
        sizes = [int(s) for s in args.split]
        for name, part in zip(_split_names(len(sizes)), split_corpus(corpus, sizes)):
            write_corpus(part, f"{args.out}.{name}")
    print(f"wrote {len(corpus)} graphs to {args.out}")
    return EXIT_OK


def _split_names(count: int):
    base = ["train", "val", "test"]
    return base[:count] + [f"part{i}" for i in range(len(base), count)]


def _cmd_build_vocab(args) -> int:
    corpus = read_corpus(args.corpus, strict=args.strict)
    vocab = build_vocabulary(corpus, k_api=args.k_api, k_str=args.k_str, prefilter_per_kind=args.prefilter)
    write_vocabulary(vocab, args.out)
    shortfall = ""
    if vocab.api_shortfall or vocab.string_shortfall:
        shortfall = f" (shortfall: {vocab.api_shortfall} api, {vocab.string_shortfall} string)"
    print(f"wrote vocabulary of {vocab.size} tokens to {args.out}{shortfall}")
    return EXIT_OK


def _cmd_train(args) -> int:
    train_corpus = read_corpus(args.corpus, strict=args.strict)
    val_corpus = read_corpus(args.val, strict=args.strict)
    vocab = read_vocabulary(args.vocab)

    adversarial = None
    if args.adv_train > 0:
        if args.pool:
            pool = read_benign_pool(args.pool)
        else:
            pool = derive_benign_pool(train_corpus)
        adversarial = AdvTrainConfig(count=args.adv_train, pool=pool, attack=AttackConfig(seed=args.seed))

    cfg = TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        patience=args.patience,
        max_epochs=args.epochs,
        h1=args.h1,
        h2=args.h2,
        hg=args.hg,
        readout=args.readout,
        seed=args.seed,
        nonneg_gcn=args.nonneg_gcn,
        nonneg_gclf=args.nonneg_gclf,
        adversarial_training=adversarial,
        projection_cadence=args.projection,
    )
    model, report = train(train_corpus, val_corpus, vocab, cfg)
    save_model(model, args.model, vocab)
    if args.out:
        meta = {
            "tool_version": __version__,
            "seed": args.seed,
            "train_sha256": _file_digest(args.corpus),
            "val_sha256": _file_digest(args.val),
            "vocab_sha256": _file_digest(args.vocab),
        }
        write_train_report(report, args.out, meta)
    best = report.epochs[report.best_epoch - 1]
    print(
        f"trained {len(report.epochs)} epochs ({report.stopping_reason}); "
        f"best epoch {report.best_epoch}: val_loss={best.val_loss:.4f} val_acc={best.val_acc:.4f}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    corpus = read_corpus(args.corpus, strict=args.strict)
    vocab = read_vocabulary(args.vocab)
    model = load_model(args.model, vocab)
    for g in corpus:
        if g.label is None:
            raise DataError(f"eval corpus: graph {g.graph_id} is unlabeled")
    scores = score_graphs(model, corpus.records, vocab, args.readout)
    labeled = [(s, 1 if g.label == LABEL_MALWARE else 0) for s, g in zip(scores, corpus.records)]
    report = compute_metrics(labeled)
    meta = {
        "tool_version": __version__,
        "corpus_sha256": _file_digest(args.corpus),
        "model_sha256": _file_digest(args.model),
        "vocab_sha256": _file_digest(args.vocab),
        "readout": args.readout,
    }
    write_metrics_report(report, args.out, meta)
    if args.roc_out:
        with open(args.roc_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(roc_csv_lines(report)) + "\n")
    auc_text = f"{report.auc:.6f}" if report.auc is not None else "absent"
    print(f"accuracy={report.accuracy:.4f} precision={report.precision:.4f} recall={report.recall:.4f} f1={report.f1:.4f} auc={auc_text}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    cfg_kwargs = {"seed": args.seed, "trials_per_sample": args.trials}
    if args.overheads is not None:
        cfg_kwargs["overheads"] = args.overheads
    if args.modes is not None:
        cfg_kwargs["modes"] = args.modes
    try:
        cfg = AttackConfig(**cfg_kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    corpus = read_corpus(args.corpus, strict=args.strict)
    malware = [g for g in corpus if g.label == LABEL_MALWARE]
    skipped = len(corpus) - len(malware)
    if skipped:
        logger.warning("skipping %d non-malware records", skipped)
    vocab = read_vocabulary(args.vocab)
    model = load_model(args.model, vocab)
    pool = read_benign_pool(args.pool)
    try:
        report = attack_sweep(
            model,
            vocab,
            Corpus(tuple(malware), dict(corpus.provenance)),
            pool,
            cfg,
            readout=args.readout,
            reference_overhead=args.reference_overhead,
        )
    except ValueError as exc:  # attack_sweep checks its arguments before it attacks anything
        raise UsageError(str(exc)) from exc
    meta = {
        "tool_version": __version__,
        "seed": args.seed,
        "corpus_sha256": _file_digest(args.corpus),
        "model_sha256": _file_digest(args.model),
        "vocab_sha256": _file_digest(args.vocab),
        "pool_sha256": _file_digest(args.pool),
        "modes": ",".join(cfg.modes),
        "readout": args.readout,
    }
    write_attack_report(report, args.out, meta)
    print(
        f"attacked {report.n_samples} samples ({report.n_detected} originally detected); "
        f"robust accuracy at {report.reference_overhead:g}% overhead: "
        f"conditioned={report.robust_accuracy_conditioned:.4f} overall={report.robust_accuracy_overall:.4f}"
    )
    return EXIT_OK


def _cmd_check_monotone(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    corpus = read_corpus(args.corpus, strict=args.strict)
    vocab = read_vocabulary(args.vocab)
    model = load_model(args.model, vocab)
    negative = [name for name in GCN_WEIGHTS + GCLF_WEIGHTS if (getattr(model, name) < 0.0).any()]
    if negative:
        print(f"certificate: none; negative entries in {', '.join(negative)}")
    else:
        print(
            "certificate: w_gcn1, w_gcn2, w_hidden and w_out are non-negative, so for a fixed call graph the score is "
            "non-decreasing in every token count; adding functions changes the normalization and is not covered"
        )
    report = check_monotonicity(model, vocab, corpus, trials=args.trials, seed=args.seed, readout=args.readout)
    status = "informational" if report.informational else "enforced"
    print(
        f"{report.trials} trials, {len(report.violations)} violations ({status}); "
        f"max score drop {report.max_violation!r}, min input gradient {report.min_input_gradient!r}"
    )
    if report.violations and not report.informational:
        for v in report.violations[:5]:
            print(f"violation: graph {v.graph_id} trial {v.trial}: {v.score_before!r} -> {v.score_after!r}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_inspect(args) -> int:
    corpus = read_corpus(args.corpus, strict=args.strict)
    if len(corpus) == 0:
        raise DataError(f"{args.corpus}: empty corpus")
    if args.graph_id is None:
        g = corpus.records[0]
    else:
        match = [g for g in corpus if g.graph_id == args.graph_id]
        if not match:
            raise DataError(f"graph {args.graph_id} not found in {args.corpus}")
        g = match[0]
    g = normalize_fcg(g)
    print(f"graph {g.graph_id}: label={g.label} main={g.main_id} nodes={g.n_nodes} edges={len(g.edges)} tokens={g.total_token_count}")
    for node in g.nodes[:20]:
        print(f"  node {node.id}: {len(node.apis)} apis, {len(node.strings)} strings")
    if g.n_nodes > 20:
        print(f"  ... {g.n_nodes - 20} more nodes")
    if args.vocab:
        vocab = read_vocabulary(args.vocab)
        fm = embed_graph(g, vocab)
        in_vocab = int(fm.counts.sum())
        nonzero_rows = int((fm.counts.getnnz(axis=1) > 0).sum())  # CSR stores no zero counts
        print(f"embedding: d={fm.d}, {in_vocab} in-vocabulary token occurrences, {nonzero_rows}/{fm.n} nodes with features")
    return EXIT_OK


_COMMANDS = {
    "gen-corpus": _cmd_gen_corpus,
    "build-vocab": _cmd_build_vocab,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "attack": _cmd_attack,
    "check-monotone": _cmd_check_monotone,
    "inspect": _cmd_inspect,
}


def run(argv) -> int:
    logging.basicConfig(level=logging.WARNING, format="mal2gcn: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"mal2gcn: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if args.command is None:
        print("mal2gcn: usage error: a command is required (see --help)", file=sys.stderr)
        return EXIT_USAGE
    try:
        _check_no_overwrite(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"mal2gcn: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"mal2gcn: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"mal2gcn: data error: {exc.filename or exc}: no such file", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"mal2gcn: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
