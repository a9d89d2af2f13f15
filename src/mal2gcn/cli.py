"""Command-line surface: corpus generation, vocabulary building, training,
evaluation, attack sweeps, monotonicity audits, and graph inspection.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data error,
3 check failure (e.g. monotonicity violations found).
"""

import argparse
import errno
import hashlib
import logging
import sys
from pathlib import Path

from . import __version__
from .attack import (
    AttackConfig,
    attack_sweep,
    check_monotonicity,
    derive_benign_pool,
    generate_training_adversaries,
    read_benign_pool,
    write_attack_report,
    write_benign_pool,
)
from .fcg import Corpus, DataError, LABEL_MALWARE, normalize_fcg, read_corpus, write_corpus, write_lines
from .featurize import build_vocabulary, embed_graph, read_vocabulary, write_vocabulary
from .gcn import GCLF_WEIGHTS, GCN_WEIGHTS, READOUTS, load_model, save_model, score_graphs
from .metrics import compute_metrics, roc_csv_lines, write_metrics_report
from .synth import SynthConfig, generate_corpus, split_corpus, write_manifest
from .train import TrainConfig, train, write_train_report

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


def _parse_count(text: str) -> int:
    try:
        if (count := int(text)) >= 0:
            return count
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _parse_csv_floats(text: str):
    try:
        return tuple(float(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_csv_counts(text: str):
    return tuple(_parse_count(part) for part in text.split(",") if part != "")


def _parse_csv_names(text: str):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_no_overwrite(args) -> None:
    """Refuse, before any input is read, an output path that would clobber one of this
    invocation's inputs or another of its outputs, however it is spelled, or that lies
    in a missing directory."""
    inputs = {
        Path(getattr(args, name)).resolve()
        for name in ("corpus", "val", "vocab", "pool")
        if getattr(args, name, None)
    }
    if args.command in ("eval", "attack", "check-monotone", "inspect") and getattr(args, "model", None):
        inputs.add(Path(args.model).resolve())
    outputs = [str(value) for name in ("out", "roc_out") if (value := getattr(args, name, None))]
    if args.command == "train":
        outputs.append(args.model)
    if args.command == "gen-corpus":
        pool_path, manifest_path, part_paths = _gen_corpus_paths(args)
        outputs += [pool_path, manifest_path, *part_paths]
    seen = {}
    for out in outputs:
        path = Path(out).resolve()
        if path in inputs:
            raise UsageError(f"output path {out} would overwrite an input")
        if path in seen:
            raise UsageError(f"output paths {seen[path]} and {out} name the same file")
        seen[path] = out
        if not Path(out).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "no such directory", out)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mal2gcn", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mal2gcn {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, *, seed=True, strict=True):
        if seed:
            p.add_argument("--seed", type=_parse_count, default=0)
        if strict:
            p.add_argument("--strict", action="store_true", help="reject unknown interchange fields")

    p = sub.add_parser("gen-corpus", help="generate a synthetic labeled corpus")
    common(p, strict=False)
    p.add_argument("--out", required=True, help="corpus output path")
    p.add_argument("--n-benign", type=int, default=SynthConfig.n_benign)
    p.add_argument("--n-malware", type=int, default=SynthConfig.n_malware)
    p.add_argument("--node-min", type=int, default=SynthConfig.node_count_min)
    p.add_argument("--node-max", type=int, default=SynthConfig.node_count_max)
    p.add_argument("--split", type=_parse_csv_counts, default=None, help="e.g. 2000,500,500 writes .train/.val/.test files")
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
    p.add_argument("--nonneg-gcn", type=_parse_bool, default=TrainConfig.nonneg_gcn)
    p.add_argument("--nonneg-gclf", type=_parse_bool, default=TrainConfig.nonneg_gclf)
    p.add_argument("--adv-train", type=_parse_count, default=0, metavar="COUNT", help="add COUNT attack-generated malware graphs to the training corpus")
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--readout", choices=READOUTS, default=TrainConfig.readout, help="stored in the model file")
    p.add_argument("--h1", type=int, default=TrainConfig.h1)
    p.add_argument("--h2", type=int, default=TrainConfig.h2)
    p.add_argument("--hg", type=int, default=TrainConfig.hg)

    p = sub.add_parser("eval", help="score a labeled corpus and write a metrics report")
    common(p, seed=False)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--roc-out", default=None, help="optional standalone ROC CSV")

    p = sub.add_parser("attack", help="run the overhead sweep against malware samples")
    common(p)
    p.add_argument("--corpus", required=True, help="corpus; non-malware records are skipped")
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--overheads", type=_parse_csv_floats, default=AttackConfig.overheads)
    p.add_argument("--modes", type=_parse_csv_names, default=AttackConfig.modes)
    p.add_argument("--trials", type=int, default=AttackConfig.trials_per_sample)

    p = sub.add_parser("check-monotone", help="audit monotonicity on a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--trials", type=int, default=1000)

    p = sub.add_parser("inspect", help="pretty-print a graph and its embedding footprint")
    common(p, seed=False)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--graph-id", default=None, help="default: first record")

    return parser


def _cmd_gen_corpus(args) -> int:
    try:
        cfg = SynthConfig(
            n_benign=args.n_benign,
            n_malware=args.n_malware,
            node_count_min=args.node_min,
            node_count_max=args.node_max,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.split and sum(args.split) > args.n_benign + args.n_malware:
        raise UsageError(f"--split sizes sum to {sum(args.split)} but the corpus has {args.n_benign + args.n_malware} graphs")
    corpus, pool = generate_corpus(cfg)
    pool_path, manifest_path, part_paths = _gen_corpus_paths(args)
    write_corpus(corpus, args.out)
    write_benign_pool(pool, pool_path)
    write_manifest(cfg, manifest_path, {"corpus_sha256": _file_digest(args.out), "tool_version": __version__})
    if args.split:
        for path, part in zip(part_paths, split_corpus(corpus, args.split)):
            write_corpus(part, path)
    print(f"wrote {len(corpus)} graphs to {args.out}")
    return EXIT_OK


def _gen_corpus_paths(args) -> tuple[str, str, list[str]]:
    """The pool, manifest and --split part paths gen-corpus writes next to --out."""
    base = ["train", "val", "test"]
    count = len(args.split or ())
    names = base[:count] + [f"part{i}" for i in range(len(base), count)]
    parts = [f"{args.out}.{name}" for name in names]
    return args.pool_out or f"{args.out}.pool", args.manifest_out or f"{args.out}.manifest", parts


def _cmd_build_vocab(args) -> int:
    if min(args.k_api, args.k_str, args.prefilter) < 1:
        raise UsageError("--k-api, --k-str and --prefilter must be at least 1")
    corpus = read_corpus(args.corpus, strict=args.strict)
    vocab = build_vocabulary(corpus, k_api=args.k_api, k_str=args.k_str, prefilter_per_kind=args.prefilter)
    write_vocabulary(vocab, args.out)
    shortfall = ""
    if vocab.api_shortfall or vocab.string_shortfall:
        shortfall = f" (shortfall: {vocab.api_shortfall} api, {vocab.string_shortfall} string)"
    print(f"wrote vocabulary of {vocab.size} tokens to {args.out}{shortfall}")
    return EXIT_OK


def _cmd_train(args) -> int:
    try:
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
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    train_corpus = read_corpus(args.corpus, strict=args.strict)
    val_corpus = read_corpus(args.val, strict=args.strict)
    vocab = read_vocabulary(args.vocab)

    adversaries, adversarial = [], ""
    if args.adv_train:
        pool = derive_benign_pool(train_corpus)
        adversaries = generate_training_adversaries(
            train_corpus.records, vocab, pool, AttackConfig(seed=args.seed), args.adv_train, seed=args.seed
        )
        adversarial = f"; added {len(adversaries)} adversarial graphs drawn from a derived pool of {pool.size} benign tokens"

    model, report = train(train_corpus, val_corpus, vocab, cfg, adversaries)
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
        f"best epoch {report.best_epoch}: val_loss={best.val_loss:.4f} val_acc={best.val_acc:.4f}{adversarial}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    corpus = read_corpus(args.corpus, strict=args.strict)
    if len(corpus) == 0:
        raise DataError(f"{args.corpus}: empty corpus")
    vocab = read_vocabulary(args.vocab)
    model = load_model(args.model, vocab)
    for g in corpus:
        if g.label is None:
            raise DataError(f"eval corpus: graph {g.graph_id} is unlabeled")
    scores = score_graphs(model, corpus.records, vocab)
    labeled = [(s, 1 if g.label == LABEL_MALWARE else 0) for s, g in zip(scores, corpus.records)]
    report = compute_metrics(labeled)
    meta = {
        "tool_version": __version__,
        "corpus_sha256": _file_digest(args.corpus),
        "model_sha256": _file_digest(args.model),
        "vocab_sha256": _file_digest(args.vocab),
        "readout": model.readout,
    }
    write_metrics_report(report, args.out, meta)
    if args.roc_out:
        write_lines(args.roc_out, roc_csv_lines(report))
    auc_text = f"{report.auc:.6f}" if report.auc is not None else "absent"
    print(f"accuracy={report.accuracy:.4f} precision={report.precision:.4f} recall={report.recall:.4f} f1={report.f1:.4f} auc={auc_text}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    try:
        cfg = AttackConfig(overheads=args.overheads, modes=args.modes, seed=args.seed, trials_per_sample=args.trials)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    corpus = read_corpus(args.corpus, strict=args.strict)
    malware = [g for g in corpus if g.label == LABEL_MALWARE]
    if not malware:
        raise DataError(f"{args.corpus}: no malware records to attack")
    skipped = len(corpus) - len(malware)
    if skipped:
        logger.warning("skipping %d non-malware records", skipped)
    vocab = read_vocabulary(args.vocab)
    model = load_model(args.model, vocab)
    pool = read_benign_pool(args.pool)
    report = attack_sweep(model, vocab, Corpus(tuple(malware), dict(corpus.provenance)), pool, cfg)
    meta = {
        "tool_version": __version__,
        "seed": args.seed,
        "corpus_sha256": _file_digest(args.corpus),
        "model_sha256": _file_digest(args.model),
        "vocab_sha256": _file_digest(args.vocab),
        "pool_sha256": _file_digest(args.pool),
        "modes": ",".join(cfg.modes),
        "readout": model.readout,
    }
    write_attack_report(report, args.out, meta)
    headline = report.summary[-1]
    print(
        f"attacked {headline.n_samples} samples ({headline.n_detected} originally detected); "
        f"robust accuracy at {headline.overhead_pct:g}% overhead: "
        f"conditioned={headline.robust_acc_conditioned:.4f} overall={headline.robust_acc_overall:.4f}"
    )
    return EXIT_OK


def _cmd_check_monotone(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    corpus = read_corpus(args.corpus, strict=args.strict)
    vocab = read_vocabulary(args.vocab)
    model = load_model(args.model, vocab)
    report = check_monotonicity(model, vocab, corpus, trials=args.trials, seed=args.seed)
    negative = [name for name in GCN_WEIGHTS + GCLF_WEIGHTS if (getattr(model, name) < 0.0).any()]
    if negative:
        print(f"certificate: none; negative entries in {', '.join(negative)}")
    else:
        print(
            "certificate: w_gcn1, w_gcn2, w_hidden and w_out are non-negative, so for a fixed call graph the score is "
            "non-decreasing in every token count; adding functions changes the normalization and is not covered"
        )
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
