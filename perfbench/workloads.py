"""The four benchmark workloads: set-up (inputs written to disk) and the measured region.

Every workload calls the program's public functions through their modules
(``fcg.read_corpus``, ``gcn.score_prepared``), so the traced run sees each
call; the untraced run calls the same functions unwrapped.

A measured region runs rounds of whole operations until ``--seconds`` are
used, and starts another round only when the median one so far still fits,
so a run measures about ``--seconds`` whatever the machine's speed.
"""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import math
import time
from pathlib import Path

from harness import median, tail
from mal2gcn import attack, cli, fcg, featurize, gcn, metrics, synth

train_mod = importlib.import_module("mal2gcn.train")

# corpus sizes per workload: (train, val, test) graphs.  `train` uses the
# paper-sized split: on a few hundred graphs the non-negative model saturates
# (every score 1.0) on many seeds and never leaves it.  The other workloads fit
# a model on their small train/val part in set-up; the `attack` one saturates
# on 6 of seeds 1-10, which changes no cost of attacking it.  The test part is
# their input.
SPLITS = {
    "train": (2000, 500, 135),
    "score": (90, 36, 270),
    "attack": (90, 36, 180),
    "large-graph": (90, 36, 135),
}
# Every corpus holds equal numbers of graphs of these node counts (log-spaced
# over the synthetic 5..200 range, mean 59), interleaved, so that each split
# and each prefix of a split has the same size mix on every seed.  An odd
# number of classes keeps the median and the 75th..99th percentiles of a
# per-graph latency inside a class rather than on a boundary between two.
SIZE_CLASSES = (5, 8, 13, 20, 32, 50, 79, 126, 200)
# ... except the attack corpus, whose graphs all have this many nodes: with the
# size mix, the median attack sample was one of the six graphs of the middle
# class, and their content alone moved that median by 15% between seeds.
ATTACK_NODES = 50
TRAIN_EPOCHS = 2  # patience = epochs, so early stopping never shortens a fit
SETUP_MODEL_EPOCHS = 2
# The workload seed makes the inputs only; every seed the program itself takes
# (weight initialisation, attack draws) is the CLI's default `--seed 0`, so a
# seed changes the data a user brings and not how the program is configured.
PROGRAM_SEED = 0
TEST_AUC_FLOOR = 0.9
MIN_STREAM_SAMPLES = 1000  # enough for a p99 with ten samples beyond it
# streamed graphs between two bulk evals.  With 200 a run streamed 1000-1400, p99
# had 10-14 samples beyond it, and a slow stretch of the machine lifted it by
# half; with 600 a run held only 2-3 bulk evals, whose median spread widely.
STREAM_PER_ROUND = 400
AUDIT_GRAPHS = 9  # graphs per check_monotonicity call, and attack samples between two calls
AUDIT_TRIALS = 270  # trials per check_monotonicity call: ~30 per graph, so a call's cost varies little
# rounds of AUDIT_GRAPHS attack samples and one audit: at least 45 samples keep
# the attack latency tail at p75 (p90 would take 100)
MIN_ATTACK_ROUNDS = 5
LARGE_SIZES = (2000, 3000, 4000)  # nodes; the dense n x n path keeps peak RSS near 400 MB


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _nonneg_config(epochs: int):
    return train_mod.TrainConfig(
        max_epochs=epochs, patience=epochs, seed=PROGRAM_SEED, nonneg_gcn=True, nonneg_gclf=True
    )


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _merge_graphs(graph_id: str, parts, n_nodes: int) -> fcg.Fcg:
    """One call graph of exactly n_nodes nodes: synthetic graphs joined under the first main."""
    nodes, edges = [], []
    label = fcg.LABEL_BENIGN
    for k, g in enumerate(itertools.cycle(parts)):
        prefix = f"m{k:03d}."
        nodes.extend(fcg.FunctionNode(prefix + n.id, n.apis, n.strings) for n in g.nodes)
        edges.extend((prefix + a, prefix + b) for a, b in g.edges)
        if k:
            edges.append(("m000." + parts[0].main_id, prefix + g.main_id))
        if g.label == fcg.LABEL_MALWARE:
            label = fcg.LABEL_MALWARE
        if len(nodes) >= n_nodes:
            break
    nodes = nodes[:n_nodes]
    kept = {n.id for n in nodes}
    edges = [(a, b) for a, b in edges if a in kept and b in kept]
    return fcg.Fcg(graph_id, label, "m000." + parts[0].main_id, tuple(nodes), tuple(edges))


def _corpus(n_graphs: int, seed: int, sizes=SIZE_CLASSES):
    """n_graphs (or a few more) graphs, half malware, cycling through `sizes`, and the benign pool."""
    per_label = math.ceil(n_graphs / len(sizes) / 2)
    parts = []
    for i, size in enumerate(sizes):
        cfg = synth.SynthConfig(
            n_benign=per_label, n_malware=per_label, node_count_min=size, node_count_max=size,
            seed=seed * len(sizes) + i,
        )
        corpus, pool = synth.generate_corpus(cfg)
        parts.append([dataclasses.replace(g, graph_id=f"{g.graph_id}_n{size}") for g in corpus])
    records = [part[j] for j in range(2 * per_label) for part in parts]
    return fcg.Corpus(tuple(records), {"source": "synth", "seed": str(seed)}), pool


def setup(workload: str, work: Path, seed: int) -> None:
    """Generate the workload's inputs from `seed` and write them under `work`."""
    n_train, n_val, n_test = SPLITS[workload]
    sizes = (ATTACK_NODES,) if workload == "attack" else SIZE_CLASSES
    corpus, pool = _corpus(n_train + n_val + n_test, seed, sizes)
    tr, va, te = synth.split_corpus(corpus, (n_train, n_val, n_test))
    for name, part in (("train", tr), ("val", va), ("test", te)):
        fcg.write_corpus(part, work / f"{name}.jsonl")
    if workload == "train":
        return
    vocab = featurize.build_vocabulary(tr)
    featurize.write_vocabulary(vocab, work / "vocab.tsv")
    model, _ = train_mod.train(tr, va, vocab, _nonneg_config(SETUP_MODEL_EPOCHS))
    gcn.save_model(model, work / "model.txt", vocab)
    if workload == "attack":
        attack.write_benign_pool(pool, work / "pool.txt")
    if workload == "large-graph":
        records = te.records
        large = []
        for i, n_nodes in enumerate(LARGE_SIZES):
            start = (i * len(records)) // len(LARGE_SIZES)
            large.append(_merge_graphs(f"large_{i}_{n_nodes}", records[start:] + records[:start], n_nodes))
        fcg.write_corpus(fcg.Corpus(tuple(large)), work / "large.jsonl")


# ---------------------------------------------------------------------------
# measured regions
# ---------------------------------------------------------------------------


class Run:
    """What a measured region needs: inputs, time budget, failure tally, span factory."""

    def __init__(self, work: Path, seconds: float, tally, tracer=None):
        self.work = work
        self.seconds = seconds
        self.tally = tally
        self.tracer = tracer
        self.span = tracer.span if tracer else lambda name: contextlib.nullcontext()
        self.measured_s = 0.0
        self.named: dict[str, tuple[float, str]] = {}  # metric name -> (value, unit)

    def _phase(self, phase: str) -> None:
        if self.tracer:
            self.tracer.phase = phase

    def repeat(self, body, minimum: int = 1):
        """Call body() until the run's seconds are used; returns the per-call wall times.

        A workload with two phases runs a little of each in every call, so
        that both phases sample the machine over the whole run.
        """
        budget = self.seconds
        times: list[float] = []
        self._phase("measure")
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            body()
            times.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(times) >= minimum and elapsed + median(times) > budget:
                self.measured_s += elapsed
                self._phase("other")
                return times


def _fit(work: Path, tag: str):
    tr = fcg.read_corpus(work / "train.jsonl")
    va = fcg.read_corpus(work / "val.jsonl")
    vocab = featurize.build_vocabulary(tr)
    featurize.write_vocabulary(vocab, work / f"vocab.{tag}.tsv")
    t0 = time.perf_counter()
    model, report = train_mod.train(tr, va, vocab, _nonneg_config(TRAIN_EPOCHS))
    train_s = time.perf_counter() - t0
    gcn.save_model(model, work / f"model.{tag}.txt", vocab)
    return report, train_s, len(tr)


def measure_train(run: Run) -> dict:
    """Fit a fully non-negative model from corpus files to a saved model, repeatedly."""
    fits = []

    def one():
        tag = f"fit{len(fits)}"
        with run.span("bench.fit"):
            ok, result = run.tally.run("fit", _fit, run.work, tag)
        if ok:
            fits.append((tag, *result))

    wall = run.repeat(one)
    graph_epochs = sum(n * len(report.epochs) for _, report, _, n in fits)
    train_s = sum(t for _, _, t, _ in fits)
    run.named["fit_s"] = (median(wall), "s")
    run.named["train_graphs_per_s"] = (graph_epochs / train_s if train_s else 0.0, "1/s")
    if fits:
        report = fits[0][1]
        run.named["best_val_loss"] = (report.epochs[report.best_epoch - 1].val_loss, "loss")
        _check_fit(run, fits)
    return {"work_per_s": run.named["train_graphs_per_s"][0], "latency_s": wall}


def _check_fit(run: Run, fits) -> None:
    tag = fits[0][0]
    tally = run.tally
    tally.check("fits_identical", len({_digest(run.work / f"model.{t}.txt") for t, *_ in fits}) == 1,
                "repeated fits of the same inputs saved different models")
    vocab = featurize.read_vocabulary(run.work / f"vocab.{tag}.tsv")
    ok, model = tally.run("reload", gcn.load_model, run.work / f"model.{tag}.txt", vocab)
    if not ok:
        return
    governed = model.governed_names()
    tally.check("governed_nonnegative",
                len(governed) == 4 and all(float(getattr(model, n).min()) >= 0.0 for n in governed),
                f"governed weights {governed} are not all >= 0")
    test = fcg.read_corpus(run.work / "test.jsonl")
    scores = [float(gcn.score_prepared(model, [gcn.prepare_fcg(fcg.normalize_fcg(g), vocab)])[0]) for g in test]
    report = metrics.compute_metrics(
        [(s, int(g.label == fcg.LABEL_MALWARE)) for s, g in zip(scores, test.records)]
    )
    tally.check("test_auc", report.auc is not None and report.auc >= TEST_AUC_FLOOR,
                f"test AUC {report.auc} below {TEST_AUC_FLOOR}")


def _report_fields(path: Path) -> dict:
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split("\t")
        if len(parts) == 2:
            fields[parts[0]] = parts[1]
    return fields


def measure_score(run: Run) -> dict:
    """One closed-loop client scoring raw JSON lines, alternating with bulk `eval` through the CLI."""
    test_path, vocab_path, model_path = run.work / "test.jsonl", run.work / "vocab.tsv", run.work / "model.txt"
    lines = [line for line in test_path.read_text(encoding="utf-8").splitlines() if line]
    vocab = featurize.read_vocabulary(vocab_path)
    model = gcn.load_model(model_path, vocab)
    stream: list[tuple[float, str | None]] = []  # (score, label) per streamed graph

    def score_line(line: str):
        g = fcg.normalize_fcg(fcg.record_to_fcg(json.loads(line)))
        return float(gcn.score_prepared(model, [gcn.prepare_fcg(g, vocab)])[0]), g.label

    latency: list[float] = []
    reports: list[Path] = []
    bulk: list[float] = []

    def one_round():
        for _ in range(STREAM_PER_ROUND):
            line = lines[len(stream) % len(lines)]
            t0 = time.perf_counter()
            with run.span("bench.stream_graph"):
                ok, result = run.tally.run("graph", score_line, line)
            latency.append(time.perf_counter() - t0)
            stream.append(result if ok else (math.nan, None))
        out = run.work / f"eval{len(bulk)}.txt"
        argv = ["eval", "--corpus", str(test_path), "--vocab", str(vocab_path), "--model", str(model_path),
                "--out", str(out)]
        t0 = time.perf_counter()
        with run.span("bench.bulk_eval"), contextlib.redirect_stdout(io.StringIO()):
            ok, code = run.tally.run("eval", cli.run, argv)
        bulk.append(time.perf_counter() - t0)
        if ok and run.tally.check("eval_exit", code == 0, f"eval exited {code}"):
            reports.append(out)

    run.repeat(one_round, minimum=math.ceil(MIN_STREAM_SAMPLES / STREAM_PER_ROUND))
    eval_rate = len(lines) / median(bulk)
    p_label, p_tail = tail(latency)
    run.named["score_ms_p50"] = (1000.0 * median(latency), "ms")
    run.named[f"score_ms_{p_label}"] = (1000.0 * p_tail, "ms")
    run.named["stream_samples"] = (len(latency), "count")
    run.named["eval_graphs_per_s"] = (eval_rate, "1/s")

    first_pass = stream[: len(lines)]
    if reports and all(label is not None for _, label in first_pass):
        mine = metrics.compute_metrics([(s, int(label == fcg.LABEL_MALWARE)) for s, label in first_pass])
        theirs = _report_fields(reports[0])
        run.tally.check("stream_matches_eval",
                        theirs.get("accuracy") == repr(mine.accuracy) and theirs.get("auc") == repr(mine.auc),
                        f"stream accuracy/auc {mine.accuracy!r}/{mine.auc!r} != eval "
                        f"{theirs.get('accuracy')}/{theirs.get('auc')}")
    run.tally.check("eval_reports_identical", len(reports) >= 2 and len({_digest(p) for p in reports}) == 1,
                    "bulk eval reports of the same inputs differ")
    return {"work_per_s": eval_rate, "latency_s": latency}


def measure_attack(run: Run) -> dict:
    """attack_sweep over malware samples (12 overheads, each mode), alternating with monotonicity audits."""
    vocab = featurize.read_vocabulary(run.work / "vocab.tsv")
    model = gcn.load_model(run.work / "model.txt", vocab)
    pool = attack.read_benign_pool(run.work / "pool.txt")
    malware = [g for g in fcg.read_corpus(run.work / "test.jsonl") if g.label == fcg.LABEL_MALWARE]
    configs = {mode: attack.AttackConfig(modes=(mode,), seed=PROGRAM_SEED) for mode in attack.MODES}
    sweep: list[float] = []
    audit: list[float] = []

    def one_sample():
        g = malware[len(sweep) % len(malware)]
        sample = fcg.Corpus((g,))
        t0 = time.perf_counter()
        with run.span("bench.attack_sample"):
            ok, reports = run.tally.run(
                "sample", lambda: {m: attack.attack_sweep(model, vocab, sample, pool, c) for m, c in configs.items()}
            )
        sweep.append(time.perf_counter() - t0)
        if ok:
            evasions = sum(s.n_evaded for s in reports["inject_existing"].summary)
            run.tally.check("no_inject_existing_evasion", evasions == 0,
                            f"{g.graph_id}: {evasions} inject_existing evasions of a non-negative model")

    def one_audit():
        k = len(audit) * AUDIT_GRAPHS
        chunk = fcg.Corpus(tuple(malware[(k + i) % len(malware)] for i in range(AUDIT_GRAPHS)))
        t0 = time.perf_counter()
        with run.span("bench.audit"):
            ok, report = run.tally.run(
                "audit", attack.check_monotonicity, model, vocab, chunk, trials=AUDIT_TRIALS, seed=PROGRAM_SEED + len(audit)
            )
        audit.append(time.perf_counter() - t0)
        if ok:
            run.tally.check("no_monotonicity_violation", report.ok and not report.informational,
                            f"{len(report.violations)} violations (informational={report.informational})")

    def one_round():
        for _ in range(AUDIT_GRAPHS):
            one_sample()
        one_audit()

    run.repeat(one_round, minimum=MIN_ATTACK_ROUNDS)
    audit_rate = AUDIT_TRIALS * len(audit) / sum(audit)
    run.named["attack_samples_per_s"] = (len(sweep) / sum(sweep), "1/s")
    run.named["attack_sample_ms_p50"] = (1000.0 * median(sweep), "ms")
    run.named["audit_trials_per_s"] = (audit_rate, "1/s")
    return {"work_per_s": audit_rate, "latency_s": sweep}


def measure_large(run: Run) -> dict:
    """Score call graphs of thousands of nodes, each from its raw JSON line; one pass scores each once."""
    vocab = featurize.read_vocabulary(run.work / "vocab.tsv")
    model = gcn.load_model(run.work / "model.txt", vocab)
    lines = [line for line in (run.work / "large.jsonl").read_text(encoding="utf-8").splitlines() if line]
    nodes = []

    def score_line(line: str):
        g = fcg.normalize_fcg(fcg.record_to_fcg(json.loads(line)))
        return g.n_nodes, float(gcn.score_prepared(model, [gcn.prepare_fcg(g, vocab)])[0])

    def one_pass():
        for line in lines:
            with run.span("bench.large_graph"):
                ok, result = run.tally.run("large_graph", score_line, line)
            if ok:
                n_nodes, score = result
                nodes.append(n_nodes)
                run.tally.check("score_in_unit_interval", math.isfinite(score) and 0.0 <= score <= 1.0,
                                f"score {score!r} of a {n_nodes}-node graph")

    wall = run.repeat(one_pass)
    rate = sum(nodes) / sum(wall)
    run.named["large_nodes_per_s"] = (rate, "1/s")
    return {"work_per_s": rate, "latency_s": wall}


MEASURE = {"train": measure_train, "score": measure_score, "attack": measure_attack, "large-graph": measure_large}
