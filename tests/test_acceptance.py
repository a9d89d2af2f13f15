"""End-to-end acceptance criteria at desk scale.

Each test prints one [acceptance] PASS/FAIL line.  The expensive pieces
(synthetic corpora and trained models) are built lazily and shared across
criteria; per-model training time is recorded so the runtime budgets apply to
each training run rather than to fixture reuse.

Trainings here cap max_epochs at 15: validation accuracy saturates within the
first few epochs (well inside the 100-epoch allowance) and the cap keeps every
run inside its stated runtime budget on a small machine.
"""

import hashlib
import time
from dataclasses import replace

import numpy as np

from mal2gcn.attack import AttackConfig, attack_sweep
from mal2gcn.cli import EXIT_OK, run
from mal2gcn.fcg import Corpus, LABEL_MALWARE
from mal2gcn.featurize import build_vocabulary, embed_graph
from mal2gcn.gcn import (
    batch_loss_and_gradients,
    build_normalized_adjacency,
    forward,
    input_gradient,
    prepare_graph,
)
from mal2gcn.metrics import compute_metrics
from mal2gcn.synth import SynthConfig, generate_corpus, split_corpus
from mal2gcn.train import TrainConfig, train

from conftest import (
    adjacency_array,
    brute_force_normalized_adjacency,
    fd_param_grads,
    make_safe_instance,
    random_params,
    rel_err,
)

SPLIT = (2000, 500, 500)
ACCEPT_MAX_EPOCHS = 15
VARIANTS = {"nonneg": (True, True), "gcnonly": (True, False), "plain": (False, False)}

_corpora: dict = {}
_models: dict = {}


def corpus_bundle(seed):
    if seed not in _corpora:
        corpus, pool = generate_corpus(SynthConfig(seed=seed))
        tr, va, te = split_corpus(corpus, SPLIT)
        vocab = build_vocabulary(tr)
        malware = Corpus(tuple(g for g in te if g.label == LABEL_MALWARE))
        _corpora[seed] = (tr, va, te, malware, vocab, pool)
    return _corpora[seed]


def trained(seed, variant):
    key = (seed, variant)
    if key not in _models:
        tr, va, _, _, vocab, _ = corpus_bundle(seed)
        nonneg_gcn, nonneg_gclf = VARIANTS[variant]
        cfg = TrainConfig(
            seed=seed, nonneg_gcn=nonneg_gcn, nonneg_gclf=nonneg_gclf, max_epochs=ACCEPT_MAX_EPOCHS
        )
        start = time.perf_counter()
        model, report = train(tr, va, vocab, cfg)
        _models[key] = (model, report, time.perf_counter() - start)
    return _models[key]


def verdict(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def test_c1_monotonicity_randomized_trials():
    """Score never drops under non-negative integer feature additions; gradients stay >= 0."""
    start = time.perf_counter()
    cfg = SynthConfig(
        n_benign=60, n_malware=60, node_count_min=3, node_count_max=25,
        n_benign_apis=40, n_benign_strings=40, n_malicious_apis=40, n_malicious_strings=40,
        n_shared_apis=20, n_shared_strings=20, seed=4242,
    )
    corpus, _ = generate_corpus(cfg)
    vocab = build_vocabulary(corpus, k_api=30, k_str=30)
    graphs = []
    for g in corpus.records:
        adj, x = build_normalized_adjacency(g), embed_graph(g, vocab).counts.toarray()
        graphs.append((adj, x, prepare_graph(adj, x)))

    rng = np.random.default_rng(1)
    violations = 0
    min_gradient = np.inf
    for trial in range(1000):
        h1, h2, hg = (int(rng.integers(2, 9)) for _ in range(3))
        model = random_params(rng, vocab.size, h1, h2, hg, nonneg=True)
        adj, x, pg = graphs[int(rng.integers(len(graphs)))]
        delta = np.zeros_like(x)
        edits = int(rng.integers(1, 16))
        rows = rng.integers(x.shape[0], size=edits)
        cols = rng.integers(x.shape[1], size=edits)
        np.add.at(delta, (rows, cols), rng.integers(1, 4, size=edits))
        pg_after = prepare_graph(adj, x + delta)
        for readout in ("avg", "sum", "max"):
            model = replace(model, readout=readout)
            before, _ = forward(model, pg)
            after, _ = forward(model, pg_after)
            if after < before - 1e-9:
                violations += 1
            min_gradient = min(min_gradient, float(input_gradient(model, pg).min()))
    elapsed = time.perf_counter() - start

    ok = violations == 0 and min_gradient >= -1e-12 and elapsed < 60
    assert verdict(
        "criterion 1 monotonicity trials", ok,
        f"violations={violations}, min input gradient={min_gradient:.3e}, {elapsed:.1f}s",
    )


def test_c2_exact_robustness_fixed_topology():
    """A fully non-negative model is never evaded by token injection into existing nodes."""
    start = time.perf_counter()
    model, _, _ = trained(42, "nonneg")
    _, _, _, malware, vocab, pool = corpus_bundle(42)
    cfg = AttackConfig(modes=("inject_existing",), seed=7)
    report = attack_sweep(model, vocab, malware, pool, cfg)
    elapsed = time.perf_counter() - start

    evasions = [s.n_evaded for s in report.summary]
    headline = report.summary[-1]
    ok = headline.n_detected > 0 and all(e == 0 for e in evasions) and elapsed < 300
    assert verdict(
        "criterion 2 exact robustness", ok,
        f"detected {headline.n_detected}/{headline.n_samples}, evasions={evasions}, {elapsed:.0f}s",
    )


def test_c3_robust_accuracy_ordering():
    """Non-negative >= convolution-only >= unconstrained robustness at 200% overhead."""
    _, _, _, malware, vocab, pool = corpus_bundle(42)
    cfg = AttackConfig(overheads=(200.0,), seed=7)
    robust = {}
    for variant in VARIANTS:
        model, _, _ = trained(42, variant)
        report = attack_sweep(model, vocab, malware, pool, cfg)
        robust[variant] = report.summary[-1].robust_acc_conditioned

    ok = (
        robust["nonneg"] == 1.0
        and robust["nonneg"] >= robust["gcnonly"] >= robust["plain"]
    )
    assert verdict(
        "criterion 3 robustness ordering", ok,
        "conditioned robust acc: nonneg=%.4f gcnonly=%.4f plain=%.4f"
        % (robust["nonneg"], robust["gcnonly"], robust["plain"]),
    )


def test_c4_training_quality():
    """Accuracy floors hold for seeds 42/43/44 within the runtime budget per model."""
    results = []
    ok = True
    for seed in (42, 43, 44):
        for variant, floor in (("nonneg", 0.95), ("plain", 0.97)):
            _, report, seconds = trained(seed, variant)
            best = max(e.val_acc for e in report.epochs)
            results.append(f"{variant}@{seed}={best:.4f}/{seconds:.0f}s")
            ok = ok and best >= floor and seconds < 180
    assert verdict("criterion 4 training quality", ok, " ".join(results))


def test_c5_gradient_correctness():
    """Analytic gradients match central finite differences on 50 small instances."""
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        readout = ("avg", "sum", "max")[i % 3]
        model, adj, x, y = make_safe_instance(31_000 + i, readout)
        prepared, labels = [prepare_graph(adj, x)], [y]
        _, analytic, _ = batch_loss_and_gradients(model, prepared, labels)
        numeric = fd_param_grads(model, prepared, labels)
        for name in analytic:
            worst = max(worst, float(rel_err(analytic[name], numeric[name]).max()))

        grad = input_gradient(model, prepared[0])
        step = 1e-4
        for r in range(x.shape[0]):
            for c in range(x.shape[1]):
                x[r, c] += step
                up, _ = forward(model, prepare_graph(adj, x))
                x[r, c] -= 2 * step
                down, _ = forward(model, prepare_graph(adj, x))
                x[r, c] += step
                fd = (up - down) / (2 * step)
                worst = max(worst, float(rel_err(np.array(grad[r, c]), np.array(fd)).max()))
    elapsed = time.perf_counter() - start

    ok = worst < 1e-4 and elapsed < 30
    assert verdict(
        "criterion 5 gradient correctness", ok, f"max rel err={worst:.2e}, {elapsed:.1f}s"
    )


def test_c6_adjacency_oracle():
    """Normalization agrees with the explicit degree-matrix construction to 1e-12."""
    from mal2gcn.fcg import Fcg, FunctionNode

    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        pairs = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(int(rng.integers(0, 12)))]
        pairs = [(a, b) for a, b in pairs if a != b]
        ids = [f"n{i}" for i in range(n)]
        g = Fcg("g", None, ids[0], tuple(FunctionNode(i) for i in ids),
                tuple((ids[a], ids[b]) for a, b in pairs))
        mine = adjacency_array(build_normalized_adjacency(g))
        oracle = brute_force_normalized_adjacency(n, pairs)
        worst = max(worst, float(np.abs(mine - oracle).max()))

    ok = worst < 1e-12
    assert verdict("criterion 6 adjacency oracle", ok, f"max abs deviation={worst:.2e}")


def test_c7_auc_oracle():
    """Trapezoidal AUC equals brute-force pairwise concordance (ties count one half)."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(4, 200))
        scores = np.round(rng.random(size), 2)  # quantized to force ties
        labels = rng.integers(0, 2, size=size)
        labels[:2] = (0, 1)
        scored = list(zip(scores, labels))
        report = compute_metrics(scored)

        positives = scores[labels == 1]
        negatives = scores[labels == 0]
        wins = (positives[:, None] > negatives[None, :]).sum()
        ties = (positives[:, None] == negatives[None, :]).sum()
        concordance = (wins + 0.5 * ties) / (len(positives) * len(negatives))
        worst = max(worst, abs(report.auc - concordance))

    ok = worst < 1e-9
    assert verdict("criterion 7 auc oracle", ok, f"max deviation={worst:.2e}")


def test_c8_end_to_end_determinism(tmp_path):
    """Identical seeds and inputs give bitwise-identical corpora, vocabularies, models, reports."""

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    digests = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        corpus = base / "corpus.jsonl"
        vocab = base / "vocab.tsv"
        model = base / "model.txt"
        metrics = base / "metrics.txt"
        attack = base / "attack.tsv"
        assert run(["gen-corpus", "--out", str(corpus), "--seed", "5",
                    "--n-benign", "30", "--n-malware", "30",
                    "--node-min", "3", "--node-max", "12", "--split", "40,10,10"]) == EXIT_OK
        assert run(["build-vocab", "--corpus", str(corpus) + ".train", "--out", str(vocab),
                    "--k-api", "80", "--k-str", "80"]) == EXIT_OK
        assert run(["train", "--corpus", str(corpus) + ".train", "--val", str(corpus) + ".val",
                    "--vocab", str(vocab), "--model", str(model), "--seed", "5",
                    "--epochs", "4", "--h1", "16", "--h2", "8", "--hg", "4",
                    "--nonneg-gcn", "true", "--nonneg-gclf", "true"]) == EXIT_OK
        assert run(["eval", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
                    "--model", str(model), "--out", str(metrics)]) == EXIT_OK
        assert run(["attack", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
                    "--model", str(model), "--pool", str(corpus) + ".pool", "--out", str(attack),
                    "--overheads", "0,50,100", "--seed", "5"]) == EXIT_OK
        digests.append(tuple(sha(p) for p in (corpus, vocab, model, metrics, attack)))

    ok = digests[0] == digests[1]
    assert verdict("criterion 8 determinism", ok, "5 artifact digests compared")


def test_c9_projection_audit():
    """After constrained training every governed weight entry is >= 0, exactly."""
    checks = []
    ok = True
    for variant in ("nonneg", "gcnonly"):
        model, report, _ = trained(42, variant)
        for name in model.governed_names():
            low = float(getattr(model, name).min())
            checks.append(f"{variant}.{name}={low:.3e}")
            ok = ok and low >= 0.0
        ok = ok and report.audit_ok()
    assert verdict("criterion 9 projection audit", ok, " ".join(checks))
