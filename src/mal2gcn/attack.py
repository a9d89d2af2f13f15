"""Additive evasion attacks at graph level, overhead sweeps, and monotonicity audits.

The attacker can only add content: benign tokens appended to existing
functions (inject_existing) and never-executed functions wired in from an
existing caller (add_dead_nodes).  The attack budget is expressed as a
percentage of the victim graph's original token count.
"""

import hashlib
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .fcg import Corpus, DataError, Fcg, FormatError, FunctionNode, LABEL_MALWARE, normalize_fcg, read_lines
from .featurize import (
    KIND_API,
    KIND_STRING,
    Vocabulary,
    escape_token,
    normalize_token,
    unescape_token,
)
from .gcn import ModelParams, forward, input_gradient, prepare_fcg, score_graphs

DEFAULT_OVERHEADS = (0.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 100.0, 150.0, 200.0, 400.0, 500.0)
MODES = ("inject_existing", "add_dead_nodes")
TARGET_FRACTION = 0.5  # inject_existing appends to a random half of the functions
TOKENS_PER_DEAD_NODE = 20  # add_dead_nodes puts this many tokens in each new function

POOL_HEADER = "#mal2gcn-pool v1"
ATTACK_REPORT_HEADER = "#mal2gcn-attack v1"


@dataclass(frozen=True)
class BenignPool:
    """Benign-looking tokens an attacker draws injections from."""

    apis: tuple[str, ...]
    strings: tuple[str, ...]

    def __post_init__(self):
        if not self.apis and not self.strings:
            raise DataError("benign pool is empty")
        for token in self.apis:
            if normalize_token(token, KIND_API) != token:
                raise DataError(f"pool api token {token!r} is not normalized")
        for token in self.strings:
            if normalize_token(token, KIND_STRING) != token:
                raise DataError(f"pool string token {token!r} is not normalized")

    @property
    def size(self) -> int:
        return len(self.apis) + len(self.strings)


@dataclass(frozen=True)
class AttackConfig:
    overheads: tuple[float, ...] = DEFAULT_OVERHEADS
    modes: tuple[str, ...] = MODES
    seed: int = 0
    trials_per_sample: int = 1

    def __post_init__(self):
        if not self.modes or any(m not in MODES for m in self.modes):
            raise ValueError(f"modes must be a non-empty subset of {MODES}")
        if any(o < 0 for o in self.overheads) or list(self.overheads) != sorted(self.overheads):
            raise ValueError("overheads must be non-negative and ascending")
        if self.trials_per_sample < 1:
            raise ValueError("trials_per_sample must be >= 1")


@dataclass(frozen=True)
class Perturbation:
    """Pure additions: tokens appended to named nodes, plus attached dead nodes."""

    token_additions: dict  # node id -> (added api tokens, added string tokens)
    new_nodes: tuple[FunctionNode, ...] = ()
    attach_edges: tuple[tuple[str, str], ...] = ()  # (existing caller, new node)

    @property
    def is_empty(self) -> bool:
        return not self.token_additions and not self.new_nodes

    @property
    def added_token_count(self) -> int:
        existing = sum(len(a) + len(s) for a, s in self.token_additions.values())
        return existing + sum(node.token_count for node in self.new_nodes)


def _sample_rng_seed(seed: int, graph_id: str, trial: int) -> np.random.SeedSequence:
    digest = hashlib.sha256(graph_id.encode("utf-8")).digest()
    return np.random.SeedSequence([seed, trial, int.from_bytes(digest[:8], "big")])


def _draw_token(rng: np.random.Generator, pool: BenignPool):
    """Returns (kind, token) drawn uniformly from the combined pool."""
    idx = int(rng.integers(pool.size))
    if idx < len(pool.apis):
        return KIND_API, pool.apis[idx]
    return KIND_STRING, pool.strings[idx - len(pool.apis)]


def generate_attack(
    g: Fcg,
    pool: BenignPool,
    overhead_pct: float,
    modes=MODES,
    seed: int = 0,
    *,
    trial: int = 0,
) -> Perturbation:
    """Draw an additive perturbation with round(overhead_pct% of g's token count) tokens.

    inject_existing appends tokens to a random TARGET_FRACTION of the
    functions; add_dead_nodes packs them TOKENS_PER_DEAD_NODE to a new
    function, each called from a random existing one.

    Deterministic per (graph, seed, trial, modes).  Token/target draws use a
    dedicated substream per mode and are consumed in budget order, so for a
    fixed seed a larger budget extends a smaller one (nested perturbations).
    """
    if overhead_pct < 0:
        raise ValueError("overhead_pct must be >= 0")
    modes = tuple(modes)
    if not modes or any(m not in MODES for m in modes):
        raise ValueError(f"modes must be a non-empty subset of {MODES}")

    budget = int(round(overhead_pct / 100.0 * g.total_token_count))
    if budget == 0:
        return Perturbation(token_additions={})
    if pool.size == 0:
        raise DataError("cannot generate a positive-budget attack from an empty pool")

    if "inject_existing" in modes and "add_dead_nodes" in modes:
        budget_existing = budget // 2
        budget_dead = budget - budget_existing
    elif "inject_existing" in modes:
        budget_existing, budget_dead = budget, 0
    else:
        budget_existing, budget_dead = 0, budget

    ss_existing, ss_dead = _sample_rng_seed(seed, g.graph_id, trial).spawn(2)
    node_ids = g.node_ids()

    additions: dict[str, tuple[list, list]] = {}
    if budget_existing > 0:
        rng = np.random.default_rng(ss_existing)
        count = max(1, int(round(TARGET_FRACTION * len(node_ids))))
        targets = [node_ids[i] for i in rng.choice(len(node_ids), size=count, replace=False)]
        for _ in range(budget_existing):
            node_id = targets[int(rng.integers(len(targets)))]
            kind, token = _draw_token(rng, pool)
            apis, strings = additions.setdefault(node_id, ([], []))
            (apis if kind == KIND_API else strings).append(token)

    new_nodes: list[FunctionNode] = []
    attach_edges: list[tuple[str, str]] = []
    if budget_dead > 0:
        rng = np.random.default_rng(ss_dead)
        existing = set(node_ids)
        chunks: list[tuple[str, str, list, list]] = []  # (node id, caller, apis, strings)
        for i in range(budget_dead):
            chunk = i // TOKENS_PER_DEAD_NODE
            if chunk == len(chunks):
                node_id = f"dead{chunk:04d}"
                while node_id in existing:
                    node_id = "x" + node_id
                caller = node_ids[int(rng.integers(len(node_ids)))]
                chunks.append((node_id, caller, [], []))
            kind, token = _draw_token(rng, pool)
            (chunks[chunk][2] if kind == KIND_API else chunks[chunk][3]).append(token)
        for node_id, caller, apis, strings in chunks:
            new_nodes.append(FunctionNode(node_id, tuple(apis), tuple(strings)))
            attach_edges.append((caller, node_id))

    return Perturbation(
        token_additions={k: (tuple(a), tuple(s)) for k, (a, s) in additions.items()},
        new_nodes=tuple(new_nodes),
        attach_edges=tuple(attach_edges),
    )


def apply_perturbation(g: Fcg, p: Perturbation) -> Fcg:
    """Append tokens and attach dead nodes; the original graph is untouched."""
    ids = set(g.node_ids())
    for node_id in p.token_additions:
        if node_id not in ids:
            raise DataError(f"perturbation names unknown node {node_id}")
    for caller, _ in p.attach_edges:
        if caller not in ids:
            raise DataError(f"perturbation attaches from unknown node {caller}")

    nodes = []
    for node in g.nodes:
        if node.id in p.token_additions:
            add_apis, add_strings = p.token_additions[node.id]
            nodes.append(FunctionNode(node.id, node.apis + tuple(add_apis), node.strings + tuple(add_strings)))
        else:
            nodes.append(node)
    nodes.extend(p.new_nodes)
    return Fcg(g.graph_id, g.label, g.main_id, tuple(nodes), g.edges + tuple(p.attach_edges))


# ---------------------------------------------------------------------------
# Sweeps and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleOutcome:
    graph_id: str
    original_score: float
    adv_scores: dict  # overhead -> worst (lowest) adversarial score across trials
    evaded: dict  # overhead -> bool


@dataclass(frozen=True)
class OverheadSummary:
    overhead_pct: float
    n_samples: int
    n_detected: int
    n_evaded: int
    success_rate: float  # evasions / originally detected
    robust_acc_conditioned: float  # detected samples still scored >= 0.5
    robust_acc_overall: float  # all samples scored >= 0.5 after the attack


@dataclass(frozen=True)
class AttackReport:
    overheads: tuple[float, ...]
    samples: tuple[SampleOutcome, ...]
    summary: tuple[OverheadSummary, ...]
    reference_overhead: float
    robust_accuracy_conditioned: float
    robust_accuracy_overall: float
    n_samples: int
    n_detected: int


def _attack_one(g, model, vocab, pool, cfg: AttackConfig, readout: str) -> SampleOutcome:
    g = normalize_fcg(g)  # attack the graph as it is scored
    original = float(score_graphs(model, [g], vocab, readout)[0])
    detected = original >= 0.5
    adv_scores = {}
    evaded = {}
    for overhead in cfg.overheads:
        adversarial = [
            apply_perturbation(g, generate_attack(g, pool, overhead, modes=cfg.modes, seed=cfg.seed, trial=trial))
            for trial in range(cfg.trials_per_sample)
        ]
        worst = min(score_graphs(model, adversarial, vocab, readout).tolist())
        adv_scores[overhead] = worst
        evaded[overhead] = bool(detected and worst < 0.5)
    return SampleOutcome(g.graph_id, original, adv_scores, evaded)


def attack_sweep(
    model: ModelParams,
    vocab: Vocabulary,
    corpus: Corpus,
    pool: BenignPool,
    cfg: AttackConfig,
    readout: str = "avg",
    reference_overhead: float | None = None,
) -> AttackReport:
    """Attack every malware sample at every overhead and aggregate the outcome curve.

    Robust accuracy is reported two ways at the reference overhead (default:
    the largest in the schedule): conditioned on originally-detected samples,
    and over all samples.
    """
    for g in corpus:
        if g.label != LABEL_MALWARE:
            raise DataError(f"attack corpus must be all-malware; graph {g.graph_id} is {g.label}")
    if reference_overhead is None:
        reference_overhead = cfg.overheads[-1] if cfg.overheads else 0.0
    if cfg.overheads and reference_overhead not in cfg.overheads:
        raise ValueError("reference overhead must be one of the scheduled overheads")

    outcomes = [_attack_one(g, model, vocab, pool, cfg, readout) for g in corpus.records]

    n_samples = len(outcomes)
    n_detected = sum(1 for o in outcomes if o.original_score >= 0.5)
    summary = []
    for overhead in cfg.overheads:
        n_evaded = sum(1 for o in outcomes if o.evaded[overhead])
        survived = sum(1 for o in outcomes if o.original_score >= 0.5 and o.adv_scores[overhead] >= 0.5)
        overall = sum(1 for o in outcomes if o.adv_scores[overhead] >= 0.5)
        summary.append(
            OverheadSummary(
                overhead_pct=overhead,
                n_samples=n_samples,
                n_detected=n_detected,
                n_evaded=n_evaded,
                success_rate=n_evaded / n_detected if n_detected else 0.0,
                robust_acc_conditioned=survived / n_detected if n_detected else 0.0,
                robust_acc_overall=overall / n_samples if n_samples else 0.0,
            )
        )

    ref = next((s for s in summary if s.overhead_pct == reference_overhead), None)
    return AttackReport(
        overheads=tuple(cfg.overheads),
        samples=tuple(outcomes),
        summary=tuple(summary),
        reference_overhead=reference_overhead,
        robust_accuracy_conditioned=ref.robust_acc_conditioned if ref else 0.0,
        robust_accuracy_overall=ref.robust_acc_overall if ref else 0.0,
        n_samples=n_samples,
        n_detected=n_detected,
    )


def generate_training_adversaries(records, pool: BenignPool, cfg: AttackConfig, count: int, seed: int):
    """Attack-perturbed copies of training malware, for adversarial training."""
    malware = [g for g in records if g.label == LABEL_MALWARE]
    if not malware:
        raise DataError("adversarial training needs malware in the training corpus")
    positive_overheads = [o for o in cfg.overheads if o > 0] or [100.0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xAD7]))
    out = []
    for i in range(count):
        g = normalize_fcg(malware[int(rng.integers(len(malware)))])
        overhead = positive_overheads[int(rng.integers(len(positive_overheads)))]
        adv = apply_perturbation(g, generate_attack(g, pool, overhead, modes=cfg.modes, seed=cfg.seed, trial=i))
        out.append(Fcg(f"{g.graph_id}#adv{i:04d}", adv.label, adv.main_id, adv.nodes, adv.edges))
    return out


# ---------------------------------------------------------------------------
# Monotonicity audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityViolation:
    graph_id: str
    trial: int
    score_before: float
    score_after: float


@dataclass(frozen=True)
class MonotonicityReport:
    trials: int
    violations: tuple[MonotonicityViolation, ...]
    max_violation: float  # largest score drop observed (0 when none)
    min_input_gradient: float
    informational: bool  # True when the model is not fully non-negative

    @property
    def ok(self) -> bool:
        return not self.violations


def check_monotonicity(
    model: ModelParams,
    vocab: Vocabulary,
    corpus: Corpus,
    trials: int = 1000,
    seed: int = 0,
    readout: str = "avg",
    tolerance: float = 1e-9,
) -> MonotonicityReport:
    """Score random non-negative integer feature additions on corpus graphs.

    For a fully non-negative model every trial must satisfy
    score(x + delta) >= score(x) - tolerance; the input gradient is audited on
    each distinct graph as well.  For other models the result is informational.
    """
    if len(corpus) == 0:
        raise DataError("monotonicity check needs a non-empty corpus")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3A0]))
    graphs = [normalize_fcg(g) for g in corpus.records]
    cached = {}

    violations = []
    max_drop = 0.0
    min_grad = np.inf
    for trial in range(trials):
        gi = int(rng.integers(len(graphs)))
        g = graphs[gi]
        if gi not in cached:
            pg = prepare_fcg(g, vocab)
            base, _ = forward(model, pg, readout)
            min_grad = min(min_grad, float(input_gradient(model, pg, readout).min()))
            cached[gi] = (pg, base)
        pg, base = cached[gi]

        n_edits = int(rng.integers(1, 21))
        rows = rng.integers(pg.n, size=n_edits)
        cols = rng.integers(pg.ax.shape[1], size=n_edits)
        amounts = rng.integers(1, 4, size=n_edits)
        # repeated (row, col) draws add up
        delta = sparse.csr_matrix((amounts.astype(np.float64), (rows, cols)), shape=pg.ax.shape)

        # A(X + delta) = AX + A delta, so the graph is prepared once
        after, _ = forward(model, replace(pg, ax=pg.ax + pg.adj @ delta), readout)
        drop = base - after
        if drop > tolerance:
            violations.append(MonotonicityViolation(g.graph_id, trial, base, after))
        max_drop = max(max_drop, drop)

    return MonotonicityReport(
        trials=trials,
        violations=tuple(violations),
        max_violation=max(0.0, max_drop),
        min_input_gradient=float(min_grad) if np.isfinite(min_grad) else 0.0,
        informational=not (model.nonneg_gcn and model.nonneg_gclf),
    )


# ---------------------------------------------------------------------------
# Pool and report files
# ---------------------------------------------------------------------------


def write_benign_pool(pool: BenignPool, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(POOL_HEADER + "\n")
        for token in pool.apis:
            fh.write(f"{KIND_API}\t{escape_token(token)}\n")
        for token in pool.strings:
            fh.write(f"{KIND_STRING}\t{escape_token(token)}\n")


def read_benign_pool(path) -> BenignPool:
    lines = read_lines(path)
    if not lines or lines[0] != POOL_HEADER:
        raise FormatError(f"{path}: missing pool header")
    apis, strings = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path} line {lineno}: expected kind<TAB>token")
        kind, token = parts
        if kind == KIND_API:
            apis.append(unescape_token(token))
        elif kind == KIND_STRING:
            strings.append(unescape_token(token))
        else:
            raise FormatError(f"{path} line {lineno}: unknown kind {kind!r}")
    return BenignPool(tuple(apis), tuple(strings))


def write_attack_report(report: AttackReport, path, meta: dict | None = None) -> None:
    """Self-describing per-sample table plus the success-rate curve and robust accuracy."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ATTACK_REPORT_HEADER + "\n")
        for key, value in (meta or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write("[samples]\n")
        fh.write("graph_id\toverhead_pct\toriginal_score\tadv_score\tevaded\n")
        for outcome in report.samples:
            for overhead in report.overheads:
                fh.write(
                    f"{outcome.graph_id}\t{float(overhead)!r}\t{outcome.original_score!r}"
                    f"\t{outcome.adv_scores[overhead]!r}\t{int(outcome.evaded[overhead])}\n"
                )
        fh.write("[summary]\n")
        fh.write(
            "overhead_pct\tn_samples\tn_detected\tn_evaded\tsuccess_rate"
            "\trobust_acc_conditioned\trobust_acc_overall\n"
        )
        for s in report.summary:
            fh.write(
                f"{float(s.overhead_pct)!r}\t{s.n_samples}\t{s.n_detected}\t{s.n_evaded}"
                f"\t{s.success_rate!r}\t{s.robust_acc_conditioned!r}\t{s.robust_acc_overall!r}\n"
            )
        fh.write(f"reference_overhead_pct\t{float(report.reference_overhead)!r}\n")
        fh.write(f"robust_accuracy_conditioned\t{report.robust_accuracy_conditioned!r}\n")
        fh.write(f"robust_accuracy_overall\t{report.robust_accuracy_overall!r}\n")
