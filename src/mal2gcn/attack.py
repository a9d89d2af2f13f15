"""Additive evasion attacks, overhead sweeps, and monotonicity audits.

The attacker can only add content: benign tokens appended to existing
functions (inject_existing) and never-executed functions wired in from an
existing caller (add_dead_nodes).  The attack budget is expressed as a
percentage of the victim graph's original token count.  An edit is a
Perturbation of node and pool indices (generate_attack draws one), and
apply_perturbation prepares the edited graph straight from the victim's
adjacency and token counts, as prepare_fcg would prepare it.
"""

import hashlib
from dataclasses import dataclass, fields

import numpy as np
from scipy import sparse

from .fcg import Corpus, DataError, Fcg, LABEL_BENIGN, LABEL_MALWARE, normalize_fcg, report_lines, write_lines
from .featurize import (
    KIND_API,
    KIND_STRING,
    KINDS,
    Vocabulary,
    _node_tokens,
    embed_graph,
    normalize_token,
    read_token_table,
    token_table_lines,
)
from .gcn import (
    ModelParams,
    NormalizedAdjacency,
    PreparedGraph,
    build_normalized_adjacency,
    _scored_input_gradient,
    forward,
    normalized_adjacency,
    prepare_graph,
    score_prepared,
)

DEFAULT_OVERHEADS = (0.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 100.0, 150.0, 200.0, 400.0, 500.0)
MODES = ("inject_existing", "add_dead_nodes")
TARGET_FRACTION = 0.5  # inject_existing appends to a random half of the functions
TOKENS_PER_DEAD_NODE = 20  # add_dead_nodes puts this many tokens in each new function
MAX_OVERHEAD_PCT = 10000.0  # 20x the default schedule's largest overhead

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
        for kind, tokens in ((KIND_API, self.apis), (KIND_STRING, self.strings)):
            for token in tokens:
                if normalize_token(token, kind) != token:
                    raise DataError(f"pool {kind} token {token!r} is not normalized")

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
        if not self.overheads:
            raise ValueError("overheads must name at least one overhead")
        if not all(0 <= o <= MAX_OVERHEAD_PCT for o in self.overheads):
            raise ValueError(f"overheads must be numbers from 0 to {MAX_OVERHEAD_PCT:g}")
        if any(a >= b for a, b in zip(self.overheads, self.overheads[1:])):
            raise ValueError("overheads must be strictly ascending")
        if self.trials_per_sample < 1:
            raise ValueError("trials_per_sample must be >= 1")


def _sample_rng_seed(seed: int, graph_id: str, trial: int) -> np.random.SeedSequence:
    digest = hashlib.sha256(graph_id.encode("utf-8")).digest()
    return np.random.SeedSequence([seed, trial, int.from_bytes(digest[:8], "big")])


def _budget(n_tokens: int, overhead_pct: float) -> int:
    return int(round(overhead_pct / 100.0 * n_tokens))


def _split_budget(budget: int, modes) -> tuple[int, int]:
    """(inject_existing tokens, add_dead_nodes tokens); both modes split the budget in half."""
    if "add_dead_nodes" not in modes:
        return budget, 0
    if "inject_existing" not in modes:
        return 0, budget
    return budget // 2, budget - budget // 2


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Pure additions as index arrays in draw order; a smaller budget's are a prefix of each.

    Dead node j is added after the graph's nodes and holds the pool tokens
    dead[j * TOKENS_PER_DEAD_NODE :][:TOKENS_PER_DEAD_NODE].  Two
    perturbations are equal when their four arrays are.
    """

    targets: np.ndarray  # node index each inject_existing token is appended to
    injected: np.ndarray  # pool index of each inject_existing token
    callers: np.ndarray  # node index that calls each dead node
    dead: np.ndarray  # pool index of each dead-node token

    def __eq__(self, other):
        if not isinstance(other, Perturbation):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def added_token_count(self) -> int:
        return len(self.injected) + len(self.dead)

    def prefix(self, budget: int, modes) -> "Perturbation":
        n_existing, n_dead = _split_budget(budget, modes)
        n_nodes = -(-n_dead // TOKENS_PER_DEAD_NODE)
        return Perturbation(
            self.targets[:n_existing], self.injected[:n_existing], self.callers[:n_nodes], self.dead[:n_dead]
        )


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
    function, each called from a random existing one.  Both modes split the
    budget in half.

    Deterministic per (graph id, seed, trial, modes), with one bounded-integer
    call per mode on its own substream.  Each call lists the bound of every
    draw in stream order: a (target, token) pair per inject_existing token,
    and for add_dead_nodes a caller before each TOKENS_PER_DEAD_NODE tokens.
    numpy draws an array of bounds exactly as it draws them one call at a
    time, so the draws equal those of per-token calls, and a smaller budget's
    draws are a prefix of a larger's (Perturbation.prefix).
    """
    if not 0 <= overhead_pct <= MAX_OVERHEAD_PCT:
        raise ValueError(f"overhead_pct must be a number from 0 to {MAX_OVERHEAD_PCT:g}")
    modes = tuple(modes)
    if not modes or any(m not in MODES for m in modes):
        raise ValueError(f"modes must be a non-empty subset of {MODES}")

    n_existing, n_dead = _split_budget(_budget(g.total_token_count, overhead_pct), modes)
    targets = injected = callers = dead = np.zeros(0, dtype=np.int64)
    ss_existing, ss_dead = _sample_rng_seed(seed, g.graph_id, trial).spawn(2)
    if n_existing:
        rng = np.random.default_rng(ss_existing)
        chosen = rng.choice(g.n_nodes, size=max(1, int(round(TARGET_FRACTION * g.n_nodes))), replace=False)
        pairs = rng.integers(0, np.tile([len(chosen), pool.size], n_existing))
        targets, injected = chosen[pairs[0::2]], pairs[1::2]
    if n_dead:
        rng = np.random.default_rng(ss_dead)
        stride = TOKENS_PER_DEAD_NODE + 1
        bounds = np.full(n_dead + -(-n_dead // TOKENS_PER_DEAD_NODE), pool.size)
        bounds[::stride] = g.n_nodes
        draws = rng.integers(0, bounds)
        callers, dead = draws[::stride], np.delete(draws, np.s_[::stride])
    return Perturbation(targets, injected, callers, dead)


def apply_perturbation(
    adj: NormalizedAdjacency, counts: sparse.coo_matrix, columns: np.ndarray, p: Perturbation
) -> PreparedGraph:
    """prepare_fcg of a normalized graph g with p's additions, from g's adjacency and token counts.

    columns[k] is the vocabulary column of pool token k, -1 outside the
    vocabulary.  The drawn tokens add integer counts to their rows, and dead
    nodes add rows below g's and an edge from each caller.  The counts are
    exact and A @ X sums in A's storage order, so the result is bitwise the
    one prepare_fcg builds of the edited graph.  An edit that names a node
    outside g or a token outside the pool is refused as a DataError.
    """
    n, d = counts.shape
    n_dead = len(p.callers)
    for name, index, bound in (
        ("targets", p.targets, n), ("callers", p.callers, n), ("injected", p.injected, len(columns)),
        ("dead", p.dead, len(columns)),
    ):
        if len(index) and not 0 <= index.min() <= index.max() < bound:
            raise DataError(f"perturbation {name} must lie in [0, {bound})")
    if len(p.targets) != len(p.injected):
        raise DataError(f"perturbation has {len(p.targets)} targets for {len(p.injected)} injected tokens")
    if len(p.dead) > TOKENS_PER_DEAD_NODE * n_dead:
        raise DataError(f"perturbation has {len(p.dead)} dead-node tokens for {n_dead} dead nodes")
    rows = np.concatenate([counts.row, p.targets, n + np.arange(len(p.dead)) // TOKENS_PER_DEAD_NODE])
    cols = np.concatenate([counts.col, columns[p.injected], columns[p.dead]])
    data = np.concatenate([counts.data, np.ones(len(cols) - counts.nnz, dtype=np.int64)])
    hit = cols >= 0  # in-vocabulary tokens
    attacked = sparse.csr_matrix((data[hit], (rows[hit], cols[hit])), shape=(n + n_dead, d))  # repeats add up
    if n_dead:
        # g's stored entries already hold its edges both ways and its self-loops
        own = np.repeat(np.arange(n), np.diff(adj.indptr))
        adj = normalized_adjacency(
            n + n_dead, np.concatenate([own, p.callers]), np.concatenate([adj.indices, n + np.arange(n_dead)])
        )
    return prepare_graph(adj, attacked)


def _pool_columns(vocab: Vocabulary, pool: BenignPool) -> np.ndarray:
    """The vocabulary column of each pool index, -1 outside the vocabulary."""
    return np.array(
        [vocab.column(t, KIND_API) for t in pool.apis] + [vocab.column(t, KIND_STRING) for t in pool.strings],
        dtype=np.int64,
    )


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
    """Per-sample outcomes and the curve, one row per scheduled overhead; the last row is the headline."""

    samples: tuple[SampleOutcome, ...]
    summary: tuple[OverheadSummary, ...]


def _attack_one(g, model, vocab, pool, columns, cfg: AttackConfig) -> SampleOutcome:
    """Score a sample at every overhead from one preparation and one draw per trial.

    The sample is normalized, its adjacency built and its tokens counted
    once.  Each trial draws once, at the largest budget, and each overhead
    scores a prefix of that draw: inject_existing reuses the adjacency,
    add_dead_nodes extends it by the added nodes.  Every score equals
    score_graphs on the graph with generate_attack's additions.
    """
    g = normalize_fcg(g)  # attack the graph as it is scored
    adj = build_normalized_adjacency(g)
    counts = embed_graph(g, vocab).counts
    original = float(score_prepared(model, [prepare_graph(adj, counts)])[0])
    detected = original >= 0.5
    n_tokens = g.total_token_count
    draws = [
        generate_attack(g, pool, cfg.overheads[-1], cfg.modes, cfg.seed, trial=trial)
        for trial in range(cfg.trials_per_sample)
    ]
    counts = counts.tocoo()
    adv_scores = {}
    evaded = {}
    for overhead in cfg.overheads:
        budget = _budget(n_tokens, overhead)
        prepared = [apply_perturbation(adj, counts, columns, draw.prefix(budget, cfg.modes)) for draw in draws]
        worst = min(score_prepared(model, prepared).tolist())
        adv_scores[overhead] = worst
        evaded[overhead] = bool(detected and worst < 0.5)
    return SampleOutcome(g.graph_id, original, adv_scores, evaded)


def attack_sweep(
    model: ModelParams,
    vocab: Vocabulary,
    corpus: Corpus,
    pool: BenignPool,
    cfg: AttackConfig,
) -> AttackReport:
    """Attack every malware sample at every overhead and aggregate the outcome curve.

    Each summary row reports robust accuracy two ways: conditioned on
    originally-detected samples, and over all samples.
    """
    for g in corpus:
        if g.label != LABEL_MALWARE:
            raise DataError(f"attack corpus must be all-malware; graph {g.graph_id} is {g.label}")

    columns = _pool_columns(vocab, pool)
    outcomes = [_attack_one(g, model, vocab, pool, columns, cfg) for g in corpus.records]

    n_samples = len(outcomes)
    n_detected = sum(1 for o in outcomes if o.original_score >= 0.5)
    summary = []
    for overhead in cfg.overheads:
        n_evaded = sum(1 for o in outcomes if o.evaded[overhead])
        survived = n_detected - n_evaded
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
    return AttackReport(samples=tuple(outcomes), summary=tuple(summary))


def generate_training_adversaries(
    records, vocab: Vocabulary, pool: BenignPool, cfg: AttackConfig, count: int, seed: int
) -> list[PreparedGraph]:
    """Prepared attack-perturbed copies of training malware, for train(..., adversaries=...).

    Adversary i attacks a random malware record at a random positive
    overhead of cfg (100% if it has none), with trial i of cfg's seed.
    """
    malware = [g for g in records if g.label == LABEL_MALWARE]
    if not malware:
        raise DataError("adversarial training needs malware in the training corpus")
    positive_overheads = [o for o in cfg.overheads if o > 0] or [100.0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xAD7]))
    columns = _pool_columns(vocab, pool)
    out = []
    for i in range(count):
        g = normalize_fcg(malware[int(rng.integers(len(malware)))])
        overhead = positive_overheads[int(rng.integers(len(positive_overheads)))]
        p = generate_attack(g, pool, overhead, cfg.modes, cfg.seed, trial=i)
        out.append(apply_perturbation(build_normalized_adjacency(g), embed_graph(g, vocab).counts.tocoo(), columns, p))
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
    max_violation: float  # largest score drop among the violations (0 when none)
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
) -> MonotonicityReport:
    """Score random non-negative integer feature additions on corpus graphs.

    Each trial is prepared by apply_perturbation, bitwise as prepare_fcg
    prepares the edited graph.  A fully non-negative model must never score
    a trial's logit strictly below the unedited graph's: every term is
    non-negative until the biases, round-to-nearest sums and products are
    monotone, and an added count only inserts terms into sums kept in order,
    so float64 needs no tolerance.  Logits are compared since expit need not
    be monotone in float64; reports give probabilities.  The input gradient
    is audited on each distinct graph too.  Other models are informational.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(corpus) == 0:
        raise DataError("monotonicity check needs a non-empty corpus")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3A0]))
    graphs = [normalize_fcg(g) for g in corpus.records]
    columns = np.arange(vocab.size)
    none = np.zeros(0, dtype=np.int64)
    cached = {}

    violations = []
    min_grad = np.inf
    for trial in range(trials):
        gi = int(rng.integers(len(graphs)))
        g = graphs[gi]
        if gi not in cached:
            adj = build_normalized_adjacency(g)
            counts = embed_graph(g, vocab).counts
            pg = prepare_graph(adj, counts)
            base, base_z4, grad = _scored_input_gradient(model, pg)
            min_grad = min(min_grad, float(grad.min()))
            cached[gi] = (adj, counts.tocoo(), base, base_z4)
        adj, counts, base, base_z4 = cached[gi]

        n_edits = int(rng.integers(1, 21))
        rows = rng.integers(adj.n, size=n_edits)
        cols = rng.integers(vocab.size, size=n_edits)
        amounts = rng.integers(1, 4, size=n_edits)
        edit = Perturbation(np.repeat(rows, amounts), np.repeat(cols, amounts), none, none)
        after, cache = forward(model, apply_perturbation(adj, counts, columns, edit))
        if cache.z4[0] < base_z4:
            violations.append(MonotonicityViolation(g.graph_id, trial, base, after))

    return MonotonicityReport(
        trials=trials,
        violations=tuple(violations),
        max_violation=max([0.0] + [v.score_before - v.score_after for v in violations]),
        min_input_gradient=float(min_grad) if np.isfinite(min_grad) else 0.0,
        informational=not (model.nonneg_gcn and model.nonneg_gclf),
    )


# ---------------------------------------------------------------------------
# Pool and report files
# ---------------------------------------------------------------------------


def derive_benign_pool(corpus: Corpus) -> BenignPool:
    """The sorted set of tokens per kind among benign-labeled graphs, normalized as featurization does.

    Strings that normalization drops are left out.  On a synthetic corpus
    whose benign graphs use every benign and shared token, this is the pool
    generate_corpus writes, in the same order.
    """
    nodes = [node for g in corpus if g.label == LABEL_BENIGN for node in g.nodes]
    if not nodes:
        raise DataError("cannot derive a benign pool: no benign-labeled graphs")
    return BenignPool(*(tuple(sorted({t for node in nodes for t in _node_tokens(node, kind)})) for kind in KINDS))


def write_benign_pool(pool: BenignPool, path) -> None:
    write_lines(path, token_table_lines(POOL_HEADER, {KIND_API: zip(pool.apis), KIND_STRING: zip(pool.strings)}))


def read_benign_pool(path) -> BenignPool:
    """Read a pool file: a token table headed by exactly POOL_HEADER, its rows the vocabulary's without a score."""
    _, rows = read_token_table(path, lambda line: line == POOL_HEADER, 2)
    return BenignPool(*(tuple(rows[kind]) for kind in KINDS))


def write_attack_report(report: AttackReport, path, meta: dict | None = None) -> None:
    """Self-describing per-sample table plus the success-rate curve and its last row's robust accuracy."""
    lines = report_lines(ATTACK_REPORT_HEADER, meta)
    lines += ["[samples]", "graph_id\toverhead_pct\toriginal_score\tadv_score\tevaded"]
    for outcome in report.samples:
        for overhead in (s.overhead_pct for s in report.summary):
            lines.append(
                f"{outcome.graph_id}\t{float(overhead)!r}\t{outcome.original_score!r}"
                f"\t{outcome.adv_scores[overhead]!r}\t{int(outcome.evaded[overhead])}"
            )
    lines.append("[summary]")
    lines.append(
        "overhead_pct\tn_samples\tn_detected\tn_evaded\tsuccess_rate\trobust_acc_conditioned\trobust_acc_overall"
    )
    for s in report.summary:
        lines.append(
            f"{float(s.overhead_pct)!r}\t{s.n_samples}\t{s.n_detected}\t{s.n_evaded}"
            f"\t{s.success_rate!r}\t{s.robust_acc_conditioned!r}\t{s.robust_acc_overall!r}"
        )
    headline = report.summary[-1]
    lines.append(f"reference_overhead_pct\t{float(headline.overhead_pct)!r}")
    lines.append(f"robust_accuracy_conditioned\t{headline.robust_acc_conditioned!r}")
    lines.append(f"robust_accuracy_overall\t{headline.robust_acc_overall!r}")
    write_lines(path, lines)
