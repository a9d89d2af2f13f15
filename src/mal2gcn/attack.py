"""Additive evasion attacks at graph level, overhead sweeps, and monotonicity audits.

The attacker can only add content: benign tokens appended to existing
functions (inject_existing) and never-executed functions wired in from an
existing caller (add_dead_nodes).  The attack budget is expressed as a
percentage of the victim graph's original token count.
"""

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fcg import (
    Corpus, DataError, Fcg, FunctionNode, LABEL_BENIGN, LABEL_MALWARE, normalize_fcg, report_lines, write_lines,
)
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


def _budget(n_tokens: int, overhead_pct: float) -> int:
    return int(round(overhead_pct / 100.0 * n_tokens))


def _split_budget(budget: int, modes) -> tuple[int, int]:
    """(inject_existing tokens, add_dead_nodes tokens); both modes split the budget in half."""
    if "add_dead_nodes" not in modes:
        return budget, 0
    if "inject_existing" not in modes:
        return 0, budget
    return budget // 2, budget - budget // 2


@dataclass(frozen=True)
class _Draw:
    """One trial's draws as index arrays in draw order; a smaller budget's are a prefix of each."""

    targets: np.ndarray  # node index each inject_existing token is appended to
    injected: np.ndarray  # pool index of each inject_existing token
    callers: np.ndarray  # node index that calls each dead node
    dead: np.ndarray  # pool index of each dead-node token, TOKENS_PER_DEAD_NODE to a node

    def prefix(self, budget: int, modes) -> "_Draw":
        n_existing, n_dead = _split_budget(budget, modes)
        n_nodes = -(-n_dead // TOKENS_PER_DEAD_NODE)
        return _Draw(self.targets[:n_existing], self.injected[:n_existing], self.callers[:n_nodes], self.dead[:n_dead])


def _draw(g: Fcg, pool: BenignPool, budget: int, modes, seed: int, trial: int) -> _Draw:
    """Draw a budget's targets and tokens with one bounded-integer call per mode.

    Each call lists the bound of every draw in stream order: a (target,
    token) pair per inject_existing token, and for add_dead_nodes a caller
    before each TOKENS_PER_DEAD_NODE tokens.  numpy draws an array of bounds
    exactly as it draws them one call at a time, so the draws equal those of
    per-token calls, and a smaller budget's draws are a prefix of a larger's.
    """
    n_existing, n_dead = _split_budget(budget, modes)
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
    return _Draw(targets, injected, callers, dead)


def _pool_tokens(pool: BenignPool, picked) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(api tokens, string tokens) at pool indices `picked`, apis numbered first."""
    n_api = len(pool.apis)
    picked = picked.tolist()
    apis = tuple(pool.apis[k] for k in picked if k < n_api)
    return apis, tuple(pool.strings[k - n_api] for k in picked if k >= n_api)


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

    Deterministic per (graph, seed, trial, modes).  Each mode draws from its
    own substream in budget order (see _draw), so for a fixed seed a larger
    budget extends a smaller one (nested perturbations); attack_sweep scores
    such prefixes of one draw without building the perturbation.
    """
    if not 0 <= overhead_pct <= MAX_OVERHEAD_PCT:
        raise ValueError(f"overhead_pct must be a number from 0 to {MAX_OVERHEAD_PCT:g}")
    modes = tuple(modes)
    if not modes or any(m not in MODES for m in modes):
        raise ValueError(f"modes must be a non-empty subset of {MODES}")

    draw = _draw(g, pool, _budget(g.total_token_count, overhead_pct), modes, seed, trial)
    additions = {}
    for target in dict.fromkeys(draw.targets.tolist()):  # nodes in order of their first token
        additions[g.nodes[target].id] = _pool_tokens(pool, draw.injected[draw.targets == target])
    existing = set(g.node_ids())
    new_nodes, attach_edges = [], []
    for chunk, caller in enumerate(draw.callers.tolist()):
        node_id = f"dead{chunk:04d}"
        while node_id in existing:
            node_id = "x" + node_id
        lo = chunk * TOKENS_PER_DEAD_NODE
        new_nodes.append(FunctionNode(node_id, *_pool_tokens(pool, draw.dead[lo : lo + TOKENS_PER_DEAD_NODE])))
        attach_edges.append((g.nodes[caller].id, node_id))
    return Perturbation(additions, tuple(new_nodes), tuple(attach_edges))


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
    """Per-sample outcomes and the curve, one row per scheduled overhead; the last row is the headline."""

    samples: tuple[SampleOutcome, ...]
    summary: tuple[OverheadSummary, ...]


def _prepare_attacked(
    adj: NormalizedAdjacency, counts: sparse.coo_matrix, columns: np.ndarray, draw: _Draw
) -> PreparedGraph:
    """prepare_fcg of the attacked graph, from the adjacency and counts of the sample g.

    The attacked graph is normalize_fcg(apply_perturbation(g, p)), p the
    perturbation of `draw`: the drawn tokens add integer counts to their
    rows, and dead nodes add rows below g's and an edge from each caller.
    The counts are exact and A @ X sums in A's storage order, so the result
    is bitwise the one prepare_fcg builds.
    """
    n, d = counts.shape
    n_dead = len(draw.callers)
    rows = np.concatenate([counts.row, draw.targets, n + np.arange(len(draw.dead)) // TOKENS_PER_DEAD_NODE])
    cols = np.concatenate([counts.col, columns[draw.injected], columns[draw.dead]])
    data = np.concatenate([counts.data, np.ones(len(cols) - counts.nnz, dtype=np.int64)])
    hit = cols >= 0  # in-vocabulary tokens
    attacked = sparse.csr_matrix((data[hit], (rows[hit], cols[hit])), shape=(n + n_dead, d))  # repeats add up
    if n_dead:
        # g's stored entries already hold its edges both ways and its self-loops
        own = np.repeat(np.arange(n), np.diff(adj.indptr))
        adj = normalized_adjacency(
            n + n_dead, np.concatenate([own, draw.callers]), np.concatenate([adj.indices, n + np.arange(n_dead)])
        )
    return prepare_graph(adj, attacked)


def _attack_one(g, model, vocab, pool, columns, cfg: AttackConfig) -> SampleOutcome:
    """Score a sample at every overhead from one preparation and one draw per trial.

    The sample is normalized, its adjacency built and its tokens counted
    once.  Each trial draws once, at the largest budget, and each overhead
    scores a prefix of that draw: inject_existing reuses the adjacency,
    add_dead_nodes extends it by the added nodes.  Every score equals
    score_graphs on the graph that generate_attack's perturbation gives.
    """
    g = normalize_fcg(g)  # attack the graph as it is scored
    adj = build_normalized_adjacency(g)
    counts = embed_graph(g, vocab).counts
    original = float(score_prepared(model, [prepare_graph(adj, counts)])[0])
    detected = original >= 0.5
    n_tokens = g.total_token_count
    largest = _budget(n_tokens, cfg.overheads[-1])
    draws = [_draw(g, pool, largest, cfg.modes, cfg.seed, trial) for trial in range(cfg.trials_per_sample)]
    counts = counts.tocoo()
    adv_scores = {}
    evaded = {}
    for overhead in cfg.overheads:
        budget = _budget(n_tokens, overhead)
        prepared = [_prepare_attacked(adj, counts, columns, draw.prefix(budget, cfg.modes)) for draw in draws]
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

    columns = np.array(  # vocabulary column of each pool index, -1 outside the vocabulary
        [vocab.column(t, KIND_API) for t in pool.apis] + [vocab.column(t, KIND_STRING) for t in pool.strings],
        dtype=np.int64,
    )
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

    Each trial is prepared by _prepare_attacked, bitwise as prepare_fcg
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
        draw = _Draw(np.repeat(rows, amounts), np.repeat(cols, amounts), none, none)
        after, cache = forward(model, _prepare_attacked(adj, counts, columns, draw))
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
