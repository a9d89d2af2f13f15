"""Deterministic synthetic corpus generator.

Produces separable-but-overlapping benign and malware call-graph populations:
disjoint benign/malicious/shared token pools, a uniform random spanning tree
rooted at main plus extra edges, and a right-skewed node-count distribution.
Everything derives from one seed.
"""

import json
from dataclasses import dataclass

import numpy as np

from .attack import BenignPool
from .fcg import Corpus, DataError, Fcg, FunctionNode, LABEL_BENIGN, LABEL_MALWARE, write_lines


@dataclass(frozen=True)
class SynthConfig:
    n_benign: int = 1500
    n_malware: int = 1500
    node_count_min: int = 5
    node_count_max: int = 200
    n_benign_apis: int = 300
    n_benign_strings: int = 300
    n_malicious_apis: int = 300
    n_malicious_strings: int = 300
    n_shared_apis: int = 200
    n_shared_strings: int = 200
    malicious_token_fraction: float = 0.6
    infected_node_fraction: float = 0.3
    extra_edge_density: float = 0.5  # extra random edges per node
    tokens_per_node_min: int = 1
    tokens_per_node_max: int = 15
    seed: int = 0

    def __post_init__(self):
        if self.n_benign < 0 or self.n_malware < 0:
            raise ValueError("corpus sizes must be >= 0")
        if not (1 <= self.node_count_min <= self.node_count_max):
            raise ValueError("need 1 <= node_count_min <= node_count_max")
        if not (0.0 < self.malicious_token_fraction <= 1.0):
            raise ValueError("malicious_token_fraction must be in (0, 1]")
        if not (0.0 < self.infected_node_fraction <= 1.0):
            raise ValueError("infected_node_fraction must be in (0, 1]")
        if not (1 <= self.tokens_per_node_min <= self.tokens_per_node_max):
            raise ValueError("need 1 <= tokens_per_node_min <= tokens_per_node_max")


def _make_pool_tokens(prefix: str, count: int) -> tuple[str, ...]:
    # names pass normalize_token for both kinds: lowercase, length in [4, 30]
    return tuple(f"{prefix}{i:04d}" for i in range(count))


def _prufer_tree_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n nodes (Prufer decoding), as undirected pairs."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for v in seq:
        degree[v] += 1
    edges = []
    # smallest-leaf scan; n is desk-scale so the quadratic sweep is fine
    used = np.zeros(n, dtype=bool)
    for v in seq:
        for leaf in range(n):
            if degree[leaf] == 1 and not used[leaf]:
                edges.append((leaf, int(v)))
                used[leaf] = True
                degree[v] -= 1
                break
    remaining = [u for u in range(n) if not used[u] and degree[u] == 1]
    edges.append((remaining[0], remaining[1]))
    return edges


def _orient_away_from_root(n: int, undirected: list[tuple[int, int]]) -> list[tuple[int, int]]:
    adjacency: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in undirected:
        adjacency[a].append(b)
        adjacency[b].append(a)
    oriented = []
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                oriented.append((u, v))
                stack.append(v)
    return oriented


def _draw_node_count(cfg: SynthConfig, rng: np.random.Generator) -> int:
    # log-uniform: right-skewed toward small graphs
    lo, hi = np.log(cfg.node_count_min), np.log(cfg.node_count_max)
    n = int(round(np.exp(rng.uniform(lo, hi))))
    return min(max(n, cfg.node_count_min), cfg.node_count_max)


def _generate_graph(graph_id, label, infected, pools, cfg: SynthConfig, rng: np.random.Generator) -> Fcg:
    benign_apis, benign_strings, mal_apis, mal_strings = pools
    n = _draw_node_count(cfg, rng)

    edges_idx = _orient_away_from_root(n, _prufer_tree_edges(n, rng))
    edge_set = set(edges_idx)
    n_extra = int(round(cfg.extra_edge_density * n))
    attempts = 0
    while n_extra > 0 and attempts < 20 * n_extra and n > 1:
        attempts += 1
        a = int(rng.integers(n))
        b = int(rng.integers(n))
        if a == b or (a, b) in edge_set:
            continue
        edge_set.add((a, b))
        edges_idx.append((a, b))
        n_extra -= 1

    infected_ids: set[int] = set()
    if infected:
        count = max(1, int(round(cfg.infected_node_fraction * n)))
        infected_ids = set(int(i) for i in rng.choice(n, size=min(count, n), replace=False))

    node_ids = ["main"] + [f"f{i:04d}" for i in range(1, n)]
    nodes = []
    for i in range(n):
        n_tokens = int(rng.integers(cfg.tokens_per_node_min, cfg.tokens_per_node_max + 1))
        apis: list[str] = []
        strings: list[str] = []
        malicious_node = i in infected_ids
        for _ in range(n_tokens):
            use_malicious = malicious_node and rng.random() < cfg.malicious_token_fraction
            is_api = rng.random() < 0.5
            if is_api:
                source = mal_apis if use_malicious else benign_apis
                apis.append(source[int(rng.integers(len(source)))])
            else:
                source = mal_strings if use_malicious else benign_strings
                strings.append(source[int(rng.integers(len(source)))])
        nodes.append(FunctionNode(node_ids[i], tuple(apis), tuple(strings)))

    edges = tuple((node_ids[a], node_ids[b]) for a, b in edges_idx)
    return Fcg(graph_id, label, "main", tuple(nodes), edges)


def generate_corpus(cfg: SynthConfig) -> tuple[Corpus, BenignPool]:
    """Generate the labeled corpus and the benign+shared token pool attacks draw from."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))

    benign_apis = _make_pool_tokens("api_ben_", cfg.n_benign_apis)
    benign_strings = _make_pool_tokens("str_ben_", cfg.n_benign_strings)
    mal_apis = _make_pool_tokens("api_mal_", cfg.n_malicious_apis)
    mal_strings = _make_pool_tokens("str_mal_", cfg.n_malicious_strings)
    shared_apis = _make_pool_tokens("api_shr_", cfg.n_shared_apis)
    shared_strings = _make_pool_tokens("str_shr_", cfg.n_shared_strings)

    clean_apis = benign_apis + shared_apis
    clean_strings = benign_strings + shared_strings
    if not clean_apis or not clean_strings:
        raise DataError("benign and shared pools must provide at least one api and one string")
    pools = (clean_apis, clean_strings, mal_apis, mal_strings)

    records = []
    for i in range(cfg.n_benign):
        records.append(_generate_graph(f"syn_b_{i:05d}", LABEL_BENIGN, False, pools, cfg, rng))
    for i in range(cfg.n_malware):
        records.append(_generate_graph(f"syn_m_{i:05d}", LABEL_MALWARE, True, pools, cfg, rng))

    provenance = {"source": "synth", "seed": str(cfg.seed), "generator_version": "1"}
    pool = BenignPool(apis=clean_apis, strings=clean_strings)
    return Corpus(tuple(records), provenance), pool


def split_corpus(corpus: Corpus, sizes) -> list[Corpus]:
    """Deterministic label-stratified split into len(sizes) corpora.

    Each split gets a proportional share of every label (largest-remainder
    rounding), preserving record order within labels.
    """
    sizes = list(sizes)
    if any(s < 0 for s in sizes):
        raise ValueError("split sizes must be >= 0")
    if sum(sizes) > len(corpus):
        raise DataError(f"split sizes sum to {sum(sizes)} but the corpus has {len(corpus)} records")

    by_label: dict = {}
    for g in corpus:
        by_label.setdefault(g.label, []).append(g)

    total = len(corpus)
    cursors = {label: 0 for label in by_label}
    splits = []
    for size in sizes:
        quotas = {}
        remainders = []
        assigned = 0
        for label, records in by_label.items():
            exact = size * len(records) / total
            quotas[label] = int(exact)
            assigned += quotas[label]
            remainders.append((-(exact - quotas[label]), str(label), label))
        remainders.sort()
        for _, _, label in remainders:
            if assigned == size:
                break
            if cursors[label] + quotas[label] < len(by_label[label]):
                quotas[label] += 1
                assigned += 1
        chunk = []
        for label, records in by_label.items():
            take = min(quotas[label], len(records) - cursors[label])
            chunk.extend(records[cursors[label] : cursors[label] + take])
            cursors[label] += take
        splits.append(Corpus(tuple(chunk), dict(corpus.provenance)))
    return splits


def write_manifest(cfg: SynthConfig, path, extra: dict | None = None) -> None:
    payload = {"config": {k: getattr(cfg, k) for k in cfg.__dataclass_fields__}, **(extra or {})}
    write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])
