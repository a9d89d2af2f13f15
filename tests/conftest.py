import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mal2gcn.fcg import Fcg, FunctionNode
from mal2gcn.synth import SynthConfig, generate_corpus

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=60
)
settings.load_profile("default")

tokens = st.text(max_size=40)

# the characters besides "\n" and "\r" at which str.splitlines breaks a line; a token may hold any of them
OTHER_LINE_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@st.composite
def fcgs(draw, max_nodes=6, require_label=False, max_tokens=4):
    """Structurally valid graphs (possibly with isolated nodes and self/dup edges)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    ids = [f"n{i}" for i in range(n)]
    nodes = []
    for i in range(n):
        apis = draw(st.lists(tokens, max_size=max_tokens))
        strings = draw(st.lists(tokens, max_size=max_tokens))
        nodes.append(FunctionNode(ids[i], tuple(apis), tuple(strings)))
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    edges = []
    for _ in range(n_edges):
        a = ids[draw(st.integers(0, n - 1))]
        b = ids[draw(st.integers(0, n - 1))]
        edges.append((a, b))
    labels = ["malware", "benign"] if require_label else ["malware", "benign", None]
    label = draw(st.sampled_from(labels))
    return Fcg("g0", label, ids[0], tuple(nodes), tuple(edges))


@pytest.fixture(scope="session")
def small_corpus():
    """A quick separable corpus shared by training/attack tests."""
    cfg = SynthConfig(
        n_benign=60,
        n_malware=60,
        node_count_min=4,
        node_count_max=25,
        n_benign_apis=60,
        n_benign_strings=60,
        n_malicious_apis=60,
        n_malicious_strings=60,
        n_shared_apis=40,
        n_shared_strings=40,
        seed=11,
    )
    return generate_corpus(cfg)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


def random_params(rng, d, h1, h2, hg, nonneg=False, scale=1.0):
    """Random dense model; optionally projected to the non-negative orthant."""
    from mal2gcn.gcn import ModelParams, project_nonnegative

    params = ModelParams(
        w_gcn1=scale * rng.normal(size=(d, h1)),
        w_gcn2=scale * rng.normal(size=(h1, h2)),
        w_hidden=scale * rng.normal(size=(h2, hg)),
        b_hidden=scale * rng.normal(size=hg),
        w_out=scale * rng.normal(size=hg),
        b_out=scale * rng.normal(size=1),
        nonneg_gcn=nonneg,
        nonneg_gclf=nonneg,
    )
    return project_nonnegative(params) if nonneg else params


def hostile_model(d):
    """Claims non-negative flags but scores strictly decreasing in every feature.

    The small first-layer scale keeps scores in the sigmoid's sensitive range
    so the decrease is well above audit tolerance.
    """
    from mal2gcn.gcn import ModelParams

    return ModelParams(
        w_gcn1=np.full((d, 1), 0.01),
        w_gcn2=np.ones((1, 1)),
        w_hidden=np.ones((1, 1)),
        b_hidden=np.zeros(1),
        w_out=-np.ones(1),
        b_out=np.zeros(1),
        nonneg_gcn=True,
        nonneg_gclf=True,
    )


def brute_force_normalized_adjacency(n, undirected_edges):
    """Independent adjacency oracle: explicit A, self-loops, D, dense products."""
    a = np.zeros((n, n))
    for i, j in undirected_edges:
        if i != j:
            a[i, j] = 1.0
            a[j, i] = 1.0
    a_tilde = a + np.eye(n)
    d_tilde = np.diag(a_tilde.sum(axis=1))
    d_inv_sqrt = np.diag(1.0 / np.sqrt(np.diag(d_tilde)))
    return d_inv_sqrt @ a_tilde @ d_inv_sqrt


def dense_normalized_adjacency(g):
    """The dense n x n construction the sparse builder replaced, kept as its bitwise reference."""
    index = {node.id: i for i, node in enumerate(g.nodes)}
    n = len(g.nodes)
    a = np.zeros((n, n), dtype=np.float64)
    for caller, callee in g.edges:
        i, j = index[caller], index[callee]
        if i != j:
            a[i, j] = 1.0
            a[j, i] = 1.0
    a[np.diag_indices(n)] = 1.0
    inv_sqrt_deg = 1.0 / np.sqrt(a.sum(axis=1))
    return a * np.outer(inv_sqrt_deg, inv_sqrt_deg)


def dense_counts(g, vocab):
    """The dense n x d count loop the sparse embedding replaced, kept as its bitwise reference."""
    from mal2gcn.featurize import KIND_API, KIND_STRING, _node_tokens

    n = len(g.nodes)
    d = vocab.size
    offset = len(vocab.api_tokens)
    counts = np.zeros((n, d), dtype=np.int64)
    for i, node in enumerate(g.nodes):
        row = counts[i]
        for token in _node_tokens(node, KIND_API):
            idx = vocab._api_index.get(token)
            if idx is not None:
                row[idx] += 1
        for token in _node_tokens(node, KIND_STRING):
            idx = vocab._string_index.get(token)
            if idx is not None:
                row[offset + idx] += 1
    return counts


def adjacency_array(adj):
    """The dense (n, n) array a NormalizedAdjacency holds."""
    from scipy import sparse

    return sparse.csr_matrix((adj.values, adj.indices, adj.indptr), shape=(adj.n, adj.n)).toarray()


def adjacency_from_dense(a):
    """NormalizedAdjacency holding the dense (n, n) array a."""
    from scipy import sparse

    from mal2gcn.gcn import NormalizedAdjacency

    m = sparse.csr_matrix(a)
    return NormalizedAdjacency(a.shape[0], values=m.data, indices=m.indices, indptr=m.indptr)


def fd_param_grads(m, prepared, labels, step=1e-4):
    """Central finite differences of the batch loss for every parameter entry, under m.readout."""
    from mal2gcn.gcn import batch_loss_and_gradients

    grads = {}
    for name, w in m.weights().items():
        g = np.zeros_like(w)
        flat = w.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = batch_loss_and_gradients(m, prepared, labels)[0]
            flat[k] = orig - step
            down = batch_loss_and_gradients(m, prepared, labels)[0]
            flat[k] = orig
            gflat[k] = (up - down) / (2 * step)
        grads[name] = g
    return grads


def rel_err(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def make_safe_instance(seed, readout):
    """Random small instance with activations away from relu kinks and argmax ties; the model has `readout`."""
    from dataclasses import replace

    from mal2gcn.gcn import build_normalized_adjacency, forward, prepare_graph

    rng = np.random.default_rng(seed)
    for attempt in range(60):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 7))
        h1, h2, hg = (int(rng.integers(1, 5)) for _ in range(3))
        m = replace(random_params(rng, d, h1, h2, hg, scale=0.8), readout=readout)
        ids = [f"n{i}" for i in range(n)]
        edges = []
        for _ in range(int(rng.integers(0, n + 2))):
            a, b = int(rng.integers(n)), int(rng.integers(n))
            if a != b:
                edges.append((ids[a], ids[b]))
        g = Fcg("g", None, ids[0], tuple(FunctionNode(i) for i in ids), tuple(edges))
        adj = build_normalized_adjacency(g)
        x = rng.integers(0, 5, size=(n, d)).astype(float)
        y = int(rng.integers(2))
        _, cache = forward(m, prepare_graph(adj, x))
        # the cache keeps activations only; the pre-activations are the same products again
        margin = min(
            np.abs(cache.ax_stack @ m.w_gcn1).min(initial=1.0),
            np.abs(cache.m2 @ m.w_gcn2).min(initial=1.0),
            np.abs(cache.g @ m.w_hidden + m.b_hidden).min(initial=1.0),
        )
        tie_gap = 1.0
        if m.readout == "max" and n > 1:
            top2 = np.sort(cache.h2, axis=0)[-2:]
            tie_gap = float((top2[1] - top2[0]).min(initial=1.0))
        if margin > 1e-2 and tie_gap > 1e-2 and 1e-5 < cache.p[0] < 1 - 1e-5:
            return m, adj, x, y
    raise AssertionError("could not build a kink-free instance")
