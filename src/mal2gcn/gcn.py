"""Two-layer graph-convolution classifier: normalized adjacency, forward pass,
exact backpropagation, non-negative projection, and model file I/O.

A graph's adjacency, token counts and their product are CSR matrices built
from index arrays, so its memory grows with nodes + edges, not nodes squared;
weights and activations are dense float64.  The convolution layers carry no
bias; the classifier head does, and biases are exempt from the non-negative
projection because an additive constant never breaks monotonicity.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.special import expit

from .fcg import DataError, Fcg, normalize_fcg, read_lines
from .featurize import Vocabulary, embed_graph, vocabulary_digest

PROB_CLAMP = 1e-7
READOUTS = ("avg", "sum", "max")

MODEL_HEADER = "#mal2gcn-model v1"

WEIGHT_NAMES = ("w_gcn1", "w_gcn2", "w_hidden", "b_hidden", "w_out", "b_out")
GCN_WEIGHTS = ("w_gcn1", "w_gcn2")
GCLF_WEIGHTS = ("w_hidden", "w_out")  # biases are never projected


class ModelIOError(DataError):
    """Model file is corrupt, has the wrong version, or fails the vocabulary check."""


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetric degree-normalized adjacency with self-loops, as CSR arrays with sorted indices."""

    n: int
    values: np.ndarray  # (nnz,) float64, each > 0
    indices: np.ndarray  # (nnz,) column of each value
    indptr: np.ndarray  # (n+1,) row i is values[indptr[i]:indptr[i+1]]


def build_normalized_adjacency(g: Fcg) -> NormalizedAdjacency:
    """Symmetrize the edge set, add self-loops, and normalize by D^{-1/2} on both sides.

    Row/column i corresponds to g.nodes[i], matching FeatureMatrix rows.
    Degrees are >= 1 thanks to the self-loop, so no division by zero.
    """
    index = {node.id: i for i, node in enumerate(g.nodes)}
    ends = np.fromiter((index[v] for edge in g.edges for v in edge), np.int64, 2 * len(g.edges))
    return normalized_adjacency(len(g.nodes), ends[0::2], ends[1::2])


def normalized_adjacency(n: int, i: np.ndarray, j: np.ndarray) -> NormalizedAdjacency:
    """The normalized adjacency of n nodes and the edges i[k] - j[k], given as node index arrays."""
    # row-major keys of every stored entry: the sorted unique keys are the CSR order,
    # and a self-edge's key is the diagonal's, so it adds nothing
    keys = np.unique(np.concatenate([i * n + j, j * n + i, np.arange(n) * (n + 1)]))
    rows, cols = np.divmod(keys, n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    inv_sqrt_deg = 1.0 / np.sqrt(np.diff(indptr))
    return NormalizedAdjacency(n, inv_sqrt_deg[rows] * inv_sqrt_deg[cols], cols, indptr)


@dataclass
class ModelParams:
    """All weights of the convolution stack and classifier head, plus projection flags."""

    w_gcn1: np.ndarray  # (d, h1)
    w_gcn2: np.ndarray  # (h1, h2)
    w_hidden: np.ndarray  # (h2, hg)
    b_hidden: np.ndarray  # (hg,)
    w_out: np.ndarray  # (hg,)
    b_out: np.ndarray  # (1,)
    nonneg_gcn: bool = False
    nonneg_gclf: bool = False

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.w_gcn1.shape[0], self.w_gcn1.shape[1], self.w_gcn2.shape[1], self.w_hidden.shape[1])

    def weights(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in WEIGHT_NAMES}

    def governed_names(self) -> tuple[str, ...]:
        names = []
        if self.nonneg_gcn:
            names.extend(GCN_WEIGHTS)
        if self.nonneg_gclf:
            names.extend(GCLF_WEIGHTS)
        return tuple(names)

    def copy(self) -> "ModelParams":
        return ModelParams(
            **{name: value.copy() for name, value in self.weights().items()},
            nonneg_gcn=self.nonneg_gcn,
            nonneg_gclf=self.nonneg_gclf,
        )


def init_params(
    d: int, h1: int, h2: int, hg: int, nonneg_gcn: bool, nonneg_gclf: bool, rng: np.random.Generator
) -> ModelParams:
    """Uniform [-a, a] init with a = sqrt(6/(fan_in+fan_out)); zero biases.

    When projection flags are on, the initial weights are projected immediately
    so constrained training starts from a feasible point.
    """

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    params = ModelParams(
        w_gcn1=glorot(d, h1),
        w_gcn2=glorot(h1, h2),
        w_hidden=glorot(h2, hg),
        b_hidden=np.zeros(hg),
        w_out=glorot(hg, 1)[:, 0],
        b_out=np.zeros(1),
        nonneg_gcn=nonneg_gcn,
        nonneg_gclf=nonneg_gclf,
    )
    return project_nonnegative(params) if (nonneg_gcn or nonneg_gclf) else params


def project_nonnegative(m: ModelParams) -> ModelParams:
    """Zero out negative entries of every weight matrix governed by an enabled flag."""
    updates = {}
    for name in m.governed_names():
        updates[name] = np.maximum(getattr(m, name), 0.0)
    return replace(m, **updates) if updates else m.copy()


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedGraph:
    """Per-graph tensors cached for repeated forward passes."""

    n: int
    adj: sparse.csr_matrix  # (n, n) normalized adjacency
    ax: sparse.csr_matrix  # (n, d) adjacency @ features


def prepare_graph(adj: NormalizedAdjacency, counts: sparse.csr_matrix | np.ndarray) -> PreparedGraph:
    """Cache the adjacency and adjacency @ features of one graph; counts is its (n, d) sparse or dense count matrix."""
    a = sparse.csr_matrix((adj.values, adj.indices, adj.indptr), shape=(adj.n, adj.n))
    ax = a @ sparse.csr_matrix(counts, dtype=np.float64)  # raises ValueError if the row counts differ
    ax.sort_indices()  # the forward pass sums a row's terms in storage order
    return PreparedGraph(n=adj.n, adj=a, ax=ax)


def prepare_fcg(g: Fcg, vocab: Vocabulary) -> PreparedGraph:
    return prepare_graph(build_normalized_adjacency(g), embed_graph(g, vocab).counts)


@dataclass
class _BatchCache:
    prepared: list
    sizes: np.ndarray  # (B,) node counts
    offsets: np.ndarray  # (B+1,) row offsets into the stacked node arrays
    readout: str
    ax_stack: sparse.csr_matrix  # (N, d) vertically stacked adjacency @ features
    adj_block: sparse.csr_matrix  # (N, N) block-diagonal normalized adjacency
    z1: np.ndarray  # (N, h1) pre-activation of conv layer 1
    h1: np.ndarray
    m2: np.ndarray  # (N, h1) adjacency @ h1
    z2: np.ndarray  # (N, h2)
    h2: np.ndarray
    g: np.ndarray  # (B, h2) graph readout
    z3: np.ndarray  # (B, hg)
    hh: np.ndarray
    z4: np.ndarray  # (B,)
    p: np.ndarray  # (B,)


def _forward_batch(m: ModelParams, prepared: list, readout: str) -> _BatchCache:
    if readout not in READOUTS:
        raise ValueError(f"unknown readout {readout!r}")
    d = m.w_gcn1.shape[0]
    for pg in prepared:
        if pg.ax.shape[1] != d:
            raise ValueError(f"feature dimension {pg.ax.shape[1]} does not match model d={d}")

    sizes = np.array([pg.n for pg in prepared])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    if len(prepared) == 1:
        ax_stack = prepared[0].ax
        adj_block = prepared[0].adj
    else:
        ax_stack = sparse.vstack([pg.ax for pg in prepared], format="csr")
        adj_block = sparse.block_diag([pg.adj for pg in prepared], format="csr")

    z1 = ax_stack @ m.w_gcn1
    h1 = np.maximum(z1, 0.0)
    m2 = adj_block @ h1
    z2 = m2 @ m.w_gcn2
    h2 = np.maximum(z2, 0.0)

    starts = offsets[:-1]
    if readout == "avg":
        g = np.add.reduceat(h2, starts, axis=0) / sizes[:, None]
    elif readout == "sum":
        g = np.add.reduceat(h2, starts, axis=0)
    else:
        g = np.maximum.reduceat(h2, starts, axis=0)

    z3 = g @ m.w_hidden + m.b_hidden
    hh = np.maximum(z3, 0.0)
    z4 = hh @ m.w_out + m.b_out[0]
    p = expit(z4)
    return _BatchCache(
        prepared, sizes, offsets, readout, ax_stack, adj_block, z1, h1, m2, z2, h2, g, z3, hh, z4, p
    )


def _backward_batch(m: ModelParams, cache: _BatchCache, dz4: np.ndarray, need_input_grads: bool = False):
    """Exact gradients for a batch given d(objective)/d(z4) per sample.

    Returns (grads keyed like ModelParams.weights(), input gradient list or None).
    """
    offsets = cache.offsets
    prepared = cache.prepared

    d_w_out = cache.hh.T @ dz4
    d_b_out = np.array([dz4.sum()])
    d_hh = np.outer(dz4, m.w_out)
    d_z3 = d_hh * (cache.z3 > 0.0)
    d_w_hidden = cache.g.T @ d_z3
    d_b_hidden = d_z3.sum(axis=0)
    d_g = d_z3 @ m.w_hidden.T

    if cache.readout == "avg":
        d_h2 = np.repeat(d_g / cache.sizes[:, None], cache.sizes, axis=0)
    elif cache.readout == "sum":
        d_h2 = np.repeat(d_g, cache.sizes, axis=0)
    else:
        # subgradient at the (first) argmax row of each column
        d_h2 = np.zeros_like(cache.h2)
        cols = np.arange(d_h2.shape[1])
        for i in range(len(prepared)):
            lo, hi = offsets[i], offsets[i + 1]
            winners = cache.h2[lo:hi].argmax(axis=0)
            d_h2[lo + winners, cols] = d_g[i]

    d_z2 = d_h2 * (cache.z2 > 0.0)
    d_w_gcn2 = cache.m2.T @ d_z2
    d_m2 = d_z2 @ m.w_gcn2.T

    d_h1 = cache.adj_block.T @ d_m2
    d_z1 = d_h1 * (cache.z1 > 0.0)
    d_w_gcn1 = cache.ax_stack.T @ d_z1

    input_grads = None
    if need_input_grads:
        input_grads = []
        for i, pg in enumerate(prepared):
            input_grads.append(pg.adj.T @ (d_z1[offsets[i] : offsets[i + 1]] @ m.w_gcn1.T))

    grads = {
        "w_gcn1": d_w_gcn1,
        "w_gcn2": d_w_gcn2,
        "w_hidden": d_w_hidden,
        "b_hidden": d_b_hidden,
        "w_out": d_w_out,
        "b_out": d_b_out,
    }
    return grads, input_grads


def forward(m: ModelParams, pg: PreparedGraph, readout: str = "avg"):
    """Score one prepared graph; returns (malware probability, cache for backprop)."""
    cache = _forward_batch(m, [pg], readout)
    return float(cache.p[0]), cache


def batch_loss_and_gradients(m: ModelParams, prepared: list, labels: np.ndarray, readout: str):
    """Mean clamped cross-entropy and its exact parameter gradients over prepared graphs."""
    cache = _forward_batch(m, prepared, readout)
    y = np.asarray(labels, dtype=np.float64)
    p_clamped = np.clip(cache.p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    losses = -(y * np.log(p_clamped) + (1.0 - y) * np.log(1.0 - p_clamped))
    loss = float(losses.mean())
    # the clamp has zero derivative outside (eps, 1-eps)
    inside = (cache.p > PROB_CLAMP) & (cache.p < 1.0 - PROB_CLAMP)
    dz4 = np.where(inside, cache.p - y, 0.0) / len(prepared)
    grads, _ = _backward_batch(m, cache, dz4)
    return loss, grads, cache


def input_gradient(m: ModelParams, pg: PreparedGraph, readout: str = "avg") -> np.ndarray:
    """Exact gradient of the output probability with respect to every feature entry."""
    cache = _forward_batch(m, [pg], readout)
    dz4 = cache.p * (1.0 - cache.p)  # d sigmoid / d z4
    _, input_grads = _backward_batch(m, cache, dz4, need_input_grads=True)
    return input_grads[0]


def score_prepared(m: ModelParams, prepared: list, readout: str = "avg") -> np.ndarray:
    """Malware probabilities for a list of PreparedGraph, one forward pass per graph.

    At inference a per-graph forward is faster than one over the stacked
    batch, and it makes a graph's score independent of what it is scored with.
    """
    return np.array([_forward_batch(m, [pg], readout).p[0] for pg in prepared], dtype=np.float64)


def score_graphs(m: ModelParams, graphs, vocab: Vocabulary, readout: str = "avg") -> np.ndarray:
    """Malware probabilities for raw graphs, each normalized, prepared and scored in turn.

    Only one prepared graph is alive at a time, so memory does not grow with
    the number of graphs.
    """
    return np.array(
        [score_prepared(m, [prepare_fcg(normalize_fcg(g), vocab)], readout)[0] for g in graphs], dtype=np.float64
    )


# ---------------------------------------------------------------------------
# Model file: versioned text format with full round-trip precision
# ---------------------------------------------------------------------------


def _format_row(row: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in row)


def save_model(m: ModelParams, path, vocab: Vocabulary) -> None:
    """Write dims, flags, the vocabulary content hash, and all weights losslessly."""
    d, h1, h2, hg = m.dims
    matrices = [
        ("w_gcn1", m.w_gcn1),
        ("w_gcn2", m.w_gcn2),
        ("w_hidden", m.w_hidden),
        ("b_hidden", m.b_hidden.reshape(1, -1)),
        ("w_out", m.w_out.reshape(-1, 1)),
        ("b_out", m.b_out.reshape(1, 1)),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MODEL_HEADER}\n")
        fh.write(f"dims {d} {h1} {h2} {hg}\n")
        fh.write(f"flags nonneg_gcn={int(m.nonneg_gcn)} nonneg_gclf={int(m.nonneg_gclf)}\n")
        fh.write(f"vocab_sha256 {vocabulary_digest(vocab)}\n")
        for name, matrix in matrices:
            fh.write(f"matrix {name} {matrix.shape[0]} {matrix.shape[1]}\n")
            for row in matrix:
                fh.write(_format_row(row) + "\n")


def load_model(path, vocab: Vocabulary) -> ModelParams:
    """Read a model file, verifying structure, the vocabulary hash, finite weights and the flags."""
    lines = read_lines(path)

    def fail(msg):
        raise ModelIOError(f"{path}: {msg}")

    if not lines or lines[0] != MODEL_HEADER:
        fail("missing or unsupported model header")
    try:
        dims_parts = lines[1].split()
        assert dims_parts[0] == "dims" and len(dims_parts) == 5
        d, h1, h2, hg = (int(v) for v in dims_parts[1:])
        flag_parts = dict(part.split("=", 1) for part in lines[2].split()[1:])
        nonneg_gcn = bool(int(flag_parts["nonneg_gcn"]))
        nonneg_gclf = bool(int(flag_parts["nonneg_gclf"]))
        hash_parts = lines[3].split()
        assert hash_parts[0] == "vocab_sha256" and len(hash_parts) == 2
        stored_hash = hash_parts[1]
    except (IndexError, ValueError, KeyError, AssertionError):
        fail("corrupt model preamble")
    if min(d, h1, h2, hg) < 1:
        fail(f"dims must be positive, got {d} {h1} {h2} {hg}")

    expected = vocabulary_digest(vocab)
    if stored_hash != expected:
        fail(f"vocabulary hash mismatch (model {stored_hash[:12]}..., supplied {expected[:12]}...)")
    if d != vocab.size:
        fail(f"dims give d={d}, but the vocabulary has {vocab.size} tokens")

    expected_shapes = {
        "w_gcn1": (d, h1),
        "w_gcn2": (h1, h2),
        "w_hidden": (h2, hg),
        "b_hidden": (1, hg),
        "w_out": (hg, 1),
        "b_out": (1, 1),
    }
    matrices: dict[str, np.ndarray] = {}
    pos = 4
    for name in ("w_gcn1", "w_gcn2", "w_hidden", "b_hidden", "w_out", "b_out"):
        if pos >= len(lines):
            fail(f"truncated file: missing matrix {name}")
        header = lines[pos].split()
        if len(header) != 4 or header[0] != "matrix" or header[1] != name:
            fail(f"expected matrix header for {name} at line {pos + 1}")
        try:
            rows, cols = int(header[2]), int(header[3])
        except ValueError:
            fail(f"matrix {name} has a non-integer shape {header[2]}x{header[3]}")
        if (rows, cols) != expected_shapes[name]:
            fail(f"matrix {name} has shape {rows}x{cols}, expected {expected_shapes[name]}")
        pos += 1
        if pos + rows > len(lines):
            fail(f"truncated file inside matrix {name}")
        # rows are parsed one by one and stacked, so the header's shape allocates nothing
        parsed = []
        for r in range(rows):
            parts = lines[pos + r].split()
            if len(parts) != cols:
                fail(f"matrix {name} row {r} has {len(parts)} values, expected {cols}")
            try:
                parsed.append(np.array([float(v) for v in parts]))
            except ValueError:
                fail(f"matrix {name} row {r}: unparseable value")
        data = np.array(parsed)
        if not np.isfinite(data).all():
            fail(f"matrix {name} has a non-finite value")
        matrices[name] = data
        pos += rows
    if pos != len(lines):
        fail("trailing content after final matrix")

    params = ModelParams(
        w_gcn1=matrices["w_gcn1"],
        w_gcn2=matrices["w_gcn2"],
        w_hidden=matrices["w_hidden"],
        b_hidden=matrices["b_hidden"][0],
        w_out=matrices["w_out"][:, 0],
        b_out=matrices["b_out"][0],
        nonneg_gcn=nonneg_gcn,
        nonneg_gclf=nonneg_gclf,
    )
    for name in params.governed_names():
        if (getattr(params, name) < 0.0).any():
            fail(f"{name} has negative entries, but the flags say it is non-negative")
    return params
