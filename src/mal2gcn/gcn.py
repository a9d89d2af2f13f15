"""Two-layer graph-convolution classifier: normalized adjacency, forward pass,
exact backpropagation, non-negative projection, and model file I/O.

A model carries its whole architecture: its weights give the layer sizes,
and its projection flags and readout (avg, sum or max over the nodes) are
fields saved in the model file, so every forward and backward pass reads
them from the model.  A model file is read one line at a time, each row
parsed into its place in its matrix, so loading holds the weights and a line.

A graph's adjacency, token counts and their product are CSR matrices built
from index arrays, so its memory grows with nodes + edges, not nodes squared;
weights and activations are dense float64.  Each ReLU runs in place, and
backward masks with the activation, since relu(z) > 0 exactly where z > 0.
A forward pass keeps h1 only until adjacency @ h1 exists and caches its sign,
so it ends holding two per-node arrays (adjacency @ h1 and h2).  Backward
masks each gradient in place and releases each activation and gradient after
its last read, so a training step holds about two N x h1 arrays at its peak.

The convolution layers carry no bias; the classifier head does, and biases
are exempt from the non-negative projection because an additive constant
never breaks monotonicity.
"""

from contextlib import closing
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np
from scipy import sparse
from scipy.special import expit

from .fcg import DataError, Fcg, normalize_fcg, read_lines, write_lines
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
    """All weights of the convolution stack and classifier head, the projection flags and the readout."""

    w_gcn1: np.ndarray  # (d, h1)
    w_gcn2: np.ndarray  # (h1, h2)
    w_hidden: np.ndarray  # (h2, hg)
    b_hidden: np.ndarray  # (hg,)
    w_out: np.ndarray  # (hg,)
    b_out: np.ndarray  # (1,)
    nonneg_gcn: bool = False
    nonneg_gclf: bool = False
    readout: str = "avg"  # one of READOUTS

    def __post_init__(self):
        if self.readout not in READOUTS:
            raise ValueError(f"unknown readout {self.readout!r}; expected one of {', '.join(READOUTS)}")

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
        return replace(self, **{name: value.copy() for name, value in self.weights().items()})


def init_params(
    d: int,
    h1: int,
    h2: int,
    hg: int,
    nonneg_gcn: bool,
    nonneg_gclf: bool,
    rng: np.random.Generator,
    readout: str = "avg",
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
        readout=readout,
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
    ax_stack: sparse.csr_matrix  # (N, d) vertically stacked adjacency @ features
    adj_block: sparse.csr_matrix  # (N, N) block-diagonal normalized adjacency
    h1_on: np.ndarray  # (N, h1) bool, h1 > 0 where h1 = relu(ax_stack @ w_gcn1)
    m2: np.ndarray | None  # (N, h1) adjacency @ h1; None once backward has read it
    h2: np.ndarray | None  # (N, h2) relu(m2 @ w_gcn2); None once backward has read it
    g: np.ndarray  # (B, h2) graph readout
    hh: np.ndarray  # (B, hg) relu(g @ w_hidden + b_hidden)
    z4: np.ndarray  # (B,) output logit
    p: np.ndarray  # (B,)


def _forward_batch(m: ModelParams, prepared: list) -> _BatchCache:
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

    # each relu runs in place on the product just allocated for it, never on a
    # weight or a PreparedGraph field, so no pre-activation stays alive; backward
    # reads h1 only through relu's derivative, so only its sign outlives m2
    h1 = ax_stack @ m.w_gcn1
    np.maximum(h1, 0.0, out=h1)
    m2 = adj_block @ h1
    h1_on = h1 > 0.0
    del h1
    h2 = m2 @ m.w_gcn2
    np.maximum(h2, 0.0, out=h2)

    starts = offsets[:-1]
    if m.readout == "avg":
        g = np.add.reduceat(h2, starts, axis=0) / sizes[:, None]
    elif m.readout == "sum":
        g = np.add.reduceat(h2, starts, axis=0)
    else:
        g = np.maximum.reduceat(h2, starts, axis=0)

    hh = g @ m.w_hidden + m.b_hidden
    np.maximum(hh, 0.0, out=hh)
    z4 = hh @ m.w_out + m.b_out[0]
    p = expit(z4)
    return _BatchCache(prepared, sizes, offsets, ax_stack, adj_block, h1_on, m2, h2, g, hh, z4, p)


def _backward_batch(m: ModelParams, cache: _BatchCache, dz4: np.ndarray, need_input_grads: bool = False):
    """Exact gradients for a batch given d(objective)/d(z4) per sample.

    Consumes the cache's per-node activations: m2 and h2 are set to None after
    their last read, so a cache serves one backward pass.  Each gradient is
    masked in place and released after its last read.

    Returns (grads keyed like ModelParams.weights(), input gradient list or None).
    """
    offsets = cache.offsets
    prepared = cache.prepared

    d_w_out = cache.hh.T @ dz4
    d_b_out = np.array([dz4.sum()])
    d_hh = np.outer(dz4, m.w_out)
    d_z3 = d_hh * (cache.hh > 0.0)
    d_w_hidden = cache.g.T @ d_z3
    d_b_hidden = d_z3.sum(axis=0)
    d_g = d_z3 @ m.w_hidden.T

    if m.readout == "avg":
        d_h2 = np.repeat(d_g / cache.sizes[:, None], cache.sizes, axis=0)
    elif m.readout == "sum":
        d_h2 = np.repeat(d_g, cache.sizes, axis=0)
    else:
        # subgradient at the (first) argmax row of each column
        d_h2 = np.zeros_like(cache.h2)
        cols = np.arange(d_h2.shape[1])
        for i in range(len(prepared)):
            lo, hi = offsets[i], offsets[i + 1]
            winners = cache.h2[lo:hi].argmax(axis=0)
            d_h2[lo + winners, cols] = d_g[i]

    d_h2 *= cache.h2 > 0.0  # now the gradient of h2's pre-activation
    d_w_gcn2 = cache.m2.T @ d_h2
    cache.m2 = cache.h2 = None
    d_m2 = d_h2 @ m.w_gcn2.T
    del d_h2

    d_h1 = cache.adj_block.T @ d_m2
    del d_m2
    d_h1 *= cache.h1_on  # now the gradient of h1's pre-activation
    d_w_gcn1 = cache.ax_stack.T @ d_h1

    input_grads = None
    if need_input_grads:
        input_grads = []
        for i, pg in enumerate(prepared):
            input_grads.append(pg.adj.T @ (d_h1[offsets[i] : offsets[i + 1]] @ m.w_gcn1.T))

    grads = {
        "w_gcn1": d_w_gcn1,
        "w_gcn2": d_w_gcn2,
        "w_hidden": d_w_hidden,
        "b_hidden": d_b_hidden,
        "w_out": d_w_out,
        "b_out": d_b_out,
    }
    return grads, input_grads


def forward(m: ModelParams, pg: PreparedGraph):
    """Score one prepared graph; returns (malware probability, cache for backprop)."""
    cache = _forward_batch(m, [pg])
    return float(cache.p[0]), cache


def cross_entropy(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of probabilities `p` against 0/1 labels `y`, p clamped to (eps, 1-eps)."""
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


def batch_loss_and_gradients(m: ModelParams, prepared: list, labels: np.ndarray):
    """Mean clamped cross-entropy, its exact parameter gradients, and the probabilities over prepared graphs.

    Returns (loss, grads keyed like ModelParams.weights(), (B,) probabilities).
    """
    cache = _forward_batch(m, prepared)
    y = np.asarray(labels, dtype=np.float64)
    loss = cross_entropy(cache.p, y)
    # the clamp has zero derivative outside (eps, 1-eps)
    inside = (cache.p > PROB_CLAMP) & (cache.p < 1.0 - PROB_CLAMP)
    dz4 = np.where(inside, cache.p - y, 0.0) / len(prepared)
    grads, _ = _backward_batch(m, cache, dz4)
    return loss, grads, cache.p


def input_gradient(m: ModelParams, pg: PreparedGraph) -> np.ndarray:
    """Exact gradient of the output probability with respect to every feature entry."""
    return _scored_input_gradient(m, pg)[2]


def _scored_input_gradient(m: ModelParams, pg: PreparedGraph):
    """(probability, logit z4, input gradient) of one prepared graph from a single forward pass."""
    cache = _forward_batch(m, [pg])
    dz4 = cache.p * (1.0 - cache.p)  # d sigmoid / d z4
    _, input_grads = _backward_batch(m, cache, dz4, need_input_grads=True)
    return float(cache.p[0]), cache.z4[0], input_grads[0]


def score_prepared(m: ModelParams, prepared: list) -> np.ndarray:
    """Malware probabilities for a list of PreparedGraph, one forward pass per graph.

    At inference a per-graph forward is faster than one over the stacked
    batch, and it makes a graph's score independent of what it is scored with.
    """
    return np.array([_forward_batch(m, [pg]).p[0] for pg in prepared], dtype=np.float64)


def score_graphs(m: ModelParams, graphs, vocab: Vocabulary) -> np.ndarray:
    """Malware probabilities for raw graphs, each normalized, prepared and scored in turn.

    Only one prepared graph is alive at a time, so memory does not grow with
    the number of graphs.
    """
    return np.array(
        [score_prepared(m, [prepare_fcg(normalize_fcg(g), vocab)])[0] for g in graphs], dtype=np.float64
    )


# ---------------------------------------------------------------------------
# Model file: versioned text format with full round-trip precision
# ---------------------------------------------------------------------------


def _file_shapes(dims: tuple[int, int, int, int]) -> dict[str, tuple[int, int]]:
    """Each weight's 2-D shape in the model file of a model with these dims, in file order."""
    d, h1, h2, hg = dims
    return {"w_gcn1": (d, h1), "w_gcn2": (h1, h2), "w_hidden": (h2, hg),
            "b_hidden": (1, hg), "w_out": (hg, 1), "b_out": (1, 1)}


def save_model(m: ModelParams, path, vocab: Vocabulary) -> None:
    """Write dims, flags (projection and readout), the vocabulary content hash, and all weights losslessly."""

    def lines():
        yield MODEL_HEADER
        yield "dims " + " ".join(map(str, m.dims))
        yield f"flags nonneg_gcn={int(m.nonneg_gcn)} nonneg_gclf={int(m.nonneg_gclf)} readout={m.readout}"
        yield f"vocab_sha256 {vocabulary_digest(vocab)}"
        for name, (rows, cols) in _file_shapes(m.dims).items():
            yield f"matrix {name} {rows} {cols}"
            for row in getattr(m, name).reshape(rows, cols):
                yield " ".join(repr(float(v)) for v in row)

    write_lines(path, lines())


def load_model(path, vocab: Vocabulary) -> ModelParams:
    """Read a model file, verifying structure, the vocabulary hash, finite weights and the flags.

    The flags line must start with `flags`, name no key twice and give each
    projection flag as 0 or 1; keys it does not know are ignored.  A flags
    line without readout= is from before the readout was saved, when every
    command scored with avg by default, so it loads as avg.
    """
    def fail(msg):
        raise ModelIOError(f"{path}: {msg}")

    with closing(read_lines(path)) as lines:
        if next(lines, None) != MODEL_HEADER:
            fail("missing or unsupported model header")
        try:
            dims_parts, flag_words, hash_parts = [line.split() for line in islice(lines, 3)]
            d, h1, h2, hg = (int(v) for v in dims_parts[1:])
            pairs = [part.split("=", 1) for part in flag_words[1:]]
            flag_parts = dict(pairs)
            nonneg_gcn, nonneg_gclf = ({"0": False, "1": True}[flag_parts[k]] for k in ("nonneg_gcn", "nonneg_gclf"))
            readout = flag_parts.get("readout", "avg")
            _, stored_hash = hash_parts
            keywords = (dims_parts[0], flag_words[0], hash_parts[0])
        except (IndexError, ValueError, KeyError):
            fail("corrupt model preamble")
        if keywords != ("dims", "flags", "vocab_sha256") or len(flag_parts) != len(pairs):  # a repeated flag key
            fail("corrupt model preamble")
        if min(d, h1, h2, hg) < 1:
            fail(f"dims must be positive, got {d} {h1} {h2} {hg}")

        expected = vocabulary_digest(vocab)
        if stored_hash != expected:
            fail(f"vocabulary hash mismatch (model {stored_hash[:12]}..., supplied {expected[:12]}...)")
        if d != vocab.size:
            fail(f"dims give d={d}, but the vocabulary has {vocab.size} tokens")

        matrices: dict[str, np.ndarray] = {}
        pos = 4  # lines read so far
        for name, shape in _file_shapes((d, h1, h2, hg)).items():
            header = next(lines, None)
            if header is None:
                fail(f"truncated file: missing matrix {name}")
            header = header.split()
            if len(header) != 4 or header[0] != "matrix" or header[1] != name:
                fail(f"expected matrix header for {name} at line {pos + 1}")
            try:
                rows, cols = int(header[2]), int(header[3])
            except ValueError:
                fail(f"matrix {name} has a non-integer shape {header[2]}x{header[3]}")
            if (rows, cols) != shape:
                fail(f"matrix {name} has shape {rows}x{cols}, expected {shape}")
            for r in range(rows):
                line = next(lines, None)
                if line is None:
                    fail(f"truncated file inside matrix {name}")
                parts = line.split()
                if len(parts) != cols:
                    fail(f"matrix {name} row {r} has {len(parts)} values, expected {cols}")
                if r == 0:  # allocated only once a row holds the column count the header claims
                    try:
                        data = np.empty(shape)
                    except MemoryError:
                        fail(f"matrix {name} of shape {rows}x{cols} does not fit in memory")
                try:
                    data[r] = np.array(parts, dtype=np.float64)
                except ValueError:
                    fail(f"matrix {name} row {r}: unparseable value")
            if not np.isfinite(data).all():
                fail(f"matrix {name} has a non-finite value")
            matrices[name] = data
            pos += 1 + rows
        if next(lines, None) is not None:
            fail("trailing content after final matrix")

    try:
        params = ModelParams(
            w_gcn1=matrices["w_gcn1"],
            w_gcn2=matrices["w_gcn2"],
            w_hidden=matrices["w_hidden"],
            b_hidden=matrices["b_hidden"][0],
            w_out=matrices["w_out"][:, 0],
            b_out=matrices["b_out"][0],
            nonneg_gcn=nonneg_gcn,
            nonneg_gclf=nonneg_gclf,
            readout=readout,
        )
    except ValueError as exc:  # the readout
        fail(str(exc))
    for name in params.governed_names():
        if (getattr(params, name) < 0.0).any():
            fail(f"{name} has negative entries, but the flags say it is non-negative")
    return params
