import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st
from scipy import sparse
from scipy.special import expit

from mal2gcn.fcg import Fcg, FunctionNode
from mal2gcn.featurize import Vocabulary, embed_graph, vocabulary_digest
from mal2gcn.gcn import (
    MODEL_HEADER,
    PROB_CLAMP,
    READOUTS,
    ModelIOError,
    ModelParams,
    NormalizedAdjacency,
    batch_loss_and_gradients,
    build_normalized_adjacency,
    cross_entropy,
    forward,
    input_gradient,
    load_model,
    prepare_fcg,
    prepare_graph,
    project_nonnegative,
    save_model,
    score_prepared,
)

from conftest import (
    adjacency_array,
    adjacency_from_dense,
    brute_force_normalized_adjacency,
    dense_counts,
    dense_normalized_adjacency,
    fd_param_grads,
    make_safe_instance,
    random_params,
    rel_err,
)


def chain_graph(n, extra_edges=()):
    ids = [f"n{i}" for i in range(n)]
    nodes = tuple(FunctionNode(i) for i in ids)
    edges = tuple((ids[i], ids[i + 1]) for i in range(n - 1)) + tuple(extra_edges)
    return Fcg("g", None, ids[0], nodes, edges)


class TestNormalizedAdjacency:
    def test_single_node(self):
        adj = build_normalized_adjacency(chain_graph(1))
        assert adjacency_array(adj).tolist() == [[1.0]]

    def test_two_nodes_one_edge(self):
        adj = adjacency_array(build_normalized_adjacency(chain_graph(2)))
        assert np.allclose(adj, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_three_node_path(self):
        adj = adjacency_array(build_normalized_adjacency(chain_graph(3)))
        expected = np.array(
            [
                [0.5, 1 / np.sqrt(6), 0.0],
                [1 / np.sqrt(6), 1 / 3, 1 / np.sqrt(6)],
                [0.0, 1 / np.sqrt(6), 0.5],
            ]
        )
        assert np.allclose(adj, expected, atol=1e-12)
        assert adj[0, 2] == 0.0

    def test_matches_brute_force_on_random_topologies(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            edges = []
            for _ in range(int(rng.integers(0, 10))):
                edges.append((int(rng.integers(n)), int(rng.integers(n))))
            ids = [f"n{i}" for i in range(n)]
            g = Fcg(
                "g", None, ids[0], tuple(FunctionNode(i) for i in ids),
                tuple((ids[a], ids[b]) for a, b in edges if a != b),
            )
            mine = adjacency_array(build_normalized_adjacency(g))
            oracle = brute_force_normalized_adjacency(n, [(a, b) for a, b in edges if a != b])
            assert np.abs(mine - oracle).max() < 1e-12

    def test_symmetric_and_positive_diagonal(self):
        adj = adjacency_array(build_normalized_adjacency(chain_graph(5, [("n0", "n3")])))
        assert np.allclose(adj, adj.T)
        assert (np.diag(adj) > 0).all()


S30 = "0123456789abcdefghijklmnopqrst"  # exactly the 30-character limit
EDGE_VOCAB = Vocabulary(
    ("createfilew", "regsetvaluea", "ntclose"),
    ("abcd", S30, S30[:29]),
    (1.0, 1.0, 1.0),
    (1.0, 1.0, 1.0),
    3,
    3,
)


def edge_case_graphs():
    node = FunctionNode
    tokens = node("t", ("CreateFileW", "createfilew", "NtUnknown", "RegSetValueA"), ("abc", "ABCD", "abcd", "zzzz"))
    limits = node("s", (), (S30, S30 + "u", S30.upper() + "UVW", S30[:29], S30[:3]))
    return {
        "duplicate_edges_both_ways": Fcg(
            "g", None, "a", (node("a", ("NtClose",)), node("b"), node("c")),
            (("a", "b"), ("a", "b"), ("b", "a"), ("c", "b"), ("b", "c")),
        ),
        "self_edge": Fcg("g", None, "a", (node("a"), tokens), (("a", "a"), ("a", "t"), ("t", "t"))),
        "isolated_nodes": Fcg("g", None, "a", (node("a"), node("x"), tokens, node("y"), limits), (("a", "t"),)),
        "one_node": Fcg("g", None, "t", (tokens,), ()),
        "one_node_self_edge": Fcg("g", None, "s", (limits,), (("s", "s"),)),
        "repeated_and_oov_tokens": Fcg(
            "g", None, "t", (tokens, node("u", ("NtUnknown",) * 3, ("none of these",)), limits),
            (("t", "u"), ("u", "s"), ("t", "s")),
        ),
    }


class TestSparsePreparationOracle:
    """Sparse adjacency, counts and A @ X against the dense constructions they replaced."""

    @pytest.mark.parametrize("case", sorted(edge_case_graphs()))
    def test_matches_dense_reference(self, case):
        g = edge_case_graphs()[case]
        adj = build_normalized_adjacency(g)
        assert adjacency_array(adj).tobytes() == dense_normalized_adjacency(g).tobytes()
        counts = embed_graph(g, EDGE_VOCAB).counts
        dense = dense_counts(g, EDGE_VOCAB)
        assert counts.dtype == dense.dtype
        assert counts.toarray().tobytes() == dense.tobytes()
        pg = prepare_graph(adj, counts)
        for r in range(pg.n):
            assert (np.diff(pg.ax.indices[pg.ax.indptr[r] : pg.ax.indptr[r + 1]]) > 0).all()
        assert np.abs(pg.ax.toarray() - adjacency_array(adj) @ dense).max() <= 1e-12

    def test_edge_cases_have_tokens_at_the_string_limits(self):
        counts = embed_graph(edge_case_graphs()["one_node_self_edge"], EDGE_VOCAB).counts.toarray()
        # S30 and its 31- and 33-character extensions (one upper-cased) count as S30; S30[:3] is dropped
        assert counts.tolist() == [[0, 0, 0, 0, 3, 1]]


class TestPreparationMemory:
    """Preparing a graph takes memory linear in nodes + edges (a dense n x n array here is 80 GB)."""

    @pytest.mark.parametrize("shape", ["chain", "star"])
    def test_100k_node_graph_prepares_in_under_64_mb(self, shape):
        ids = [f"f{i}" for i in range(100_000 if shape == "chain" else 100_001)]  # the star has 100k callees
        nodes = tuple(
            FunctionNode(f, ("CreateFileW", "NtClose") if i % 1000 == 0 else (), ("abcd",) if i % 777 == 0 else ())
            for i, f in enumerate(ids)
        )
        edges = tuple(zip(ids, ids[1:])) if shape == "chain" else tuple((ids[0], f) for f in ids[1:])
        g = Fcg("big", None, ids[0], nodes, edges)
        tracemalloc.start()
        try:
            pg = prepare_fcg(g, EDGE_VOCAB)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pg.adj.nnz == len(ids) + 2 * (len(ids) - 1)
        assert pg.ax.shape == (len(ids), EDGE_VOCAB.size)
        assert peak < 64 * 2**20


class TestForwardMemory:
    """A forward pass holds at most three per-node arrays: h1 is released once adjacency @ h1 exists."""

    def test_20k_node_chain_scores_within_three_live_activations(self):
        n, d, h1, h2 = 20_000, 8, 64, 32
        rng = np.random.default_rng(0)
        m = random_params(rng, d, h1, h2, 8)
        pg = prepare_graph(build_normalized_adjacency(chain_graph(n)), rng.integers(0, 3, size=(n, d)))
        tracemalloc.start()
        try:
            score_prepared(m, [pg])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * (2 * h1 + h2) * n * 8


class TestTrainingStepMemory:
    """A training step holds about two N x h1 arrays at its peak, for every readout.

    The bound of three lies between this step (about 2.25 here) and one that
    keeps every activation to its end with a fresh array per relu mask (5.6).
    """

    @pytest.mark.parametrize("readout", READOUTS)
    def test_step_peaks_within_three_n_by_h1_arrays(self, readout):
        n, b, d, h1, h2, hg = 150, 8, 20, 400, 40, 4
        rng = np.random.default_rng(0)
        m = replace(random_params(rng, d, h1, h2, hg, scale=0.3), readout=readout)
        adj = build_normalized_adjacency(chain_graph(n))
        prepared = [prepare_graph(adj, rng.integers(0, 3, size=(n, d))) for _ in range(b)]
        labels = np.arange(b) % 2
        batch_loss_and_gradients(m, prepared, labels)  # warm-up: first-call allocations are not the step's
        tracemalloc.start()
        try:
            batch_loss_and_gradients(m, prepared, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * b * n * h1 * 8


def reference_pass(m, prepared, dz4_of):
    """Forward and backward with every activation kept and each relu mask a fresh array.

    dz4_of maps the (B,) probabilities to d(objective)/d(z4); returns
    (probabilities, parameter gradients, per-graph input gradients).
    """
    sizes = np.array([pg.n for pg in prepared])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    if len(prepared) == 1:
        ax, adj = prepared[0].ax, prepared[0].adj
    else:
        ax = sparse.vstack([pg.ax for pg in prepared], format="csr")
        adj = sparse.block_diag([pg.adj for pg in prepared], format="csr")
    h1 = np.maximum(ax @ m.w_gcn1, 0.0)
    m2 = adj @ h1
    h2 = np.maximum(m2 @ m.w_gcn2, 0.0)
    starts = offsets[:-1]
    if m.readout == "avg":
        g = np.add.reduceat(h2, starts, axis=0) / sizes[:, None]
    elif m.readout == "sum":
        g = np.add.reduceat(h2, starts, axis=0)
    else:
        g = np.maximum.reduceat(h2, starts, axis=0)
    hh = np.maximum(g @ m.w_hidden + m.b_hidden, 0.0)
    p = expit(hh @ m.w_out + m.b_out[0])

    dz4 = dz4_of(p)
    d_z3 = np.outer(dz4, m.w_out) * (hh > 0.0)
    d_g = d_z3 @ m.w_hidden.T
    if m.readout == "avg":
        d_h2 = np.repeat(d_g / sizes[:, None], sizes, axis=0)
    elif m.readout == "sum":
        d_h2 = np.repeat(d_g, sizes, axis=0)
    else:
        d_h2 = np.zeros_like(h2)
        cols = np.arange(d_h2.shape[1])
        for i in range(len(prepared)):
            winners = h2[offsets[i] : offsets[i + 1]].argmax(axis=0)
            d_h2[offsets[i] + winners, cols] = d_g[i]
    d_z2 = d_h2 * (h2 > 0.0)
    d_m2 = d_z2 @ m.w_gcn2.T
    d_h1 = adj.T @ d_m2
    d_z1 = d_h1 * (h1 > 0.0)
    grads = {
        "w_gcn1": ax.T @ d_z1,
        "w_gcn2": m2.T @ d_z2,
        "w_hidden": g.T @ d_z3,
        "b_hidden": d_z3.sum(axis=0),
        "w_out": hh.T @ dz4,
        "b_out": np.array([dz4.sum()]),
    }
    input_grads = [
        pg.adj.T @ (d_z1[offsets[i] : offsets[i + 1]] @ m.w_gcn1.T) for i, pg in enumerate(prepared)
    ]
    return p, grads, input_grads


class TestInPlaceBackward:
    """The in-place masks and early releases change no bit of any gradient or probability."""

    @staticmethod
    def batch(rng, d):
        prepared = []
        for n in (7, 12, 5):
            extra = [(f"n{rng.integers(n)}", f"n{rng.integers(n)}") for _ in range(n)]
            adj = build_normalized_adjacency(chain_graph(n, extra))
            prepared.append(prepare_graph(adj, rng.integers(0, 4, size=(n, d))))
        return prepared

    @pytest.mark.parametrize("nonneg", [False, True], ids=["plain", "nonneg"])
    @pytest.mark.parametrize("readout", READOUTS)
    def test_batch_gradients_bitwise_equal_reference(self, readout, nonneg):
        rng = np.random.default_rng(21)
        d = 9
        m = replace(random_params(rng, d, 16, 8, 4, nonneg=nonneg, scale=0.5), readout=readout)
        prepared = self.batch(rng, d)
        labels = np.array([1.0, 0.0, 1.0])

        def dz4_of(p):
            inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
            return np.where(inside, p - labels, 0.0) / len(prepared)

        loss, grads, p = batch_loss_and_gradients(m, prepared, labels)
        ref_p, ref_grads, _ = reference_pass(m, prepared, dz4_of)
        assert p.tobytes() == ref_p.tobytes()
        assert loss == cross_entropy(ref_p, labels)
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert grad.tobytes() == ref_grads[name].tobytes(), name

    @pytest.mark.parametrize("nonneg", [False, True], ids=["plain", "nonneg"])
    @pytest.mark.parametrize("readout", READOUTS)
    def test_input_gradient_bitwise_equal_reference(self, readout, nonneg):
        rng = np.random.default_rng(22)
        d = 9
        m = replace(random_params(rng, d, 16, 8, 4, nonneg=nonneg, scale=0.5), readout=readout)
        pg = self.batch(rng, d)[1]
        _, _, ref_input_grads = reference_pass(m, [pg], lambda p: p * (1.0 - p))
        assert input_gradient(m, pg).tobytes() == ref_input_grads[0].tobytes()


def tiny_identity_model():
    return ModelParams(
        w_gcn1=np.ones((1, 1)),
        w_gcn2=np.ones((1, 1)),
        w_hidden=np.ones((1, 1)),
        b_hidden=np.zeros(1),
        w_out=np.ones(1),
        b_out=np.zeros(1),
    )


class TestForward:
    def test_zero_output_head_gives_half(self, rng):
        m = random_params(rng, d=3, h1=4, h2=3, hg=2)
        m.w_out[:] = 0.0
        m.b_out[:] = 0.0
        adj = build_normalized_adjacency(chain_graph(2))
        p, _ = forward(m, prepare_graph(adj, np.ones((2, 3))))
        assert p == 0.5

    def test_hand_evaluated_composition(self):
        adj = NormalizedAdjacency(1, values=np.array([1.0]), indices=np.array([0]), indptr=np.array([0, 1]))
        p, _ = forward(tiny_identity_model(), prepare_graph(adj, np.array([[2.0]])))
        assert p == pytest.approx(0.8807970779778823, abs=1e-15)

    def test_doubling_features_never_lowers_nonneg_score(self, rng):
        for _ in range(20):
            m = random_params(rng, d=5, h1=4, h2=3, hg=3, nonneg=True)
            g = chain_graph(4, [("n0", "n2")])
            adj = build_normalized_adjacency(g)
            x = rng.integers(0, 4, size=(4, 5)).astype(float)
            for readout in ("avg", "sum", "max"):
                m = replace(m, readout=readout)
                p1, _ = forward(m, prepare_graph(adj, x))
                p2, _ = forward(m, prepare_graph(adj, 2 * x))
                assert p2 >= p1

    @pytest.mark.parametrize("readout", ["avg", "sum", "max"])
    def test_empty_called_function_can_lower_a_nonneg_score(self, readout):
        # the monotonicity certificate holds for a fixed call graph only: an empty
        # function called from n1 changes the normalization and lowers the score
        rng = np.random.default_rng(0)
        d, h1, h2, hg = 3, 2, 2, 2
        m = ModelParams(
            w_gcn1=rng.random((d, h1)),
            w_gcn2=rng.random((h1, h2)),
            w_hidden=rng.random((h2, hg)),
            b_hidden=rng.random(hg),
            w_out=rng.random(hg),
            b_out=rng.random(1) - 2.0,
            nonneg_gcn=True,
            nonneg_gclf=True,
            readout=readout,
        )
        x = rng.integers(0, 3, size=(2, d)).astype(float)
        before, _ = forward(m, prepare_graph(build_normalized_adjacency(chain_graph(2)), x))
        after, _ = forward(m, prepare_graph(build_normalized_adjacency(chain_graph(3)), np.vstack([x, np.zeros(d)])))
        assert after < before - 1e-3

    def test_dimension_mismatch_rejected(self, rng):
        m = random_params(rng, d=3, h1=2, h2=2, hg=2)
        adj = build_normalized_adjacency(chain_graph(2))
        with pytest.raises(ValueError):
            forward(m, prepare_graph(adj, np.ones((2, 5))))
        with pytest.raises(ValueError):
            prepare_graph(adj, np.ones((3, 3)))

    def test_unknown_readout_rejected(self, rng):
        m = random_params(rng, d=2, h1=2, h2=2, hg=2)
        with pytest.raises(ValueError):
            replace(m, readout="median")

    def test_permutation_invariance(self, rng):
        for readout in ("avg", "sum", "max"):
            m = replace(random_params(rng, d=4, h1=3, h2=3, hg=2), readout=readout)
            g = chain_graph(5, [("n4", "n1")])
            adj = build_normalized_adjacency(g)
            x = rng.normal(size=(5, 4)) ** 2
            p, _ = forward(m, prepare_graph(adj, x))
            perm = rng.permutation(5)
            adj_p = adjacency_from_dense(adjacency_array(adj)[np.ix_(perm, perm)])
            p2, _ = forward(m, prepare_graph(adj_p, x[perm]))
            assert p2 == pytest.approx(p, abs=1e-9)


class TestScorePrepared:
    @pytest.mark.parametrize("readout", ["avg", "sum", "max"])
    def test_list_scores_bitwise_equal_single_graph_scores(self, readout):
        # a graph's score must not depend on the graphs it is scored with
        rng = np.random.default_rng(7)
        d = 64
        m = replace(random_params(rng, d, 48, 32, 16, scale=0.3), readout=readout)
        prepared = []
        for _ in range(40):
            n = int(rng.integers(2, 30))
            extra = [(f"n{rng.integers(n)}", f"n{rng.integers(n)}") for _ in range(n)]
            adj = build_normalized_adjacency(chain_graph(n, extra))
            prepared.append(prepare_graph(adj, rng.integers(0, 3, size=(n, d))))
        together = score_prepared(m, prepared)
        alone = np.array([score_prepared(m, [pg])[0] for pg in prepared])
        assert together.tobytes() == alone.tobytes()


class TestGradients:
    @pytest.mark.parametrize("readout", ["avg", "sum", "max"])
    def test_parameter_gradients_match_finite_differences(self, readout):
        for seed in range(4):
            m, adj, x, y = make_safe_instance(1000 + seed, readout)
            prepared, labels = [prepare_graph(adj, x)], [y]
            _, analytic, _ = batch_loss_and_gradients(m, prepared, labels)
            numeric = fd_param_grads(m, prepared, labels)
            for name in analytic:
                err = rel_err(analytic[name], numeric[name])
                assert err.max() < 1e-4, f"{name} mismatch at {readout}: {err.max()}"

    def test_multi_sample_batch_gradients_match_finite_differences(self):
        m, adj1, x1, y1 = make_safe_instance(77, "avg")
        _, adj2, x2, y2 = make_safe_instance(78, "avg")
        if x2.shape[1] != x1.shape[1]:
            x2 = np.resize(x2, (x2.shape[0], x1.shape[1]))
        prepared, labels = [prepare_graph(adj1, x1), prepare_graph(adj2, x2)], [y1, y2]
        _, analytic, _ = batch_loss_and_gradients(m, prepared, labels)
        numeric = fd_param_grads(m, prepared, labels)
        for name in analytic:
            assert rel_err(analytic[name], numeric[name]).max() < 1e-4

    def test_batch_grads_equal_mean_of_single_sample_grads(self, rng):
        m = random_params(rng, d=4, h1=3, h2=3, hg=2)
        samples = []
        for i in range(3):
            g = chain_graph(int(rng.integers(1, 5)))
            adj = build_normalized_adjacency(g)
            x = rng.integers(0, 4, size=(adj.n, 4)).astype(float)
            samples.append((prepare_graph(adj, x), int(rng.integers(2))))
        _, batched, _ = batch_loss_and_gradients(m, [pg for pg, _ in samples], [y for _, y in samples])
        singles = [batch_loss_and_gradients(m, [pg], [y])[1] for pg, y in samples]
        for name in batched:
            mean = sum(s[name] for s in singles) / len(singles)
            assert np.allclose(batched[name], mean, atol=1e-12)

    def test_perfect_fit_has_tiny_loss_and_gradients(self, rng):
        m = random_params(rng, d=2, h1=2, h2=2, hg=2)
        m.w_out[:] = 0.0
        m.b_out[:] = 40.0  # p saturates at ~1
        adj = build_normalized_adjacency(chain_graph(2))
        x = np.ones((2, 2))
        loss, grads, _ = batch_loss_and_gradients(m, [prepare_graph(adj, x)], [1])
        assert loss < 1e-6
        for g in grads.values():
            assert np.abs(g).max() < 1e-6

    def test_half_probability_cross_entropy_is_ln2(self, rng):
        m = random_params(rng, d=2, h1=2, h2=2, hg=2)
        m.w_out[:] = 0.0
        m.b_out[:] = 0.0
        adj = build_normalized_adjacency(chain_graph(2))
        loss, _, _ = batch_loss_and_gradients(m, [prepare_graph(adj, np.ones((2, 2)))], [1])
        assert loss == pytest.approx(np.log(2.0), abs=1e-15)


class TestInputGradient:
    def test_matches_finite_differences(self):
        for seed in (5, 6):
            m, adj, x, _ = make_safe_instance(seed, "avg")
            analytic = input_gradient(m, prepare_graph(adj, x))
            step = 1e-4
            numeric = np.zeros_like(x)
            for i in range(x.shape[0]):
                for j in range(x.shape[1]):
                    xp = x.copy()
                    xp[i, j] += step
                    up, _ = forward(m, prepare_graph(adj, xp))
                    xp[i, j] -= 2 * step
                    down, _ = forward(m, prepare_graph(adj, xp))
                    numeric[i, j] = (up - down) / (2 * step)
            assert rel_err(analytic, numeric).max() < 1e-4

    def test_nonneg_model_has_nonneg_input_gradient(self, rng):
        for readout in ("avg", "sum", "max"):
            m = replace(random_params(rng, d=5, h1=4, h2=3, hg=3, nonneg=True), readout=readout)
            adj = build_normalized_adjacency(chain_graph(4))
            x = rng.integers(0, 4, size=(4, 5)).astype(float)
            grad = input_gradient(m, prepare_graph(adj, x))
            assert grad.min() >= 0.0

    def test_zero_output_head_gives_zero_gradient(self, rng):
        m = random_params(rng, d=3, h1=2, h2=2, hg=2)
        m.w_out[:] = 0.0
        adj = build_normalized_adjacency(chain_graph(3))
        grad = input_gradient(m, prepare_graph(adj, np.ones((3, 3))))
        assert np.abs(grad).max() == 0.0


class TestProjection:
    def test_clips_governed_matrices(self):
        m = tiny_identity_model()
        m.w_gcn1 = np.array([[-0.3, 0.2]])
        m.w_gcn2 = np.ones((2, 1))
        m.nonneg_gcn = True
        projected = project_nonnegative(m)
        assert projected.w_gcn1.tolist() == [[0.0, 0.2]]

    def test_identity_when_flags_off(self, rng):
        m = random_params(rng, d=3, h1=2, h2=2, hg=2)
        projected = project_nonnegative(m)
        for name, w in m.weights().items():
            assert np.array_equal(getattr(projected, name), w)

    def test_gclf_only_leaves_gcn_weights_alone(self, rng):
        m = random_params(rng, d=3, h1=2, h2=2, hg=2)
        m.nonneg_gclf = True
        projected = project_nonnegative(m)
        assert np.array_equal(projected.w_gcn1, m.w_gcn1)
        assert projected.w_hidden.min() >= 0.0
        assert projected.w_out.min() >= 0.0

    def test_biases_never_projected(self, rng):
        m = random_params(rng, d=3, h1=2, h2=2, hg=2)
        m.nonneg_gcn = True
        m.nonneg_gclf = True
        m.b_hidden[:] = -1.5
        m.b_out[:] = -2.0
        projected = project_nonnegative(m)
        assert projected.b_hidden.tolist() == [-1.5, -1.5]
        assert projected.b_out.tolist() == [-2.0]

    @given(st.integers(0, 2**32 - 1))
    def test_idempotent_and_entrywise_sound(self, seed):
        rng = np.random.default_rng(seed)
        m = random_params(rng, d=2, h1=2, h2=2, hg=2)
        m.nonneg_gcn = bool(rng.integers(2))
        m.nonneg_gclf = bool(rng.integers(2))
        once = project_nonnegative(m)
        twice = project_nonnegative(once)
        for name in m.weights():
            w0, w1, w2 = getattr(m, name), getattr(once, name), getattr(twice, name)
            assert np.array_equal(w1, w2)  # idempotent
            assert (w1 >= w0).all()  # clipping only moves entries up to zero
            assert (np.abs(w1) <= np.abs(w0)).all()  # and never grows magnitudes


class TestModelIO:
    @pytest.fixture()
    def vocab(self):
        return Vocabulary(("toka", "tokb"), ("long string",), (2.0, 1.0), (1.0,), 2, 1)

    def test_round_trip_is_lossless(self, tmp_path, rng, vocab):
        m = random_params(rng, d=3, h1=4, h2=3, hg=2)
        m.nonneg_gcn = True
        m = project_nonnegative(m)  # a file whose flags lie is rejected on load
        path = tmp_path / "model.txt"
        save_model(m, path, vocab)
        back = load_model(path, vocab)
        assert back.nonneg_gcn and not back.nonneg_gclf
        for name, w in m.weights().items():
            assert np.array_equal(getattr(back, name), w), name

    def test_load_holds_little_beyond_the_weights(self, tmp_path, rng):
        # the file is read line by line into the model's own arrays: neither its text nor a list of rows is kept
        d = 1000
        big = Vocabulary(tuple(f"tok{i:04d}" for i in range(d)), (), (1.0,) * d, (), d, 1)
        m = random_params(rng, d=d, h1=500, h2=250, hg=64)
        path = tmp_path / "model.txt"
        save_model(m, path, big)
        tracemalloc.start()
        try:
            back = load_model(path, big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(getattr(back, name).tobytes() == w.tobytes() for name, w in m.weights().items())
        assert peak <= 2 * sum(w.nbytes for w in m.weights().values())

    def test_matrix_too_large_for_memory_is_refused(self, tmp_path, vocab):
        # row 0 shows the width but not the row count: w_gcn2 claims 10^5 rows of 10^5 values (80 GB)
        wide = 10**5
        row = " ".join(["0.0"] * wide)
        path = tmp_path / "model.txt"
        path.write_text(
            "\n".join([MODEL_HEADER, f"dims 3 {wide} {wide} 2", "flags nonneg_gcn=0 nonneg_gclf=0",
                       f"vocab_sha256 {vocabulary_digest(vocab)}", f"matrix w_gcn1 3 {wide}", row, row, row,
                       f"matrix w_gcn2 {wide} {wide}", row]) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ModelIOError, match="matrix w_gcn2"):  # too large, or truncated where memory allows it
            load_model(path, vocab)

    @pytest.mark.parametrize("readout", ["avg", "sum", "max"])
    def test_readout_round_trips(self, tmp_path, rng, vocab, readout):
        m = replace(random_params(rng, d=3, h1=2, h2=2, hg=2), readout=readout)
        path = tmp_path / "model.txt"
        save_model(m, path, vocab)
        assert path.read_text(encoding="utf-8").splitlines()[2].endswith(f" readout={readout}")
        assert load_model(path, vocab).readout == readout

    def test_flags_without_readout_load_as_avg(self, tmp_path, rng, vocab):
        # files written before the readout was saved; every command then scored with avg by default
        path = tmp_path / "model.txt"
        save_model(replace(random_params(rng, d=3, h1=2, h2=2, hg=2), readout="max"), path, vocab)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].removesuffix(" readout=max")
        assert lines[2] == "flags nonneg_gcn=0 nonneg_gclf=0"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load_model(path, vocab).readout == "avg"

    def test_unknown_readout_in_file_rejected(self, tmp_path, rng, vocab):
        path = tmp_path / "model.txt"
        save_model(random_params(rng, d=3, h1=2, h2=2, hg=2), path, vocab)
        path.write_text(path.read_text(encoding="utf-8").replace("readout=avg", "readout=bogus"), encoding="utf-8")
        with pytest.raises(ModelIOError, match="unknown readout 'bogus'"):
            load_model(path, vocab)

    @pytest.mark.parametrize(
        "row, text",
        [
            (2, "garbage nonneg_gcn=0 nonneg_gclf=0 readout=avg"),
            (2, "flags nonneg_gcn=0 nonneg_gclf=0 readout=avg readout=max"),
            (2, "flags nonneg_gcn=0 nonneg_gclf=0 nonneg_gcn=0"),
            (2, "flags nonneg_gcn=7 nonneg_gclf=0"),
            (2, "flags nonneg_gcn=0 nonneg_gclf=true"),
            (2, "flags nonneg_gcn=0 nonneg_gclf="),
            (2, "flags nonneg_gcn=0 nonneg_gclf=0 readout"),
            (1, "sizes 3 2 2 2"),
            (1, "dims 3 2 2"),
            (3, "sha256 " + "0" * 64),
            (3, ""),
        ],
        ids=["flags-keyword", "repeated-readout", "repeated-flag", "flag-7", "flag-true", "flag-empty", "no-equals",
             "dims-keyword", "dims-short", "hash-keyword", "hash-blank"],
    )
    def test_malformed_preamble_rejected(self, tmp_path, rng, vocab, row, text):
        path = tmp_path / "model.txt"
        save_model(random_params(rng, d=3, h1=2, h2=2, hg=2), path, vocab)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[row] = text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ModelIOError, match="corrupt model preamble"):
            load_model(path, vocab)

    def test_unknown_flag_key_is_ignored(self, tmp_path, rng, vocab):
        path = tmp_path / "model.txt"
        save_model(random_params(rng, d=3, h1=2, h2=2, hg=2), path, vocab)
        path.write_text(path.read_text(encoding="utf-8").replace(" readout=avg", " readout=sum future=x"), encoding="utf-8")
        assert load_model(path, vocab).readout == "sum"

    def test_copy_keeps_flags_and_readout(self, rng):
        m = replace(random_params(rng, d=3, h1=2, h2=2, hg=2, nonneg=True), readout="sum")
        c = m.copy()
        assert (c.nonneg_gcn, c.nonneg_gclf, c.readout) == (True, True, "sum")
        assert all(getattr(c, name) is not w and np.array_equal(getattr(c, name), w) for name, w in m.weights().items())

    def test_wrong_vocabulary_rejected(self, tmp_path, rng, vocab):
        m = random_params(rng, d=3, h1=2, h2=2, hg=2)
        path = tmp_path / "model.txt"
        save_model(m, path, vocab)
        other = Vocabulary(("different",), ("long string",), (1.0,), (1.0,), 1, 1)
        with pytest.raises(ModelIOError, match="hash mismatch"):
            load_model(path, other)

    def test_truncated_file_rejected(self, tmp_path, rng, vocab):
        m = random_params(rng, d=3, h1=2, h2=2, hg=2)
        path = tmp_path / "model.txt"
        save_model(m, path, vocab)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8")
        with pytest.raises(ModelIOError, match="truncated"):
            load_model(path, vocab)

    def test_bad_header_rejected(self, tmp_path, vocab):
        path = tmp_path / "model.txt"
        path.write_text("#some-other-format v9\n", encoding="utf-8")
        with pytest.raises(ModelIOError, match="header"):
            load_model(path, vocab)

    def test_negative_dims_rejected(self, tmp_path, rng, vocab):
        m = random_params(rng, d=3, h1=2, h2=2, hg=2)
        path = tmp_path / "model.txt"
        save_model(m, path, vocab)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "dims -1 2 2 2"
        lines[4:8] = ["matrix w_gcn1 -1 2"]  # header and its three rows
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ModelIOError, match="dims must be positive"):
            load_model(path, vocab)

    def test_corrupt_value_rejected(self, tmp_path, rng, vocab):
        m = random_params(rng, d=3, h1=2, h2=2, hg=2)
        path = tmp_path / "model.txt"
        save_model(m, path, vocab)
        text = path.read_text(encoding="utf-8").splitlines()
        text[5] = "not a number " + " ".join(text[5].split()[1:])
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
        with pytest.raises(ModelIOError):
            load_model(path, vocab)
