import numpy as np
import pytest

from mal2gcn.attack import (
    AttackConfig,
    BenignPool,
    Perturbation,
    apply_perturbation,
    attack_sweep,
    check_monotonicity,
    generate_attack,
    generate_training_adversaries,
    read_benign_pool,
    write_attack_report,
    write_benign_pool,
)
from mal2gcn.fcg import Corpus, DataError, Fcg, FunctionNode, normalize_fcg, validate_fcg
from mal2gcn.featurize import Vocabulary, build_vocabulary, embed_graph
from mal2gcn.gcn import build_normalized_adjacency, forward, prepare_graph, score_graphs
from mal2gcn.synth import derive_benign_pool, split_corpus
from mal2gcn.train import TrainConfig, train

from conftest import hostile_model


@pytest.fixture()
def pool():
    return BenignPool(
        apis=("getwindowtexta", "loadlibraryw", "printmessage"),
        strings=("hello world", "settings loaded", "click to continue"),
    )


def victim(n_tokens_per_node=5, n_nodes=4):
    nodes = tuple(
        FunctionNode(f"n{i}" if i else "main", ("evilapi",) * n_tokens_per_node, ())
        for i in range(n_nodes)
    )
    edges = tuple((("main" if i == 0 else f"n{i}"), f"n{i+1}") for i in range(n_nodes - 1))
    return Fcg("victim", "malware", "main", nodes, edges)


class TestGenerateAttack:
    def test_zero_overhead_is_empty(self, pool):
        p = generate_attack(victim(), pool, 0.0, seed=1)
        assert p.is_empty
        assert p.added_token_count == 0

    def test_overhead_100_doubles_the_token_count(self, pool):
        g = victim(n_tokens_per_node=10, n_nodes=4)  # 40 tokens
        p = generate_attack(g, pool, 100.0, seed=1)
        assert p.added_token_count == 40

    def test_deterministic_per_graph_seed_config(self, pool):
        a = generate_attack(victim(), pool, 80.0, seed=9)
        b = generate_attack(victim(), pool, 80.0, seed=9)
        assert a == b
        c = generate_attack(victim(), pool, 80.0, seed=10)
        assert a != c

    def test_nested_budgets_share_a_prefix(self, pool):
        g = victim(n_tokens_per_node=10)
        small = generate_attack(g, pool, 50.0, modes=("inject_existing",), seed=4)
        large = generate_attack(g, pool, 200.0, modes=("inject_existing",), seed=4)
        for node_id, (apis, strings) in small.token_additions.items():
            big_apis, big_strings = large.token_additions[node_id]
            assert big_apis[: len(apis)] == apis
            assert big_strings[: len(strings)] == strings

    def test_dead_node_chunking(self, pool):
        g = victim(n_tokens_per_node=10)  # 40 tokens
        p = generate_attack(g, pool, 100.0, modes=("add_dead_nodes",), seed=2)
        assert len(p.new_nodes) == 2  # ceil(40 / 20)
        assert sum(n.token_count for n in p.new_nodes) == 40
        assert len(p.attach_edges) == 2
        callers = {c for c, _ in p.attach_edges}
        assert callers <= set(g.node_ids())

    def test_combined_modes_split_the_budget(self, pool):
        g = victim(n_tokens_per_node=10)
        p = generate_attack(g, pool, 100.0, seed=2)
        existing = sum(len(a) + len(s) for a, s in p.token_additions.values())
        dead = sum(n.token_count for n in p.new_nodes)
        assert existing == 20 and dead == 20

    def test_negative_overhead_rejected(self, pool):
        with pytest.raises(ValueError):
            generate_attack(victim(), pool, -1.0)

    def test_empty_pool_cannot_be_constructed(self):
        with pytest.raises(DataError, match="empty"):
            BenignPool((), ())

    def test_unnormalized_pool_token_rejected(self):
        with pytest.raises(DataError, match="not normalized"):
            BenignPool(("GetWindowTextA",), ())
        with pytest.raises(DataError, match="not normalized"):
            BenignPool((), ("abc",))


class TestApplyPerturbation:
    def test_empty_perturbation_is_identity(self):
        g = victim()
        assert apply_perturbation(g, Perturbation({})) == g

    def test_token_addition_bumps_embedding_count_by_one(self, pool):
        vocab = Vocabulary(("getwindowtexta", "evilapi"), (), (1.0, 1.0), (), 2, 0)
        g = victim()
        p = Perturbation({"n1": (("getwindowtexta",), ())})
        before = embed_graph(g, vocab).counts.toarray()
        after = embed_graph(apply_perturbation(g, p), vocab).counts.toarray()
        assert (after - before).sum() == 1
        assert after[1, 0] - before[1, 0] == 1

    def test_dead_node_adds_one_node_and_one_edge(self):
        g = victim()
        node = FunctionNode("dead0000", ("loadlibraryw",) * 5, ())
        p = Perturbation({}, (node,), (("main", "dead0000"),))
        adv = apply_perturbation(g, p)
        assert adv.n_nodes == g.n_nodes + 1
        assert len(adv.edges) == len(g.edges) + 1
        assert adv.label == g.label

    def test_unknown_node_rejected(self):
        with pytest.raises(DataError, match="unknown node"):
            apply_perturbation(victim(), Perturbation({"ghost": (("x",), ())}))

    def test_unknown_attach_caller_rejected(self):
        node = FunctionNode("dead0000", (), ("long string",))
        with pytest.raises(DataError, match="unknown node"):
            apply_perturbation(victim(), Perturbation({}, (node,), (("ghost", "dead0000"),)))

    def test_perturbed_graph_stays_valid_and_normalized(self, pool):
        g = victim(n_tokens_per_node=8)
        p = generate_attack(g, pool, 300.0, seed=6)
        adv = apply_perturbation(g, p)
        assert validate_fcg(adv).ok
        assert normalize_fcg(adv) == adv

    def test_never_decreases_existing_node_features(self, pool):
        vocab = Vocabulary(
            ("evilapi", "getwindowtexta", "loadlibraryw", "printmessage"),
            ("hello world", "settings loaded", "click to continue"),
            (1.0,) * 4,
            (1.0,) * 3,
            4,
            3,
        )
        g = victim()
        p = generate_attack(g, pool, 250.0, seed=8)
        before = embed_graph(g, vocab).counts.toarray()
        after = embed_graph(apply_perturbation(g, p), vocab).counts.toarray()
        assert (after[: g.n_nodes] >= before).all()


@pytest.fixture(scope="module")
def trained_setup():
    from mal2gcn.synth import SynthConfig, generate_corpus

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
    corpus, pool = generate_corpus(cfg)
    tr, va, te = split_corpus(corpus, (70, 25, 25))
    vocab = build_vocabulary(tr, k_api=80, k_str=80)
    nonneg, _ = train(
        tr, va, vocab, TrainConfig(h1=24, h2=12, hg=8, max_epochs=8, batch_size=16, seed=5,
                                   nonneg_gcn=True, nonneg_gclf=True)
    )
    plain, _ = train(tr, va, vocab, TrainConfig(h1=24, h2=12, hg=8, max_epochs=8, batch_size=16, seed=5))
    test_malware = Corpus(tuple(g for g in te if g.label == "malware"))
    return vocab, pool, nonneg, plain, test_malware


class TestAttackSweep:
    def test_nonneg_model_with_fixed_topology_attack_is_never_evaded(self, trained_setup):
        vocab, pool, nonneg, _, malware = trained_setup
        cfg = AttackConfig(overheads=(0.0, 50.0, 200.0, 500.0), modes=("inject_existing",), seed=17)
        report = attack_sweep(nonneg, vocab, malware, pool, cfg)
        assert report.n_detected > 0
        for summary in report.summary:
            assert summary.n_evaded == 0
        assert report.robust_accuracy_conditioned == 1.0

    def test_scores_non_decreasing_in_overhead_for_nonneg_inject_existing(self, trained_setup):
        vocab, pool, nonneg, _, malware = trained_setup
        cfg = AttackConfig(overheads=(0.0, 20.0, 100.0, 300.0), modes=("inject_existing",), seed=23)
        report = attack_sweep(nonneg, vocab, malware, pool, cfg)
        for outcome in report.samples:
            scores = [outcome.adv_scores[o] for o in cfg.overheads]
            for a, b in zip(scores, scores[1:]):
                assert b >= a - 1e-12

    def test_zero_overhead_reproduces_original_score(self, trained_setup):
        vocab, pool, _, plain, malware = trained_setup
        cfg = AttackConfig(overheads=(0.0,), seed=3)
        report = attack_sweep(plain, vocab, malware, pool, cfg)
        for outcome in report.samples:
            assert outcome.adv_scores[0.0] == outcome.original_score

    def test_deterministic(self, trained_setup):
        vocab, pool, _, plain, malware = trained_setup
        cfg = AttackConfig(overheads=(0.0, 100.0), seed=29)
        first = attack_sweep(plain, vocab, malware, pool, cfg)
        second = attack_sweep(plain, vocab, malware, pool, cfg)
        assert first == second

    def test_two_trials_keep_the_lower_score(self, trained_setup):
        vocab, pool, _, plain, malware = trained_setup
        cfg = AttackConfig(overheads=(0.0, 50.0, 200.0), seed=29, trials_per_sample=2)
        report = attack_sweep(plain, vocab, malware, pool, cfg)
        trials_differ = 0
        for g, outcome in zip(malware.records, report.samples):
            g = normalize_fcg(g)
            for overhead in cfg.overheads:
                scores = [
                    score_graphs(plain, [apply_perturbation(g, generate_attack(
                        g, pool, overhead, modes=cfg.modes, seed=cfg.seed, trial=trial))], vocab)[0]
                    for trial in (0, 1)
                ]
                assert outcome.adv_scores[overhead] == min(scores)
                assert outcome.evaded[overhead] == (outcome.original_score >= 0.5 and min(scores) < 0.5)
                trials_differ += scores[0] != scores[1]
        assert trials_differ > 0

    def test_non_malware_record_rejected(self, trained_setup):
        vocab, pool, _, plain, _ = trained_setup
        benign = Corpus((Fcg("b", "benign", "main", (FunctionNode("main", ("toka",)),), ()),))
        with pytest.raises(DataError, match="all-malware"):
            attack_sweep(plain, vocab, benign, pool, AttackConfig())

    def test_empty_corpus_gives_empty_report(self, trained_setup):
        vocab, pool, _, plain, _ = trained_setup
        report = attack_sweep(plain, vocab, Corpus(()), pool, AttackConfig(overheads=(0.0, 10.0)))
        assert report.n_samples == 0
        assert report.samples == ()

    def test_report_file_is_self_describing_and_complete(self, trained_setup, tmp_path):
        vocab, pool, _, plain, malware = trained_setup
        cfg = AttackConfig(overheads=(0.0, 100.0), seed=29)
        report = attack_sweep(plain, vocab, malware, pool, cfg)
        path = tmp_path / "attack.tsv"
        write_attack_report(report, path, {"seed": 29, "tool_version": "0.1.0"})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#mal2gcn-attack v1"
        assert "# seed=29" in lines
        sample_rows = [
            l for l in lines[lines.index("[samples]") + 2 : lines.index("[summary]")]
        ]
        assert len(sample_rows) == report.n_samples * len(cfg.overheads)
        assert any(l.startswith("robust_accuracy_conditioned\t") for l in lines)


class TestTrainingAdversaries:
    def test_count_labels_and_unique_ids(self, trained_setup):
        vocab, pool, _, _, malware = trained_setup
        adv = generate_training_adversaries(list(malware.records), pool, AttackConfig(seed=7), 12, seed=5)
        assert len(adv) == 12
        assert all(g.label == "malware" for g in adv)
        assert len({g.graph_id for g in adv}) == 12

    def test_deterministic(self, trained_setup):
        vocab, pool, _, _, malware = trained_setup
        a = generate_training_adversaries(list(malware.records), pool, AttackConfig(seed=7), 5, seed=5)
        b = generate_training_adversaries(list(malware.records), pool, AttackConfig(seed=7), 5, seed=5)
        assert a == b

    def test_requires_malware(self, trained_setup):
        _, pool, _, _, _ = trained_setup
        benign = [Fcg("b", "benign", "main", (FunctionNode("main"),), ())]
        with pytest.raises(DataError):
            generate_training_adversaries(benign, pool, AttackConfig(), 3, seed=1)


class TestCheckMonotonicity:
    def test_nonneg_model_has_zero_violations(self, trained_setup):
        vocab, pool, nonneg, _, malware = trained_setup
        report = check_monotonicity(nonneg, vocab, malware, trials=300, seed=31)
        assert not report.informational
        assert report.violations == ()
        assert report.min_input_gradient >= -1e-12
        assert report.ok

    def test_unconstrained_model_is_informational(self, trained_setup):
        vocab, pool, _, plain, malware = trained_setup
        report = check_monotonicity(plain, vocab, malware, trials=100, seed=31)
        assert report.informational

    def test_hostile_model_shows_violations(self, trained_setup):
        vocab, _, _, _, malware = trained_setup
        hostile = hostile_model(vocab.size)  # claims nonneg flags but pushes scores down
        report = check_monotonicity(hostile, vocab, malware, trials=400, seed=13)
        assert not report.informational
        assert len(report.violations) > 0
        assert report.max_violation > 0

    def test_identical_input_scores_identically(self, trained_setup):
        vocab, _, nonneg, _, malware = trained_setup
        g = normalize_fcg(malware.records[0])
        adj = build_normalized_adjacency(g)
        x = embed_graph(g, vocab).counts.toarray()
        p1, _ = forward(nonneg, prepare_graph(adj, x))
        p2, _ = forward(nonneg, prepare_graph(adj, x + np.zeros_like(x)))
        assert p1 == p2

    @pytest.mark.parametrize("readout", ["avg", "sum", "max"])
    def test_perturbed_score_equals_forward_on_edited_features(self, trained_setup, readout):
        # replays the audit's draws; the hostile model makes every trial's score visible
        vocab, _, _, _, malware = trained_setup
        hostile = hostile_model(vocab.size)
        report = check_monotonicity(hostile, vocab, malware, trials=60, seed=13, readout=readout)
        seen = {v.trial: v for v in report.violations}
        assert len(seen) > 40
        graphs = [normalize_fcg(g) for g in malware.records]
        rng = np.random.default_rng(np.random.SeedSequence([13, 0x3A0]))
        for trial in range(60):
            g = graphs[int(rng.integers(len(graphs)))]
            x = embed_graph(g, vocab).counts.toarray()
            delta = np.zeros_like(x)
            n_edits = int(rng.integers(1, 21))
            rows = rng.integers(x.shape[0], size=n_edits)
            cols = rng.integers(x.shape[1], size=n_edits)
            np.add.at(delta, (rows, cols), rng.integers(1, 4, size=n_edits))
            if trial in seen:
                assert seen[trial].graph_id == g.graph_id
                expected, _ = forward(hostile, prepare_graph(build_normalized_adjacency(g), x + delta), readout)
                assert abs(seen[trial].score_after - expected) <= 1e-12


class TestPoolFile:
    def test_round_trip(self, pool, tmp_path):
        path = tmp_path / "pool.tsv"
        write_benign_pool(pool, path)
        assert read_benign_pool(path) == pool

    def test_header_required(self, tmp_path):
        path = tmp_path / "pool.tsv"
        path.write_text("api\ttok\n", encoding="utf-8")
        with pytest.raises(Exception, match="header"):
            read_benign_pool(path)

    def test_matches_derived_pool(self, trained_setup, tmp_path, small_corpus):
        corpus, _ = small_corpus
        pool = derive_benign_pool(corpus, top_k=25)
        path = tmp_path / "pool.tsv"
        write_benign_pool(pool, path)
        assert read_benign_pool(path) == pool


class TestAttackConfig:
    def test_rejects_descending_overheads(self):
        with pytest.raises(ValueError):
            AttackConfig(overheads=(10.0, 5.0))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            AttackConfig(modes=("teleport",))

    def test_rejects_empty_modes(self):
        with pytest.raises(ValueError):
            AttackConfig(modes=())
