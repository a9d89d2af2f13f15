import dataclasses
import hashlib

import numpy as np
import pytest

from mal2gcn.attack import (
    MAX_OVERHEAD_PCT,
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
from mal2gcn.cli import EXIT_OK, run
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


MODE_SETS = {
    "existing": ("inject_existing",),
    "dead": ("add_dead_nodes",),
    "both": ("inject_existing", "add_dead_nodes"),
}

# sha256 of repr(generate_attack(victim(10, 6), pool, overhead, modes, seed, trial)), recorded from
# the per-token scalar draws that the vectorized draw replaced: (mode set, overhead, seed, trial) -> digest
PERTURBATION_DIGESTS = {
    ("existing", 5.0, 3, 0): "c4eda6f0b44babd366c059833cfb281be91f48f3887520c994dea647a63ff048",
    ("existing", 5.0, 3, 1): "e433ab048bbf7de0fcd1e5e4e42a8bdf336f310633c8046095c7be28ea7f76ed",
    ("existing", 5.0, 11, 0): "9ad5f9b998e06fd5c62cf3133bcc625435ddcb7b3b9db6ee2c9891a3a46d9686",
    ("existing", 5.0, 11, 1): "c11ebe691fab1f5ef2ca2fd5dda8f50ba1c40eb3d95116410f3b26118f7578f2",
    ("existing", 50.0, 3, 0): "fa0af0df4f8320c57d835f42a66391d90fb080df8378bfc4d143eb11b068b4d9",
    ("existing", 50.0, 3, 1): "2bae09cdb9c991d0623e86432f29cf1fa12bfa364d912bc2f2a811014e4f14bc",
    ("existing", 50.0, 11, 0): "dbbd05d3bf19e497a61ce59637aec8473f4fa35490dead3807facb5297a21cb7",
    ("existing", 50.0, 11, 1): "e8bc9468545981fd803dbf1043290620bc04175f2d84c698ff869b393a34ff39",
    ("existing", 500.0, 3, 0): "78b30058d039b170efd4a5deb68baa0ead32ccad1d22a59779a5cd9d92b24a16",
    ("existing", 500.0, 3, 1): "0cf9c197680deb17d193565badcf22cf3d580ca27f9f78fcd39396122551ff07",
    ("existing", 500.0, 11, 0): "a7f5b329a3a897d4a2bebafee0e84104a1e348f256bcecf4418eedd17299ebb1",
    ("existing", 500.0, 11, 1): "ff7c9f141061b1f3f3d740a867f20d69ed1b553a848c7a61081317196128525f",
    ("dead", 5.0, 3, 0): "1a11428f3aafe036c216106e7e041e6870ad9b334cc9a383e1ea02c2f05c3571",
    ("dead", 5.0, 3, 1): "cc03be6e01c925ef5725fb991fae19111b387967864fd6b7670a9210a2de6ba1",
    ("dead", 5.0, 11, 0): "6c4bf9cda70962136bf3d9ea961a164931c2c1ad884700020fb08d6e54db8d00",
    ("dead", 5.0, 11, 1): "ef08678f4c7237ca5b0f6a8cf4beb58c89bef9fa678759cc4de2f7a9a1739f67",
    ("dead", 50.0, 3, 0): "fe190e9913ede59274a21cd1d440155458ac7e1010bb5eed24677a8437f92838",
    ("dead", 50.0, 3, 1): "e2f257d9d5d62d63f9d51f6851a8805450545def87c7513ef1bab06e1b8bf0fe",
    ("dead", 50.0, 11, 0): "1f3770f47e7db3d61b612fddd35014fc9ecde0cd01e71a039a3ed4f5036efa61",
    ("dead", 50.0, 11, 1): "215bf4967a153a18fcbe10ae1a2ca07f485a80b228ba1a77ad617dfd46cfdc49",
    ("dead", 500.0, 3, 0): "1469df6b72b780a29c0425ecd9e3bd3d1f2aede549a8fb03d62e96e766e42144",
    ("dead", 500.0, 3, 1): "5adfa2346c9dbe8abb33bb6510ac641b66fcd099ae1c0500af1eb385add3ef20",
    ("dead", 500.0, 11, 0): "68c9b3ba8c7933cdd92572fad061def9e16cf49cf30fef7fa567038cc4484119",
    ("dead", 500.0, 11, 1): "2fb828f27adcfd77099306fae00ef8360d6437d2dd67dad26dcb03064572c5f3",
    ("both", 5.0, 3, 0): "37ea789fdffe8fb1121a27db6b9afd39675113b39b07c6cbc36c097ac202bf66",
    ("both", 5.0, 3, 1): "78398b0a7a616e2ff62e8ed07f76fd1a669ddd6791f2ab2432b6c6e88b2846b2",
    ("both", 5.0, 11, 0): "d89939eadd642589253f27c7eacb88626dfd8061dcff05bc1f8b974a64248932",
    ("both", 5.0, 11, 1): "e2c3d3a9a3e9ed5618b77139832e5d3339b197f9ecfb0e9a80ead3cef73851a0",
    ("both", 50.0, 3, 0): "7dfdc96f855da1a393f74ea86f91775a7ac59289f26e04e2c131fec0f05f9393",
    ("both", 50.0, 3, 1): "b9aa10b5ad9eba773132e3f743b2926ab191aad78430a42d9003783455f71781",
    ("both", 50.0, 11, 0): "45cb3cbcd5049283c7bff0e171fbe986796676441dd9713409e28b33651017a1",
    ("both", 50.0, 11, 1): "8c87607bde06d9728c64f1f069dc8bee664f877389f0b943ab34abc5d6dff7ca",
    ("both", 500.0, 3, 0): "5a9baf718c64db994e653198ac652fc416fe5063ad1eed2e04351882bea3abd2",
    ("both", 500.0, 3, 1): "7548e9c7c11c973b872094bf994ceec8c36bd617504f9f2a154f96f18619c89f",
    ("both", 500.0, 11, 0): "962f4e0e298d96efa11242dc919d8f0a9325ee0ae2eddd54c05aba1d624ab170",
    ("both", 500.0, 11, 1): "9401d33dd7d3e934479ae199d1089a4ab548b97041e993a9b2b1197839aa4f21",
}
# sha256 of repr(generate_training_adversaries(...)) in test_training_adversaries_are_pinned, same origin
ADVERSARIES_DIGEST = "7c3383fdb8bea6fe9c30dfcb2c4a657301fa0e663eaa54719f9f4561e45b66b3"
# sha256 of the attack report of acceptance c8's workspace, same origin
C8_ATTACK_REPORT_DIGEST = "38940e4dabbade3edd6303d48fbf2c836b824ecb27aeb93dc6134b8ea5cdb83a"


def sha256_of_repr(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


class TestRandomStreamPinned:
    @pytest.mark.parametrize("case", sorted(PERTURBATION_DIGESTS), ids=str)
    def test_perturbation_is_pinned(self, pool, case):
        mode_set, overhead, seed, trial = case
        p = generate_attack(victim(10, 6), pool, overhead, modes=MODE_SETS[mode_set], seed=seed, trial=trial)
        assert sha256_of_repr(p) == PERTURBATION_DIGESTS[case]

    def test_small_perturbation_spelled_out(self, pool):
        p = generate_attack(victim(10, 6), pool, 5.0, seed=3)  # 3 tokens: 1 appended, 2 in one dead node
        assert p == Perturbation(
            {"n3": ((), ("click to continue",))},
            (FunctionNode("dead0000", ("loadlibraryw",), ("click to continue",)),),
            (("n4", "dead0000"),),
        )

    def test_training_adversaries_are_pinned(self, trained_setup):
        _, pool, _, _, malware = trained_setup
        adversaries = generate_training_adversaries(list(malware.records), pool, AttackConfig(seed=7), 12, seed=5)
        assert sha256_of_repr(adversaries) == ADVERSARIES_DIGEST

    def test_c8_attack_report_is_pinned(self, tmp_path):
        corpus, vocab, model, report = (
            tmp_path / name for name in ("corpus.jsonl", "vocab.tsv", "model.txt", "attack.tsv")
        )
        assert run(["gen-corpus", "--out", str(corpus), "--seed", "5", "--n-benign", "30", "--n-malware", "30",
                    "--node-min", "3", "--node-max", "12", "--split", "40,10,10"]) == EXIT_OK
        assert run(["build-vocab", "--corpus", str(corpus) + ".train", "--out", str(vocab),
                    "--k-api", "80", "--k-str", "80"]) == EXIT_OK
        assert run(["train", "--corpus", str(corpus) + ".train", "--val", str(corpus) + ".val",
                    "--vocab", str(vocab), "--model", str(model), "--seed", "5",
                    "--epochs", "4", "--h1", "16", "--h2", "8", "--hg", "4",
                    "--nonneg-gcn", "true", "--nonneg-gclf", "true"]) == EXIT_OK
        assert run(["attack", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
                    "--model", str(model), "--pool", str(corpus) + ".pool", "--out", str(report),
                    "--overheads", "0,50,100", "--seed", "5"]) == EXIT_OK
        assert hashlib.sha256(report.read_bytes()).hexdigest() == C8_ATTACK_REPORT_DIGEST


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


def with_dead_node_names(g):
    """g with its first two non-main nodes renamed to the first dead node's id and its x-prefixed form."""
    names = dict(zip([n.id for n in g.nodes if n.id != g.main_id], ("dead0000", "xdead0000")))
    nodes = tuple(dataclasses.replace(n, id=names.get(n.id, n.id)) for n in g.nodes)
    edges = tuple((names.get(a, a), names.get(b, b)) for a, b in g.edges)
    return Fcg(g.graph_id + "_dead_names", g.label, g.main_id, nodes, edges)


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

    @pytest.mark.parametrize("trials", [1, 2])
    @pytest.mark.parametrize("readout", ["avg", "sum", "max"])
    @pytest.mark.parametrize("mode_set", sorted(MODE_SETS))
    @pytest.mark.parametrize("variant", ["nonneg", "plain"])
    def test_sweep_equals_scoring_each_perturbed_graph(self, trained_setup, variant, mode_set, readout, trials):
        vocab, pool, nonneg, plain, malware = trained_setup
        model = nonneg if variant == "nonneg" else plain
        graphs = malware.records + (with_dead_node_names(malware.records[0]),)
        cfg = AttackConfig(
            overheads=(0.0, 5.0, 50.0, 200.0), modes=MODE_SETS[mode_set], seed=29, trials_per_sample=trials
        )
        report = attack_sweep(model, vocab, Corpus(graphs), pool, cfg, readout=readout)
        for g, outcome in zip(graphs, report.samples):
            g = normalize_fcg(g)
            assert outcome.original_score == score_graphs(model, [g], vocab, readout)[0]
            for overhead in cfg.overheads:
                perturbed = [
                    apply_perturbation(
                        g, generate_attack(g, pool, overhead, modes=cfg.modes, seed=cfg.seed, trial=trial)
                    )
                    for trial in range(trials)
                ]
                assert outcome.adv_scores[overhead] == min(score_graphs(model, perturbed, vocab, readout))

    def test_dead_node_ids_avoid_existing_names(self, trained_setup):
        _, pool, _, _, malware = trained_setup
        g = normalize_fcg(with_dead_node_names(malware.records[0]))
        p = generate_attack(g, pool, 200.0, modes=("add_dead_nodes",), seed=29)
        assert p.new_nodes[0].id == "xxdead0000"
        assert p.new_nodes[1].id == "dead0001"

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

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_fewer_than_one_trial(self, trained_setup, trials):
        vocab, _, nonneg, _, malware = trained_setup
        with pytest.raises(ValueError, match="trials"):
            check_monotonicity(nonneg, vocab, malware, trials=trials)

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

    @pytest.mark.parametrize("overheads", [(float("nan"),), (0.0, float("inf")), (1e300,), (-1.0,), (50.0, 50.0)])
    def test_rejects_overheads_that_are_not_finite_bounded_and_strictly_ascending(self, overheads):
        with pytest.raises(ValueError):
            AttackConfig(overheads=overheads)

    def test_accepts_the_largest_overhead(self):
        assert AttackConfig(overheads=(0.0, MAX_OVERHEAD_PCT)).overheads[-1] == MAX_OVERHEAD_PCT

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            AttackConfig(trials_per_sample=0)
