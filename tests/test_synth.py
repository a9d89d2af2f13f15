import hashlib

import pytest

from mal2gcn.fcg import DataError, write_corpus, validate_fcg, normalize_fcg
from mal2gcn.synth import (
    SynthConfig,
    generate_corpus,
    split_corpus,
)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quick_cfg(**kwargs):
    defaults = dict(
        n_benign=25,
        n_malware=25,
        node_count_min=3,
        node_count_max=20,
        n_benign_apis=40,
        n_benign_strings=40,
        n_malicious_apis=40,
        n_malicious_strings=40,
        n_shared_apis=20,
        n_shared_strings=20,
        seed=3,
    )
    defaults.update(kwargs)
    return SynthConfig(**defaults)


class TestGenerateCorpus:
    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(generate_corpus(quick_cfg())[0], a)
        write_corpus(generate_corpus(quick_cfg())[0], b)
        assert digest(a) == digest(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(generate_corpus(quick_cfg(seed=3))[0], a)
        write_corpus(generate_corpus(quick_cfg(seed=4))[0], b)
        assert digest(a) != digest(b)

    def test_label_balance_is_exact(self):
        corpus, _ = generate_corpus(quick_cfg(n_benign=7, n_malware=13))
        labels = [g.label for g in corpus]
        assert labels.count("benign") == 7
        assert labels.count("malware") == 13

    def test_every_graph_is_valid_and_already_normalized(self):
        corpus, _ = generate_corpus(quick_cfg())
        for g in corpus:
            result = validate_fcg(g)
            assert result.ok
            assert not result.warnings  # tree wiring forbids isolated nodes
            assert normalize_fcg(g) == g

    def test_node_counts_within_configured_range(self):
        cfg = quick_cfg(node_count_min=4, node_count_max=9)
        corpus, _ = generate_corpus(cfg)
        for g in corpus:
            assert 4 <= g.n_nodes <= 9

    def test_malware_only_generation_succeeds(self):
        corpus, _ = generate_corpus(quick_cfg(n_benign=0))
        assert len(corpus) == 25
        assert all(g.label == "malware" for g in corpus)

    def test_returned_pool_is_benign_plus_shared(self):
        _, pool = generate_corpus(quick_cfg())
        assert len(pool.apis) == 60  # 40 benign + 20 shared
        assert all(t.startswith(("api_ben_", "api_shr_")) for t in pool.apis)
        assert all(t.startswith(("str_ben_", "str_shr_")) for t in pool.strings)

    def test_benign_graphs_never_use_malicious_tokens(self):
        corpus, _ = generate_corpus(quick_cfg())
        for g in corpus:
            if g.label != "benign":
                continue
            for node in g.nodes:
                assert not any("_mal_" in t for t in node.apis + node.strings)

    def test_fully_separable_config_admits_a_single_token_rule(self):
        # with fully malicious infected graphs and tiny malicious pools, some
        # single token count threshold separates the classes perfectly;
        # verified by brute force over every token and threshold
        cfg = quick_cfg(
            n_benign=30,
            n_malware=30,
            node_count_min=6,
            node_count_max=20,
            n_malicious_apis=2,
            n_malicious_strings=2,
            n_shared_apis=0,
            n_shared_strings=0,
            malicious_token_fraction=1.0,
            infected_node_fraction=1.0,
            seed=21,
        )
        corpus, _ = generate_corpus(cfg)

        token_counts = []
        for g in corpus:
            counts = {}
            for node in g.nodes:
                for t in node.apis + node.strings:
                    counts[t] = counts.get(t, 0) + 1
            token_counts.append((g.label, counts))
        tokens = sorted({t for _, counts in token_counts for t in counts})

        def rule_accuracy(token, threshold):
            hits = sum(
                1
                for label, counts in token_counts
                if (counts.get(token, 0) >= threshold) == (label == "malware")
            )
            return hits / len(token_counts)

        best = max(
            rule_accuracy(token, threshold) for token in tokens for threshold in range(1, 4)
        )
        assert best == 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(malicious_token_fraction=0.0)
        with pytest.raises(ValueError):
            SynthConfig(node_count_min=0)
        with pytest.raises(ValueError):
            SynthConfig(tokens_per_node_min=5, tokens_per_node_max=2)


class TestSplitCorpus:
    def test_stratified_sizes(self):
        corpus, _ = generate_corpus(quick_cfg(n_benign=30, n_malware=30))
        tr, va, te = split_corpus(corpus, (40, 10, 10))
        for part, size in ((tr, 40), (va, 10), (te, 10)):
            labels = [g.label for g in part]
            assert len(part) == size
            assert labels.count("malware") == size // 2

    def test_splits_are_disjoint(self):
        corpus, _ = generate_corpus(quick_cfg())
        tr, va = split_corpus(corpus, (30, 20))
        ids_tr = {g.graph_id for g in tr}
        ids_va = {g.graph_id for g in va}
        assert not ids_tr & ids_va

    def test_oversized_request_rejected(self):
        corpus, _ = generate_corpus(quick_cfg())
        with pytest.raises(DataError):
            split_corpus(corpus, (100, 100))
