import argparse
import hashlib
import inspect
import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mal2gcn.attack import (
    AttackConfig,
    attack_sweep,
    check_monotonicity,
    derive_benign_pool,
    generate_training_adversaries,
    read_benign_pool,
    write_attack_report,
)
from mal2gcn.cli import _COMMANDS, EXIT_CHECK_FAILED, EXIT_DATA, EXIT_OK, EXIT_USAGE, _build_parser, run
from mal2gcn.fcg import Corpus, LABEL_MALWARE, read_corpus
from mal2gcn.featurize import Vocabulary, build_vocabulary, read_vocabulary, write_vocabulary
from mal2gcn.gcn import load_model, save_model, score_graphs
from mal2gcn.metrics import compute_metrics, write_metrics_report
from mal2gcn.train import TrainConfig, train

from conftest import OTHER_LINE_BREAKS, hostile_model

ROOT = Path(__file__).resolve().parent.parent

# sha256 of the models that TestDeterminism.test_adversarial_training_is_pinned trains:
# "pool" with the generated pool, recorded when train() still did the augmentation itself;
# "derived_pool" with the sorted set of the training corpus's benign tokens
ADV_TRAIN_DIGESTS = {
    "pool": "c7302bd2ced2efe6828744191959abf5704e5c108bb8bae280acbee5c7399117",
    "derived_pool": "5c9d90c3a60b99b38e3a12e941f7529b9d68f563927b18fc9c7f4e56e5fddace",
}


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_body(path):
    """A report's lines without its `# key=value` meta lines."""
    return [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]


def edited_model(model, tmp_path, name, edit):
    """A copy of `model` whose first row of matrix `name` is replaced by edit(row)."""
    lines = model.read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(f"matrix {name} ")) + 1
    lines[row] = edit(lines[row])
    path = tmp_path / f"edited_{name}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny end-to-end workspace: corpus splits, vocabulary, trained model."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    assert run(
        [
            "gen-corpus", "--out", str(corpus), "--seed", "11",
            "--n-benign", "40", "--n-malware", "40",
            "--node-min", "4", "--node-max", "18",
            "--split", "50,15,15",
        ]
    ) == EXIT_OK
    vocab = root / "vocab.tsv"
    assert run(
        ["build-vocab", "--corpus", str(corpus) + ".train", "--out", str(vocab),
         "--k-api", "120", "--k-str", "120"]
    ) == EXIT_OK
    model = root / "model.txt"
    assert run(
        [
            "train", "--corpus", str(corpus) + ".train", "--val", str(corpus) + ".val",
            "--vocab", str(vocab), "--model", str(model), "--out", str(root / "train_report.txt"),
            "--seed", "7", "--epochs", "6", "--batch", "16",
            "--h1", "24", "--h2", "12", "--hg", "8",
            "--nonneg-gcn", "true", "--nonneg-gclf", "true",
        ]
    ) == EXIT_OK
    return root, corpus, vocab, model


class TestPipeline:
    def test_gen_corpus_outputs(self, workspace):
        root, corpus, _, _ = workspace
        assert corpus.exists()
        assert (root / "corpus.jsonl.pool").exists()
        manifest = json.loads((root / "corpus.jsonl.manifest").read_text(encoding="utf-8"))
        assert manifest["config"]["seed"] == 11
        assert manifest["corpus_sha256"] == digest(corpus)
        for suffix in (".train", ".val", ".test"):
            assert (corpus.parent / (corpus.name + suffix)).exists()

    def test_trained_model_loads_against_its_vocab(self, workspace):
        _, _, vocab, model = workspace
        v = read_vocabulary(vocab)
        m = load_model(model, v)
        assert m.nonneg_gcn and m.nonneg_gclf
        assert m.w_gcn1.min() >= 0.0

    def test_eval_writes_consistent_metrics(self, workspace):
        root, corpus, vocab, model = workspace
        out = root / "metrics.txt"
        roc = root / "roc.csv"
        code = run(
            ["eval", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(model), "--out", str(out), "--roc-out", str(roc)]
        )
        assert code == EXIT_OK
        text = out.read_text(encoding="utf-8")
        fields = dict(
            line.split("\t") for line in text.splitlines() if "\t" in line and not line.startswith("#")
        )
        tp, fp, tn, fn = (int(fields[k]) for k in ("tp", "fp", "tn", "fn"))
        assert tp + fp + tn + fn == 15
        accuracy = float(fields["accuracy"])
        assert accuracy == pytest.approx((tp + tn) / 15)
        if tp + fp:
            assert float(fields["precision"]) == pytest.approx(tp / (tp + fp))
        roc_lines = roc.read_text(encoding="utf-8").splitlines()
        assert roc_lines[0] == "fpr,tpr,threshold"
        assert len(roc_lines) > 2

    def test_attack_sweep_and_report(self, workspace, capsys):
        root, corpus, vocab, model = workspace
        out = root / "attack.tsv"
        code = run(
            [
                "attack", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
                "--model", str(model), "--pool", str(corpus) + ".pool", "--out", str(out),
                "--overheads", "0,50,200", "--modes", "inject_existing", "--seed", "3",
            ]
        )
        assert code == EXIT_OK
        text = out.read_text(encoding="utf-8")
        assert text.startswith("#mal2gcn-attack v1")
        # fixed-topology attacks cannot evade the fully non-negative model
        summary_start = text.splitlines().index("[summary]")
        for line in text.splitlines()[summary_start + 2 :]:
            if line and line[0].isdigit():
                assert line.split("\t")[3] == "0"  # n_evaded column
        # the stdout line restates the last summary row, as the report's last three lines do
        last_row = text.splitlines()[-4].split("\t")
        assert last_row[0] == "200.0"
        [line] = capsys.readouterr().out.splitlines()
        assert line == (
            f"attacked {last_row[1]} samples ({last_row[2]} originally detected); robust accuracy at 200% overhead: "
            f"conditioned={float(last_row[5]):.4f} overall={float(last_row[6]):.4f}"
        )

    def test_adversarial_training_summary_names_the_graphs_added_and_the_pool_size(self, workspace, tmp_path, capsys):
        _, corpus, vocab, _ = workspace
        assert run(
            ["train", "--corpus", str(corpus) + ".train", "--val", str(corpus) + ".val", "--vocab", str(vocab),
             "--model", str(tmp_path / "m.txt"), "--epochs", "1", "--h1", "8", "--h2", "4", "--hg", "2",
             "--adv-train", "7"]
        ) == EXIT_OK
        size = derive_benign_pool(read_corpus(f"{corpus}.train")).size
        [line] = capsys.readouterr().out.splitlines()
        assert line.startswith("trained 1 epochs ")
        assert line.endswith(f"; added 7 adversarial graphs drawn from a derived pool of {size} benign tokens")

    def test_check_monotone_passes_for_nonneg_model(self, workspace):
        root, corpus, vocab, model = workspace
        code = run(
            ["check-monotone", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(model), "--trials", "150", "--seed", "5"]
        )
        assert code == EXIT_OK

    def test_check_monotone_prints_certificate_for_nonneg_model(self, workspace, capsys):
        root, corpus, vocab, model = workspace
        code = run(
            ["check-monotone", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(model), "--trials", "20", "--seed", "5"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("certificate: w_gcn1, w_gcn2, w_hidden and w_out are non-negative")
        assert "non-decreasing in every token count" in lines[0]
        assert "adding functions changes the normalization and is not covered" in lines[0]
        assert lines[1].startswith("20 trials, 0 violations (enforced)")

    def test_check_monotone_names_negative_matrices_of_plain_model(self, workspace, tmp_path, capsys):
        root, corpus, vocab, model = workspace
        v = read_vocabulary(vocab)
        plain = load_model(model, v)
        plain.nonneg_gcn = plain.nonneg_gclf = False
        plain.w_hidden[0, 0] = -1.0
        plain.w_out[0] = -0.5
        path = tmp_path / "plain.txt"
        save_model(plain, path, v)
        code = run(
            ["check-monotone", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(path), "--trials", "20", "--seed", "5"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "certificate: none; negative entries in w_hidden, w_out"
        assert "(informational)" in lines[1]

    def test_inspect(self, workspace, capsys):
        root, corpus, vocab, _ = workspace
        assert run(["inspect", "--corpus", str(corpus), "--vocab", str(vocab)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "graph syn_b_00000" in out
        assert "embedding:" in out

    def test_inspect_embedding_line(self, tmp_path, capsys):
        record = {
            "graph_id": "g", "label": "malware", "main": "main",
            "nodes": [
                {"id": "main", "apis": ["CreateFileW", "CreateFileW", "NtUnknown"], "strings": ["hello world"]},
                {"id": "a", "apis": [], "strings": []},
                {"id": "b", "apis": ["RegSetValueA"], "strings": ["abc"]},
                {"id": "c", "apis": ["NtUnknown"], "strings": ["no such string"]},
            ],
            "edges": [["main", "a"], ["a", "b"], ["b", "b"]],
        }
        corpus = tmp_path / "one.jsonl"
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        vocab = tmp_path / "vocab.tsv"
        write_vocabulary(Vocabulary(("createfilew", "regsetvaluea"), ("hello world",), (2.0, 1.0), (1.0,), 2, 1), vocab)
        assert run(["inspect", "--corpus", str(corpus), "--vocab", str(vocab)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "embedding: d=3, 4 in-vocabulary token occurrences, 2/4 nodes with features"

    def test_vocabulary_of_tokens_with_other_line_breaks_reads_back(self, tmp_path):
        strings = [f"hello{c}world" for c in OTHER_LINE_BREAKS]
        records = [
            {"graph_id": graph_id, "label": label, "main": "main",
             "nodes": [{"id": "main", "apis": ["CreateFileW"], "strings": node_strings}], "edges": []}
            for graph_id, label, node_strings in (("m", "malware", strings), ("b", "benign", ["plain string"]))
        ]
        corpus = tmp_path / "two.jsonl"
        corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
        vocab = tmp_path / "vocab.tsv"
        assert run(["build-vocab", "--corpus", str(corpus), "--out", str(vocab)]) == EXIT_OK
        assert run(["inspect", "--corpus", str(corpus), "--vocab", str(vocab)]) == EXIT_OK
        assert set(strings) <= set(read_vocabulary(vocab).string_tokens)

    def test_reports_are_reproducible(self, workspace):
        root, corpus, vocab, model = workspace
        a, b = root / "m_a.txt", root / "m_b.txt"
        for out in (a, b):
            assert run(
                ["eval", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
                 "--model", str(model), "--out", str(out)]
            ) == EXIT_OK
        assert digest(a) == digest(b)


class TestReadoutTravelsWithModel:
    @pytest.mark.parametrize("readout", ["max", "sum"])
    def test_eval_attack_and_audit_score_with_the_stored_readout(self, workspace, tmp_path, capsys, readout):
        _, corpus, vocab, _ = workspace
        test_path, pool_path = f"{corpus}.test", f"{corpus}.pool"
        model_path = tmp_path / "model.txt"
        assert run(
            ["train", "--corpus", f"{corpus}.train", "--val", f"{corpus}.val", "--vocab", str(vocab),
             "--model", str(model_path), "--seed", "3", "--epochs", "2", "--h1", "16", "--h2", "8", "--hg", "4",
             "--readout", readout]
        ) == EXIT_OK
        v = read_vocabulary(vocab)
        model = load_model(model_path, v)
        assert model.readout == readout
        test = read_corpus(test_path)
        scores = score_graphs(model, test.records, v)
        # the readout matters: scoring with avg, the old default of every command, gives other scores
        assert not np.array_equal(scores, score_graphs(replace(model, readout="avg"), test.records, v))

        metrics, expected = tmp_path / "metrics.txt", tmp_path / "expected.txt"
        assert run(["eval", "--corpus", test_path, "--vocab", str(vocab), "--model", str(model_path),
                    "--out", str(metrics)]) == EXIT_OK
        write_metrics_report(compute_metrics([(s, int(g.label == LABEL_MALWARE)) for s, g in zip(scores, test)]), expected)
        assert report_body(metrics) == report_body(expected)
        assert f"# readout={readout}" in metrics.read_text(encoding="utf-8").splitlines()

        attack_out = tmp_path / "attack.tsv"
        assert run(["attack", "--corpus", test_path, "--vocab", str(vocab), "--model", str(model_path),
                    "--pool", pool_path, "--out", str(attack_out), "--overheads", "0,50,200", "--seed", "3",
                    "--trials", "2"]) == EXIT_OK
        malware = Corpus(tuple(g for g in test if g.label == LABEL_MALWARE), dict(test.provenance))
        cfg = AttackConfig(overheads=(0.0, 50.0, 200.0), seed=3, trials_per_sample=2)
        write_attack_report(attack_sweep(model, v, malware, read_benign_pool(pool_path), cfg), expected)
        assert report_body(attack_out) == report_body(expected)
        assert f"# readout={readout}" in attack_out.read_text(encoding="utf-8").splitlines()

        capsys.readouterr()
        assert run(["check-monotone", "--corpus", test_path, "--vocab", str(vocab), "--model", str(model_path),
                    "--trials", "60", "--seed", "4"]) == EXIT_OK
        audit = check_monotonicity(model, v, test, trials=60, seed=4)
        assert capsys.readouterr().out.splitlines()[1] == (
            f"60 trials, {len(audit.violations)} violations (informational); "
            f"max score drop {audit.max_violation!r}, min input gradient {audit.min_input_gradient!r}"
        )

    @pytest.mark.parametrize("command", ["eval", "attack", "check-monotone"])
    def test_readout_option_is_gone(self, workspace, tmp_path, capsys, command):
        _, corpus, vocab, model = workspace
        argv = [command, "--corpus", f"{corpus}.test", "--vocab", str(vocab), "--model", str(model)]
        if command != "check-monotone":
            argv += ["--out", str(tmp_path / "out.txt")]
        if command == "attack":
            argv += ["--pool", f"{corpus}.pool"]
        assert run(argv + ["--readout", "max"]) == EXIT_USAGE
        assert "unrecognized arguments: --readout max" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    def test_unknown_readout_in_model_file_is_data_error(self, workspace, tmp_path, capsys):
        _, corpus, vocab, model = workspace
        path = tmp_path / "model.txt"
        path.write_text(model.read_text(encoding="utf-8").replace(" readout=avg\n", " readout=bogus\n", 1), encoding="utf-8")
        assert run(["eval", "--corpus", f"{corpus}.test", "--vocab", str(vocab), "--model", str(path),
                    "--out", str(tmp_path / "metrics.txt")]) == EXIT_DATA
        assert "unknown readout 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "metrics.txt").exists()


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_no_command_is_usage_error(self):
        assert run([]) == EXIT_USAGE

    def test_bad_flag_value_is_usage_error(self, workspace):
        _, corpus, vocab, model = workspace
        assert run(["train", "--corpus", "x", "--val", "y", "--vocab", "z",
                    "--model", "m", "--nonneg-gcn", "maybe"]) == EXIT_USAGE

    def test_missing_file_is_data_error(self, capsys):
        assert run(["build-vocab", "--corpus", "/nonexistent/corpus.jsonl", "--out", "/tmp/v"]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-corpus", "--seed", "-1"],
            ["gen-corpus", "--node-min", "0"],
            ["gen-corpus", "--n-benign", "-1"],
            ["gen-corpus", "--n-benign", "5", "--n-malware", "5", "--split", "12,-2"],
            ["gen-corpus", "--n-benign", "5", "--n-malware", "5", "--split", "nan"],
            ["gen-corpus", "--n-benign", "5", "--n-malware", "5", "--split", "2.7,3.9,3.4"],
            ["gen-corpus", "--n-benign", "5", "--n-malware", "5", "--split", "4,4,4,4"],
            ["build-vocab", "--k-api", "0"],
            ["build-vocab", "--prefilter", "0"],
            ["build-vocab", "--prefilter", "-5"],
            ["train", "--epochs", "0"],
            ["train", "--lr", "0"],
            ["train", "--lr", "nan"],
            ["train", "--lr", "inf"],
            ["train", "--seed", "-1"],
            ["train", "--adv-train", "-5"],
            ["train", "--pool", "no-such-pool"],
            ["train", "--projection", "per_step"],
            ["check-monotone", "--seed", "-1"],
        ],
        ids=" ".join,
    )
    def test_bad_arguments_are_usage_errors_before_any_file_is_read(self, tmp_path, capsys, argv):
        # no input exists, so reading one before checking the arguments would be a data error
        missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
        files = {
            "gen-corpus": ["--out", out],
            "build-vocab": ["--corpus", missing, "--out", out],
            "train": ["--corpus", missing, "--val", missing, "--vocab", missing, "--model", out],
            "check-monotone": ["--corpus", missing, "--vocab", missing, "--model", missing],
        }
        assert run(argv + files[argv[0]]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("mal2gcn: usage error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "eval", "gen-corpus", "attack"])
    def test_output_in_missing_directory_fails_before_any_work(self, workspace, tmp_path, capsys, command):
        _, corpus, vocab, model = workspace
        missing = tmp_path / "missing" / "out.txt"
        inputs = ["--corpus", f"{corpus}.test", "--vocab", str(vocab), "--model", str(model)]
        argv = {
            "train": ["train", "--corpus", f"{corpus}.train", "--val", f"{corpus}.val", "--vocab", str(vocab),
                      "--model", str(tmp_path / "m.txt"), "--out", str(missing)],
            "eval": ["eval", *inputs, "--out", str(tmp_path / "r.txt"), "--roc-out", str(missing)],
            "gen-corpus": ["gen-corpus", "--out", str(tmp_path / "c.jsonl"), "--n-benign", "5", "--n-malware", "5",
                           "--manifest-out", str(missing)],
            "attack": ["attack", *inputs, "--pool", f"{corpus}.pool", "--out", str(missing)],
        }[command]
        assert run(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"mal2gcn: data error: {missing}: no such file\n"
        assert list(tmp_path.iterdir()) == []

    def test_eval_of_empty_corpus_is_data_error(self, workspace, tmp_path, capsys):
        _, _, vocab, model = workspace
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "metrics.txt"
        code = run(["eval", "--corpus", str(empty), "--vocab", str(vocab), "--model", str(model), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"mal2gcn: data error: {empty}: empty corpus\n"
        assert not out.exists()

    def test_attack_on_corpus_without_malware_is_data_error(self, workspace, tmp_path, capsys):
        _, corpus, vocab, model = workspace
        benign = tmp_path / "benign.jsonl"
        lines = Path(f"{corpus}.test").read_text(encoding="utf-8").splitlines()
        benign.write_text("".join(f"{line}\n" for line in lines if json.loads(line)["label"] == "benign"), encoding="utf-8")
        out = tmp_path / "attack.tsv"
        code = run(["attack", "--corpus", str(benign), "--vocab", str(vocab), "--model", str(model),
                    "--pool", f"{corpus}.pool", "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"mal2gcn: data error: {benign}: no malware records to attack\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, problem",
        [("api\tapi_ben_0000", "repeated api token 'api_ben_0000'"), ("api\tLoadLibraryW", "is not normalized")],
        ids=["repeated", "unnormalized"],
    )
    def test_attack_with_bad_pool_row_is_data_error_naming_the_line(self, workspace, tmp_path, capsys, row, problem):
        _, corpus, vocab, model = workspace
        lines = Path(f"{corpus}.pool").read_text(encoding="utf-8").split("\n")
        pool = tmp_path / "bad.pool"
        pool.write_text("\n".join(lines[:2] + [row] + lines[2:]), encoding="utf-8")
        out = tmp_path / "attack.tsv"
        code = run(["attack", "--corpus", f"{corpus}.test", "--vocab", str(vocab), "--model", str(model),
                    "--pool", str(pool), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"mal2gcn: data error: {pool} line 3: ") and problem in err
        assert not out.exists()

    def test_vocabulary_without_tokens_is_data_error(self, workspace, tmp_path, capsys):
        _, corpus, _, _ = workspace
        vocab = tmp_path / "vocab.tsv"
        vocab.write_text("#mal2gcn-vocab v1 k_api=500 k_str=500\n", encoding="utf-8")
        code = run(["train", "--corpus", f"{corpus}.train", "--val", f"{corpus}.val", "--vocab", str(vocab),
                    "--model", str(tmp_path / "m.txt")])
        assert code == EXIT_DATA
        assert "vocabulary has no tokens" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_unlabeled_corpus_names_offending_record(self, workspace, tmp_path, capsys):
        root, corpus, vocab, model = workspace
        unlabeled = tmp_path / "unlabeled.jsonl"
        record = {"graph_id": "anon", "label": None, "main": "main",
                  "nodes": [{"id": "main", "apis": ["toka"], "strings": []}], "edges": []}
        unlabeled.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code = run(
            ["train", "--corpus", str(unlabeled), "--val", str(corpus) + ".val",
             "--vocab", str(vocab), "--model", str(tmp_path / "m.txt")]
        )
        assert code == EXIT_DATA
        assert "anon" in capsys.readouterr().err

    def test_eval_with_wrong_vocab_is_data_error(self, workspace, tmp_path):
        root, corpus, _, model = workspace
        other_vocab = tmp_path / "other.tsv"
        assert run(
            ["build-vocab", "--corpus", str(corpus) + ".val", "--out", str(other_vocab),
             "--k-api", "10", "--k-str", "10"]
        ) == EXIT_OK
        code = run(
            ["eval", "--corpus", str(corpus) + ".test", "--vocab", str(other_vocab),
             "--model", str(model), "--out", str(tmp_path / "m.txt")]
        )
        assert code == EXIT_DATA

    def test_monotonicity_violations_exit_three(self, workspace, monkeypatch):
        root, corpus, vocab, model = workspace
        v = read_vocabulary(vocab)
        # flags say non-negative; weights disagree.  load_model rejects such a
        # file (next test), so the audit gets the model directly.
        monkeypatch.setattr("mal2gcn.cli.load_model", lambda path, vocab: hostile_model(v.size))
        code = run(
            ["check-monotone", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(model), "--trials", "400", "--seed", "5"]
        )
        assert code == EXIT_CHECK_FAILED

    def test_model_file_whose_flags_lie_is_data_error(self, workspace, tmp_path, capsys):
        root, corpus, vocab, model = workspace
        path = edited_model(model, tmp_path, "w_gcn2", lambda row: "-5.0 " + row.split(" ", 1)[1])
        code = run(
            ["check-monotone", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(path), "--trials", "50", "--seed", "5"]
        )
        assert code == EXIT_DATA
        assert "w_gcn2 has negative entries" in capsys.readouterr().err
        v = read_vocabulary(vocab)
        save_model(hostile_model(v.size), path, v)
        assert run(["check-monotone", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
                    "--model", str(path), "--trials", "50"]) == EXIT_DATA

    def test_model_file_with_a_repeated_flag_is_data_error(self, workspace, tmp_path, capsys):
        _, corpus, vocab, model = workspace
        path = tmp_path / "repeated.txt"
        path.write_text(model.read_text(encoding="utf-8").replace(" readout=avg", " readout=avg readout=max"), encoding="utf-8")
        code = run(
            ["eval", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(path), "--out", str(tmp_path / "m.txt")]
        )
        assert code == EXIT_DATA
        assert "corrupt model preamble" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_model_dims_not_matching_vocabulary_is_data_error(self, workspace, tmp_path, capsys):
        root, corpus, vocab, model = workspace
        lines = model.read_text(encoding="utf-8").splitlines()
        d, h1, h2, hg = (int(v) for v in lines[1].split()[1:])
        header = lines.index(f"matrix w_gcn1 {d} {h1}")
        del lines[header + 1]
        lines[header] = f"matrix w_gcn1 {d - 1} {h1}"
        lines[1] = f"dims {d - 1} {h1} {h2} {hg}"
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(
            ["eval", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(path), "--out", str(tmp_path / "metrics.txt")]
        )
        assert code == EXIT_DATA
        assert f"d={d - 1}, but the vocabulary has {d} tokens" in capsys.readouterr().err

    def test_matrix_header_claiming_more_values_than_rows_hold_is_data_error(self, workspace, tmp_path, capsys):
        root, corpus, vocab, model = workspace
        lines = model.read_text(encoding="utf-8").splitlines()
        d, h1, h2, hg = (int(v) for v in lines[1].split()[1:])
        huge = 10**12
        lines[1] = f"dims {d} {huge} {h2} {hg}"
        lines[lines.index(f"matrix w_gcn1 {d} {h1}")] = f"matrix w_gcn1 {d} {huge}"
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(
            ["eval", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(path), "--out", str(tmp_path / "metrics.txt")]
        )
        assert code == EXIT_DATA
        assert f"matrix w_gcn1 row 0 has {h1} values, expected {huge}" in capsys.readouterr().err

    def test_deeply_nested_json_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 100000 + "\n", encoding="utf-8")
        assert run(["inspect", "--corpus", str(path)]) == EXIT_DATA
        assert "nested too deeply" in capsys.readouterr().err

    def test_non_finite_weight_is_data_error(self, workspace, tmp_path, capsys):
        root, corpus, vocab, model = workspace
        path = edited_model(model, tmp_path, "b_out", lambda row: "nan")
        code = run(
            ["eval", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(path), "--out", str(tmp_path / "metrics.txt")]
        )
        assert code == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "metrics.txt").exists()

    def test_non_integer_matrix_shape_is_data_error(self, workspace, tmp_path, capsys):
        root, corpus, vocab, model = workspace
        text = model.read_text(encoding="utf-8")
        header = next(line for line in text.splitlines() if line.startswith("matrix w_gcn1 "))
        path = tmp_path / "model.txt"
        path.write_text(text.replace(header, "matrix w_gcn1 x 8"), encoding="utf-8")
        code = run(
            ["eval", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(path), "--out", str(tmp_path / "metrics.txt")]
        )
        assert code == EXIT_DATA
        assert "non-integer shape" in capsys.readouterr().err

    def test_corpus_that_is_not_utf8_is_data_error(self, workspace, tmp_path, capsys):
        root, corpus, vocab, model = workspace
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe" + (corpus.parent / (corpus.name + ".test")).read_bytes())
        code = run(
            ["eval", "--corpus", str(bad), "--vocab", str(vocab),
             "--model", str(model), "--out", str(tmp_path / "metrics.txt")]
        )
        assert code == EXIT_DATA
        assert "not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["corpus", "vocab", "pool", "model"])
    def test_input_not_utf8_on_its_last_line_is_data_error(self, workspace, tmp_path, capsys, name):
        # inputs are decoded as they are read, so the bad byte is met after every earlier line was parsed
        _, corpus, vocab, model = workspace
        inputs = {"corpus": Path(f"{corpus}.test"), "vocab": vocab, "pool": Path(f"{corpus}.pool"), "model": model}
        bad = tmp_path / f"bad.{name}"
        bad.write_bytes(inputs[name].read_bytes().removesuffix(b"\n") + b"\xff\n")
        inputs[name] = bad
        argv = ["--corpus", str(inputs["corpus"]), "--vocab", str(inputs["vocab"]), "--model", str(inputs["model"]),
                "--out", str(tmp_path / "out.txt")]
        argv = ["attack", *argv, "--pool", str(bad)] if name == "pool" else ["eval", *argv]
        assert run(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"mal2gcn: data error: {bad}: not valid UTF-8\n"
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("header", ["#mal2gcn-vocab v1 k_api=-3 k_str=0 k_api=7", "#mal2gcn-vocab v1 k_api=0 k_str=1"])
    def test_vocabulary_header_with_a_repeated_key_or_a_size_below_one_is_data_error(
        self, workspace, tmp_path, capsys, header
    ):
        _, corpus, vocab, _ = workspace
        bad = tmp_path / "vocab.tsv"
        rows = vocab.read_text(encoding="utf-8").split("\n", 1)[1]
        bad.write_text(f"{header}\n{rows}", encoding="utf-8")
        assert run(["inspect", "--corpus", f"{corpus}.test", "--vocab", str(bad)]) == EXIT_DATA
        assert capsys.readouterr().err == f"mal2gcn: data error: {bad}: missing or malformed header\n"

    def test_vocabulary_with_more_rows_than_its_header_size_is_data_error(self, workspace, tmp_path, capsys):
        _, corpus, vocab, _ = workspace
        bad = tmp_path / "vocab.tsv"
        rows = vocab.read_text(encoding="utf-8").split("\n", 1)[1]
        k_api = sum(row.startswith("api\t") for row in rows.splitlines())
        bad.write_text(f"#mal2gcn-vocab v1 k_api={k_api - 1} k_str=120\n{rows}", encoding="utf-8")
        assert run(["inspect", "--corpus", f"{corpus}.test", "--vocab", str(bad)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"mal2gcn: data error: {bad} line {k_api + 1}: api row {k_api} exceeds the header's size {k_api - 1}\n"
        )
        assert list(tmp_path.iterdir()) == [bad]

    def test_strict_mode_rejects_unknown_fields(self, workspace, tmp_path):
        record = {"graph_id": "g", "label": "benign", "main": "main",
                  "nodes": [{"id": "main", "apis": [], "strings": []}], "edges": [],
                  "comment": "???"}
        path = tmp_path / "extra.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert run(["inspect", "--corpus", str(path), "--strict"]) == EXIT_DATA
        assert run(["inspect", "--corpus", str(path)]) == EXIT_OK

    def test_output_overwriting_input_is_usage_error(self, workspace, capsys):
        _, corpus, vocab, model = workspace
        code = run(
            ["eval", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(model), "--out", str(corpus) + ".test"]
        )
        assert code == EXIT_USAGE
        assert "overwrite" in capsys.readouterr().err
        assert (corpus.parent / (corpus.name + ".test")).exists()

    def test_output_spelled_as_another_path_to_an_input_is_refused(self, workspace, tmp_path):
        _, corpus, vocab, model = workspace
        (tmp_path / "w").mkdir()
        copy = tmp_path / "w" / "m.txt"
        copy.write_bytes(model.read_bytes())
        before = digest(copy)
        code = run(
            ["eval", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(copy), "--out", str(tmp_path / "w" / ".." / "w" / "m.txt")]
        )
        assert code == EXIT_USAGE
        assert digest(copy) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--corpus", "{corpus}.train", "--val", "{corpus}.val", "--vocab", "{vocab}",
             "--model", "{o}/m.txt", "--out", "{o}/m.txt"],
            ["gen-corpus", "--n-benign", "3", "--n-malware", "3", "--out", "{o}/d.jsonl", "--pool-out", "{o}/d.jsonl"],
            ["gen-corpus", "--n-benign", "3", "--n-malware", "3", "--out", "{o}/d.jsonl",
             "--manifest-out", "{o}/d.jsonl.pool"],
            ["gen-corpus", "--n-benign", "3", "--n-malware", "3", "--out", "{o}/d.jsonl",
             "--pool-out", "{o}/../o/d.jsonl.test", "--split", "2,2,2"],
            ["eval", "--corpus", "{corpus}.test", "--vocab", "{vocab}", "--model", "{model}",
             "--out", "{o}/r", "--roc-out", "{o}/r"],
        ],
        ids=["train-model-out", "gen-corpus-pool-out", "gen-corpus-default-pool", "gen-corpus-split-part", "eval-roc-out"],
    )
    def test_outputs_naming_the_same_file_are_usage_errors(self, workspace, tmp_path, capsys, argv):
        _, corpus, vocab, model = workspace
        out_dir = tmp_path / "o"
        out_dir.mkdir()
        code = run([arg.format(corpus=corpus, vocab=vocab, model=model, o=out_dir) for arg in argv])
        assert code == EXIT_USAGE
        assert "name the same file" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_threads_option_is_gone(self, workspace, tmp_path):
        _, corpus, vocab, model = workspace
        assert run(
            ["eval", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(model), "--out", str(tmp_path / "m.txt"), "--threads", "2"]
        ) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--overheads", "nan"], "overheads must be numbers from 0 to 10000"),
            (["--overheads", "0,inf"], "overheads must be numbers from 0 to 10000"),
            (["--overheads", "1e300"], "overheads must be numbers from 0 to 10000"),
            (["--overheads", "50,50"], "overheads must be strictly ascending"),
            (["--trials", "0"], "trials_per_sample must be >= 1"),
            (["--modes", "bogus"], "modes must be a non-empty subset"),
            (["--reference-overhead", "5"], "unrecognized arguments: --reference-overhead 5"),
            (["--overheads", ""], "overheads must name at least one overhead"),
            (["--overheads", ","], "overheads must name at least one overhead"),
        ],
        ids=["nan", "inf", "1e300", "duplicate", "trials0", "bogus-mode", "reference-overhead-gone", "empty", "comma"],
    )
    def test_bad_attack_arguments_are_usage_errors(self, workspace, tmp_path, capsys, flags, message):
        _, corpus, vocab, model = workspace
        out = tmp_path / "attack.tsv"
        code = run(
            ["attack", "--corpus", str(corpus) + ".test", "--vocab", str(vocab), "--model", str(model),
             "--pool", str(corpus) + ".pool", "--out", str(out), *flags]
        )
        assert code == EXIT_USAGE
        errors = [line for line in capsys.readouterr().err.splitlines() if "skipping" not in line]
        assert len(errors) == 1 and errors[0].startswith("mal2gcn: usage error: ") and message in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_check_monotone_without_trials_is_usage_error(self, workspace, capsys, trials):
        _, corpus, vocab, model = workspace
        code = run(
            ["check-monotone", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
             "--model", str(model), "--trials", trials]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "mal2gcn: usage error: --trials must be at least 1\n"

    def test_check_monotone_on_empty_corpus_is_data_error_with_nothing_printed(self, workspace, tmp_path, capsys):
        _, _, vocab, model = workspace
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = run(["check-monotone", "--corpus", str(empty), "--vocab", str(vocab), "--model", str(model)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "mal2gcn: data error: monotonicity check needs a non-empty corpus\n"

    @pytest.mark.parametrize(
        "command, dest, function, keyword",
        [
            ("build-vocab", "k_api", build_vocabulary, "k_api"),
            ("build-vocab", "k_str", build_vocabulary, "k_str"),
            ("build-vocab", "prefilter", build_vocabulary, "prefilter_per_kind"),
            ("check-monotone", "trials", check_monotonicity, "trials"),
        ],
        ids=["build-vocab --k-api", "build-vocab --k-str", "build-vocab --prefilter", "check-monotone --trials"],
    )
    def test_option_defaults_equal_the_library_keyword_defaults(self, command, dest, function, keyword):
        commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
        assert commands[command].get_default(dest) == inspect.signature(function).parameters[keyword].default

    def test_readme_walkthrough_parses(self):
        # every `mal2gcn ...` command in README.md, continuation lines joined, parses without running
        text = (ROOT / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in text.splitlines() if line.strip().startswith("mal2gcn ")]
        parser = _build_parser()
        assert sorted({parser.parse_args(argv).command for argv in commands}) == sorted(_COMMANDS)

    def test_readme_names_every_option_of_every_command(self):
        # each long option appears on a README line that names its command as `cmd` or `mal2gcn cmd`,
        # and each command's "- `cmd`:" option bullet names no option its parser lacks
        text = (ROOT / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
        parser = _build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        missing, unknown = [], []
        for command, sub in commands.items():
            lines = [line for line in text.splitlines() if f"`{command}`" in line or f"mal2gcn {command} " in line]
            named = set(re.findall(r"--[a-z0-9-]+", "\n".join(lines)))
            options = [o for a in sub._actions for o in a.option_strings if o.startswith("--") and o != "--help"]
            missing += [f"{command} {o}" for o in options if o not in named]
            [bullet] = [line for line in text.splitlines() if line.startswith(f"- `{command}`: ")]
            unknown += [f"{command} {o}" for o in re.findall(r"--[a-z0-9-]+", bullet) if o not in options]
        assert (missing, unknown) == ([], [])

    def test_help_and_version_exit_zero(self, capsys):
        assert run(["--help"]) == EXIT_OK
        assert run(["--version"]) == EXIT_OK
        capsys.readouterr()


class TestDeterminism:
    def test_gen_corpus_twice_is_bitwise_identical(self, tmp_path):
        args = ["gen-corpus", "--seed", "33", "--n-benign", "15", "--n-malware", "15",
                "--node-min", "3", "--node-max", "10"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert digest(a) == digest(b)
        assert digest(tmp_path / "a.jsonl.pool") == digest(tmp_path / "b.jsonl.pool")

    def test_train_twice_is_bitwise_identical(self, workspace, tmp_path):
        root, corpus, vocab, _ = workspace
        models = []
        for name in ("m1.txt", "m2.txt"):
            path = tmp_path / name
            assert run(
                ["train", "--corpus", str(corpus) + ".train", "--val", str(corpus) + ".val",
                 "--vocab", str(vocab), "--model", str(path), "--seed", "9",
                 "--epochs", "3", "--h1", "16", "--h2", "8", "--hg", "4"]
            ) == EXIT_OK
            models.append(digest(path))
        assert models[0] == models[1]

    def test_adversarial_training_is_pinned(self, workspace, tmp_path):
        _, corpus, vocab_path, _ = workspace
        base = ["train", "--corpus", str(corpus) + ".train", "--val", str(corpus) + ".val", "--vocab", str(vocab_path),
                "--seed", "9", "--epochs", "3", "--h1", "16", "--h2", "8", "--hg", "4"]

        def fit(name, *flags):
            path = tmp_path / name
            assert run(base + ["--model", str(path), *flags]) == EXIT_OK
            return digest(path)

        # the library path with the generated pool, as `train --adv-train` ran it when it took a pool file
        train_corpus, vocab = read_corpus(f"{corpus}.train"), read_vocabulary(vocab_path)
        pool = read_benign_pool(f"{corpus}.pool")
        adversaries = generate_training_adversaries(train_corpus.records, vocab, pool, AttackConfig(seed=9), 10, seed=9)
        model, _ = train(
            train_corpus,
            read_corpus(f"{corpus}.val"),
            vocab,
            TrainConfig(max_epochs=3, h1=16, h2=8, hg=4, seed=9),
            adversaries=adversaries,
        )
        save_model(model, tmp_path / "pool.txt", vocab)
        assert digest(tmp_path / "pool.txt") == ADV_TRAIN_DIGESTS["pool"]

        derived = ["--adv-train", "10"]
        assert fit("a.txt", *derived) == fit("b.txt", *derived) == ADV_TRAIN_DIGESTS["derived_pool"]
        assert fit("plain.txt") != ADV_TRAIN_DIGESTS["derived_pool"]
