import hashlib
import json

import numpy as np
import pytest

from mal2gcn.cli import EXIT_CHECK_FAILED, EXIT_DATA, EXIT_OK, EXIT_USAGE, run
from mal2gcn.featurize import Vocabulary, read_vocabulary, write_vocabulary
from mal2gcn.gcn import load_model, save_model

from conftest import hostile_model


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    def test_attack_sweep_and_report(self, workspace):
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

    def test_reports_are_reproducible(self, workspace):
        root, corpus, vocab, model = workspace
        a, b = root / "m_a.txt", root / "m_b.txt"
        for out in (a, b):
            assert run(
                ["eval", "--corpus", str(corpus) + ".test", "--vocab", str(vocab),
                 "--model", str(model), "--out", str(out)]
            ) == EXIT_OK
        assert digest(a) == digest(b)


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
            (["--overheads", "0,50", "--reference-overhead", "7"], "reference overhead must be one of the scheduled"),
        ],
        ids=["nan", "inf", "1e300", "duplicate", "trials0", "bogus-mode", "reference-not-scheduled"],
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
