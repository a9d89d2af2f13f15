import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mal2gcn.synth import SynthConfig

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = ("plain", "gcn-nonneg", "full-nonneg")


def run_pipeline_module():
    spec = importlib.util.spec_from_file_location("run_pipeline", ROOT / "scripts" / "run_pipeline.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_pipeline_corpus_size_defaults_are_the_library_defaults():
    args = run_pipeline_module().build_parser().parse_args([])
    assert (args.n_benign, args.n_malware) == (SynthConfig.n_benign, SynthConfig.n_malware)
    assert args.split == (2000, 500, 500)


def test_run_pipeline_split_takes_three_sizes():
    assert run_pipeline_module().build_parser().parse_args(["--split", "24,8,0"]).split == (24, 8, 0)


@pytest.mark.parametrize("split", ["abc", "12,-2,0", "1,2", "1,2,3,4", "", "1,,2", "1.5,2,3"])
def test_run_pipeline_bad_split_is_a_usage_error_before_any_work(split, capsys):
    with pytest.raises(SystemExit) as exc:
        run_pipeline_module().build_parser().parse_args(["--split", split])
    assert exc.value.code == 2
    assert "expected three comma-separated non-negative integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, minimum",
    [("--epochs", "0", 1), ("--epochs", "-3", 1), ("--epochs", "2.5", 1), ("--seed", "-1", 0), ("--seed", "x", 0),
     ("--n-benign", "-1", 0), ("--n-malware", "-1", 0), ("--n-malware", "", 0)],
)
def test_run_pipeline_bad_count_is_a_usage_error_before_any_work(option, value, minimum, capsys):
    with pytest.raises(SystemExit) as exc:
        run_pipeline_module().build_parser().parse_args([option, value])
    assert exc.value.code == 2
    assert f"{option}: expected an integer >= {minimum}, got {value!r}" in capsys.readouterr().err


def test_run_pipeline_counts_take_their_lowest_values():
    args = run_pipeline_module().build_parser().parse_args(
        ["--epochs", "1", "--seed", "0", "--n-benign", "0", "--n-malware", "0"]
    )
    assert (args.epochs, args.seed, args.n_benign, args.n_malware) == (1, 0, 0, 0)


def test_run_pipeline_split_larger_than_the_corpus_is_a_usage_error_before_any_work(tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    monkeypatch.setattr(sys, "argv", ["run_pipeline.py", "--workdir", str(work), "--n-benign", "3", "--n-malware", "3",
                                      "--split", "4,2,1"])
    with pytest.raises(SystemExit) as exc:
        run_pipeline_module().main()
    assert exc.value.code == 2
    assert "--split sizes sum to 7 but the corpus has 6 graphs" in capsys.readouterr().err
    assert not work.exists()


@pytest.mark.parametrize(
    "options, message",
    [(["--n-benign", "0", "--n-malware", "0", "--split", "0,0,0"], "cannot build a vocabulary from an empty corpus"),
     (["--n-benign", "2", "--n-malware", "2", "--split", "2,0,2"], "validation corpus is empty")],
)
def test_run_pipeline_data_error_is_one_line_and_exit_2(tmp_path, monkeypatch, capsys, options, message):
    monkeypatch.setattr(sys, "argv", ["run_pipeline.py", "--workdir", str(tmp_path / "work"), *options])
    assert run_pipeline_module().main() == 2
    err = capsys.readouterr().err
    assert err.endswith(f"{message}\n") and err.count("\n") == 1


def test_run_pipeline_workdir_that_is_a_file_is_one_line_and_exit_2(tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    work.write_text("not a directory\n", encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["run_pipeline.py", "--workdir", str(work)])
    assert run_pipeline_module().main() == 2
    err = capsys.readouterr().err
    assert str(work) in err and err.count("\n") == 1
    assert work.read_text(encoding="utf-8") == "not a directory\n"


def test_run_pipeline_writes_every_artifact_and_the_summary(tmp_path):
    work = tmp_path / "work"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), "--workdir", str(work),
         "--n-benign", "20", "--n-malware", "20", "--split", "24,8,8", "--epochs", "1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("variant "))
    assert lines[header].split() == ["variant", "test", "acc", "auc", "robust", "mono.viol", "mode", "train", "s"]
    rows = [line.split() for line in lines[header + 1 : header + 1 + len(VARIANTS)]]
    assert [row[0] for row in rows] == list(VARIANTS)
    assert [row[5] for row in rows] == ["info", "info", "audit"]
    assert rows[2][4] == "0"  # the fully non-negative model shows no monotonicity violation
    assert lines[-1] == f"artifacts written to {work}/"

    expected = {"corpus.train.jsonl", "corpus.val.jsonl", "corpus.test.jsonl", "benign.pool", "vocab.tsv"}
    for variant in VARIANTS:
        expected |= {f"model.{variant}.txt", f"train.{variant}.txt", f"metrics.{variant}.txt", f"attack.{variant}.tsv"}
    assert {p.name for p in work.iterdir()} == expected
    assert all((work / name).stat().st_size > 0 for name in expected)


def test_every_function_the_benchmark_traces_exists():
    # perfbench/layers.py wraps each (module, function) of TRACED and refuses to run without it
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    traced = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    )
    pairs = ast.literal_eval(traced)
    assert pairs
    for module_name, fn_name in pairs:
        module = importlib.import_module(f"mal2gcn.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"mal2gcn.{module_name}.{fn_name}"
