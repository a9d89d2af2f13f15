"""Per-layer metrics of the traced run: which functions are wrapped, what they count.

Times named ``<module>.<function>.s`` are the mean seconds per call inside the
measured region (set-up for ``synth.*`` and ``fcg.write_corpus``), ``.self_s``
the mean self time per call, ``.calls`` the number of calls.  Counts are
totals over the measured region.  README.md maps each metric to the
end-to-end metric it should move.
"""

import importlib
import os
import sys

from spans import self_times_ns

# (module, function) pairs wrapped in the traced run
TRACED = (
    ("fcg", "read_corpus"),
    ("fcg", "write_corpus"),
    ("fcg", "record_to_fcg"),
    ("fcg", "normalize_fcg"),
    ("featurize", "build_vocabulary"),
    ("featurize", "embed_graph"),
    ("featurize", "read_vocabulary"),
    ("gcn", "build_normalized_adjacency"),
    ("gcn", "prepare_graph"),
    ("gcn", "prepare_fcg"),
    ("gcn", "batch_loss_and_gradients"),
    ("gcn", "project_nonnegative"),
    ("gcn", "score_prepared"),
    ("gcn", "forward"),
    ("gcn", "input_gradient"),
    ("gcn", "save_model"),
    ("gcn", "load_model"),
    ("train", "train"),
    ("attack", "attack_sweep"),
    ("attack", "generate_attack"),
    ("attack", "apply_perturbation"),
    ("attack", "check_monotonicity"),
    ("synth", "generate_corpus"),
    ("synth", "split_corpus"),
    ("metrics", "compute_metrics"),
    ("cli", "run"),
)

SETUP_SPANS = ("synth.generate_corpus", "synth.split_corpus", "fcg.write_corpus")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "fcg.read_corpus.s": "s",
    "fcg.records": "count",
    "fcg.bytes_read": "bytes",
    "fcg.record_to_fcg.s": "s",
    "fcg.normalize_fcg.s": "s",
    "fcg.write_corpus.s": "s",
    "featurize.embed_graph.s": "s",
    "featurize.tokens": "count",
    "featurize.hit_ratio": "ratio",
    "featurize.build_vocabulary.s": "s",
    "featurize.read_vocabulary.s": "s",
    "gcn.build_normalized_adjacency.s": "s",
    "gcn.prepare_graph.s": "s",
    "gcn.prepare_fcg.s": "s",
    "gcn.adj_nnz": "count",
    "gcn.adj_dense_bytes": "bytes-computed",
    "gcn.batch_loss_and_gradients.s": "s",
    "gcn.batch_loss_and_gradients.calls": "count",
    "gcn.project_nonnegative.s": "s",
    "gcn.project_nonnegative.calls": "count",
    "gcn.score_prepared.s": "s",
    "gcn.score_prepared.calls": "count",
    "gcn.score_prepared.graphs_per_call": "ratio",
    "gcn.forward.s": "s",
    "gcn.input_gradient.s": "s",
    "gcn.save_model.s": "s",
    "gcn.load_model.s": "s",
    "gcn.model_file_bytes": "bytes",
    "train.train.s": "s",
    "train.self_s": "s",
    "train.epochs": "count",
    "train.steps": "count",
    "train.epoch.s": "s",
    "attack.attack_sweep.s": "s",
    "attack.sample.s": "s",
    "attack.generate_attack.s": "s",
    "attack.generate_attack.calls": "count",
    "attack.tokens_drawn": "count",
    "attack.apply_perturbation.s": "s",
    "attack.check_monotonicity.s": "s",
    "attack.check_monotonicity.self_s": "s",
    "synth.generate_corpus.s": "s",
    "synth.split_corpus.s": "s",
    "metrics.compute_metrics.s": "s",
    "metrics.roc_points": "count",
    "cli.run.s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.coverage": "ratio",
}


def _model_bytes(counts, path) -> None:
    counts["gcn.model_file_bytes"] = max(counts["gcn.model_file_bytes"], os.path.getsize(path))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> count(counts, args, kwargs, result), run after each measured call
COUNTERS = {
    "fcg.read_corpus": lambda c, a, k, r: c.update({"fcg.records": len(r), "fcg.bytes_read": os.path.getsize(_arg(a, k, 0, "path"))}),
    "featurize.embed_graph": lambda c, a, k, r: c.update(
        {"featurize.tokens": _arg(a, k, 0, "g").total_token_count, "featurize.tokens_in_vocab": int(r.counts.sum())}
    ),
    "gcn.build_normalized_adjacency": lambda c, a, k, r: c.update({"gcn.adj_dense_bytes": r.values.nbytes}),
    "gcn.prepare_graph": lambda c, a, k, r: c.update({"gcn.adj_nnz": r.adj.nnz}),
    "gcn.score_prepared": lambda c, a, k, r: c.update({"gcn.score_prepared.graphs": len(r)}),
    "gcn.save_model": lambda c, a, k, r: _model_bytes(c, _arg(a, k, 1, "path")),
    "gcn.load_model": lambda c, a, k, r: _model_bytes(c, _arg(a, k, 0, "path")),
    "train.train": lambda c, a, k, r: c.update({"train.epochs": len(r[1].epochs)}),
    "attack.generate_attack": lambda c, a, k, r: c.update({"attack.tokens_drawn": r.added_token_count}),
    "metrics.compute_metrics": lambda c, a, k, r: c.update({"metrics.roc_points": len(r.roc_points or ())}),
}


def install(tracer) -> None:
    """Wrap every TRACED function wherever a mal2gcn module or the benchmark looks it up."""
    namespaces = [m for name, m in sys.modules.items() if name == "mal2gcn" or name.startswith("mal2gcn.")]
    for module_name, fn_name in TRACED:
        original = getattr(importlib.import_module(f"mal2gcn.{module_name}"), fn_name)
        name = f"{module_name}.{fn_name}"
        if tracer.install(original, name, namespaces, COUNTERS.get(name)) == 0:
            raise RuntimeError(f"{name} is not looked up anywhere")


def span_stats(spans, phases) -> dict:
    """Span name -> [calls, total ns, self ns] over spans in `phases`."""
    self_ns = self_times_ns(spans)
    stats: dict[str, list] = {}
    for span in spans:
        span_id, _parent, name, start, end, phase, _op = span
        if phase in phases:
            entry = stats.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_ns[span_id]
    return stats


def _train_parts(spans):
    """(steps, epoch-loop ns) summed over measured train.train spans."""
    by_id = {s[0]: s for s in spans}
    steps = 0
    prep_ns = 0
    for span_id, parent, name, start, end, phase, _op in spans:
        if phase != "measure" or parent < 0:
            continue
        if name == "gcn.batch_loss_and_gradients":
            ancestor = parent
            while ancestor >= 0 and by_id[ancestor][2] != "train.train":
                ancestor = by_id[ancestor][1]
            steps += ancestor >= 0
        if by_id[parent][2] == "train.train" and name in ("fcg.normalize_fcg", "gcn.prepare_fcg"):
            prep_ns += end - start
    return steps, prep_ns


def compute(spans, counts, setup_stats: dict, measured_s: float) -> dict:
    """Every PER_LAYER metric; a layer the workload does not exercise reads 0."""
    stats = span_stats(spans, ("measure",))
    stats.update({name: setup_stats[name] for name in SETUP_SPANS if name in setup_stats})

    def mean_s(name, field=1):
        calls, *totals = stats.get(name, (0, 0, 0))
        return totals[field - 1] / calls / 1e9 if calls else 0.0

    def calls(name):
        return stats.get(name, (0,))[0]

    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            module = name[: -len(".self_s")]
            span = {"train": "train.train", "cli": "cli.run"}.get(module, module)
            out[name] = mean_s(span, 2)
        elif name.endswith(".calls"):
            out[name] = calls(name[: -len(".calls")])
        elif name.endswith(".s"):
            out[name] = mean_s(name[:-2])
    steps, prep_ns = _train_parts(spans)
    train_ns = stats.get("train.train", (0, 0, 0))[1]
    epochs = counts.get("train.epochs", 0)
    tokens = counts.get("featurize.tokens", 0)
    top_ns = sum(s[4] - s[3] for s in spans if s[1] < 0 and s[5] == "measure")
    scored = calls("gcn.score_prepared")
    out.update(
        {
            "fcg.records": counts.get("fcg.records", 0),
            "fcg.bytes_read": counts.get("fcg.bytes_read", 0),
            "featurize.tokens": tokens,
            "featurize.hit_ratio": counts.get("featurize.tokens_in_vocab", 0) / tokens if tokens else 0.0,
            "gcn.adj_nnz": counts.get("gcn.adj_nnz", 0),
            "gcn.adj_dense_bytes": counts.get("gcn.adj_dense_bytes", 0),
            "gcn.score_prepared.graphs_per_call": counts.get("gcn.score_prepared.graphs", 0) / scored if scored else 0.0,
            "gcn.model_file_bytes": counts.get("gcn.model_file_bytes", 0),
            "train.epochs": epochs,
            "train.steps": steps,
            "train.epoch.s": (train_ns - prep_ns) / epochs / 1e9 if epochs else 0.0,
            "attack.sample.s": mean_s("bench.attack_sample"),
            "attack.tokens_drawn": counts.get("attack.tokens_drawn", 0),
            "metrics.roc_points": counts.get("metrics.roc_points", 0),
            "trace.spans": len(spans),
            "trace.coverage": top_ns / 1e9 / measured_s if measured_s else 0.0,
        }
    )
    return {name: out[name] for name in PER_LAYER}
