#!/usr/bin/env python3
"""Benchmark of mal2gcn: four seeded workloads, end-to-end metrics, and a traced run.

Run from the root of a checkout; the program is imported from ./src:

    python3 perfbench/run.py --workload score --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload: set-up runs SETUP_REPEATS times in a child process (inputs
from synth.generate_corpus, written to disk), then this process measures the
workload for --seconds and checks its outputs.  With --trace 0 the last line
of standard output is a JSON object with the end-to-end metrics; with
--trace 1 it has the per-layer metrics of a traced run, whose spans go to
perfbench/.work/spans-<workload>-s<seed>.jsonl.  Lines before it name every
metric with its unit.  The exit code is 0 only when every operation and
output check succeeded.

--workload all runs every workload untraced and traced, each in its own
process, prints every metric and the tracing overhead, and writes them to
--out (default perfbench/.work/all-s<seed>.json).
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".work"
WORKLOADS = ("train", "score", "attack", "large-graph")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120  # a run must end within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a small shared machine a multi-threaded call waits for
# its slowest thread, which widened the run-to-run spread of per-graph latency.
BLAS_THREADS = "1"

# end-to-end metrics, reported by every workload (README.md says what each
# workload's unit of work and latency are)
E2E = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="results file of --workload all")
    parser.add_argument("--setup-dir", type=Path, default=None, help=argparse.SUPPRESS)
    return parser


def _dir_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.iterdir()):
        digest.update(file.name.encode() + b"\0" + file.read_bytes())
    return digest.hexdigest()


def _setup_child(args) -> int:
    """Set the workload up SETUP_REPEATS times under --setup-dir; times go to setup.json."""
    import layers
    import workloads
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer(f"setup-{args.workload}-s{args.seed}")
        tracer.phase = "setup"
        layers.install(tracer)
    times, digests = [], []
    for k in range(SETUP_REPEATS):
        work = args.setup_dir / f"setup{k}"
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        workloads.setup(args.workload, work, args.seed)
        times.append(time.perf_counter() - t0)
        digests.append(_dir_digest(work))
    stats = layers.span_stats(tracer.spans, ("setup",)) if tracer else {}
    with open(args.setup_dir / "setup.json", "w", encoding="utf-8") as fh:
        json.dump({"times": times, "digests": digests, "stats": stats}, fh)
    return 0


def _run_one(args) -> int:
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}"
    work = OUT / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(args, run_id, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, run_id: str, work: Path) -> int:
    child = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--trace", str(args.trace), "--setup-dir", str(work)]
    code = subprocess.run(child, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S).returncode
    if code != 0:
        print(f"perfbench: set-up of {args.workload} exited {code}", file=sys.stderr)
        return 1
    setup = json.loads((work / "setup.json").read_text(encoding="utf-8"))

    import layers
    import workloads
    from spans import Tracer

    tally = harness.Tally()
    tally.check("setup_deterministic", len(set(setup["digests"])) == 1, "set-ups of one seed wrote different inputs")
    tracer = Tracer(run_id) if args.trace else None
    if tracer:
        layers.install(tracer)
    run = workloads.Run(work / "setup0", args.seconds, tally, tracer)
    try:
        result = workloads.MEASURE[args.workload](run)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = harness.median(setup["times"])
    latency = result["latency_s"]
    tail_label, tail_s = harness.tail(latency)
    e2e = {
        "setup_s": setup_s,
        "work_per_s": result["work_per_s"],
        "latency_ms_p50": 1000.0 * harness.median(latency),
        "latency_ms_tail": 1000.0 * tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    named = {"setup_s": (setup_s, "s"), **run.named, "peak_rss_mb": (peak_rss_mb, "MB"),
             "failed_ops_frac": (tally.failed_frac, "ratio")}

    env = harness.environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"samples {args.workload} latency={len(latency)} tail={tail_label} setups={len(setup['times'])}")
    for name, (value, unit) in named.items():
        print(f"metric {args.workload} {name} {value!r} {unit}")
    for name, value in e2e.items():
        print(f"e2e {args.workload} {name} {value!r} {E2E[name]}")
    for message in tally.messages:
        print(f"perfbench: {message}", file=sys.stderr)

    if tracer:
        per_layer = layers.compute(tracer.spans, tracer.counts, setup["stats"], run.measured_s)
        tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "env": env})
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in layers.PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E.items()}
    correct = tally.total_failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.total_attempted, "failed": tally.total_failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _parse_child(stdout: str) -> dict:
    out = {"named": {}, "e2e": {}, "result": None}
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        kind, *rest = line.split(" ")
        if kind in ("metric", "e2e") and len(rest) == 4:
            out["named" if kind == "metric" else "e2e"][rest[1]] = {"value": float(rest[2]), "unit": rest[3]}
        elif kind == "samples":
            out["samples"] = " ".join(rest[1:])
    if lines:
        try:
            out["result"] = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return out


def _run_all(args) -> int:
    """Every workload untraced then traced, each in its own process; prints every metric."""
    results = {"seed": args.seed, "seconds": args.seconds, "env": harness.environment(ROOT), "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        runs = []
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 2 * args.seconds)
            parsed = _parse_child(proc.stdout)
            result = parsed["result"]
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"perfbench: {workload} --trace {trace} failed (exit {proc.returncode})", file=sys.stderr)
            runs.append(parsed)
        plain, traced = runs
        overhead = {
            name: traced["e2e"][name]["value"] / entry["value"] - 1.0
            for name, entry in plain["e2e"].items()
            if name in traced["e2e"] and entry["value"]
        }
        results["workloads"][workload] = {
            "samples": plain.get("samples"),
            "metrics": plain["named"],
            "end_to_end": plain["e2e"],
            "traced_end_to_end": traced["e2e"],
            "tracing_overhead": overhead,
            "per_layer": traced["result"]["metrics"] if traced["result"] else {},
            "attempted": plain["result"]["attempted"] if plain["result"] else 0,
            "failed": plain["result"]["failed"] if plain["result"] else 0,
        }
        for name, entry in plain["named"].items():
            print(f"{workload:12s} {name:22s} {entry['value']:14.6g} {entry['unit']}")
        for name, value in overhead.items():
            print(f"{workload:12s} {'overhead.' + name:22s} {value:14.3%}")
    out = args.out or OUT / f"all-s{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "mal2gcn" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the root of a mal2gcn checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    if args.setup_dir is not None:
        return _setup_child(args)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
