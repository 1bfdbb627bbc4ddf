#!/usr/bin/env python3
"""Reconstruction benchmark for ``wikitalk reconstruct``.

    python3 perfbench/run.py --workload growing-page --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else. The workload's dump and gold are generated
from the seed with ``wikitalk.synth`` (and cached, untimed). Then:

``--trace 0`` runs ``python -m wikitalk.cli reconstruct`` as a subprocess,
one run at a time, for ``--seconds`` seconds and times each run from
outside. Set-up time is the same command on the five-revision walkthrough
dump. End-to-end metrics are medians over the runs. Between the runs it
also times ``reference.py``, a fixed job that does not use wikitalk: the
CPU speed of a small shared host drifts by a fifth or more over minutes,
so each run's time is scaled by how much slower than ``REFERENCE_S`` the
reference run next to it took, and the median is taken over those.
On the VM this benchmark was tuned on, that cut their spread between
runs by up to half; the raw timings are kept in the record.

``--trace 1`` calls ``pipeline.run_pipeline`` in-process instead,
alternating untraced runs with runs that have per-layer timing wrappers
installed (see ``tracer.py``), and reports the per-layer metrics.

Every run is checked: exit status 0, one corpus action per gold action,
the same corpus bytes on every run, and 100% synth-gold accuracy on the
four ``evalharness`` dimensions. Run knobs reach the program only through
``WIKITALK_*`` environment variables, so a flag that is later removed does
not break the benchmark. Metrics are printed by name with their units, and
the full record (samples, knobs accepted, corpus sha256, accuracy table)
goes to ``perfbench/.work/results/``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import operator
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_RUNS = 7
# A typical time of one reference.py run on the 2-vCPU x86-64 VM this
# benchmark was tuned on. Timings are reported as if the host ran at the
# speed that gives it (see end_to_end); it only sets their scale.
REFERENCE_S = 0.8
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150
KNOB_FLAGS = {"WIKITALK_WORKERS": "--workers", "WIKITALK_MAX_MEM_REVISIONS": "--max-mem-revisions"}


@dataclass
class Sample:
    wall_s: float
    rss_mb: Optional[float]
    ok: bool
    problem: str = ""


class Checker:
    """Per-run correctness: exit status, action count against gold, and
    byte-identical corpora across all runs of one invocation."""

    def __init__(self, gold_actions: int):
        self.gold_actions = gold_actions
        self.sha256: Optional[str] = None
        self.first_corpus: Optional[bytes] = None

    def check(self, returncode: int, corpus_path: Path) -> tuple[bool, str]:
        if returncode != 0:
            return False, f"exit status {returncode}"
        data = corpus_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        actions = sum(1 for line in data.splitlines() if line and not line.startswith(b"#"))
        if actions != self.gold_actions:
            return False, f"{actions} actions, gold has {self.gold_actions}"
        if self.sha256 is None:
            self.sha256, self.first_corpus = digest, data
        elif digest != self.sha256:
            return False, f"corpus sha256 {digest} differs from first run {self.sha256}"
        return True, ""


def child_env(workload) -> dict[str, str]:
    from workloads import WORKERS

    env = {k: v for k, v in os.environ.items() if not k.startswith("WIKITALK_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    env["WIKITALK_SPILL_DIR"] = str(WORK / "spill")
    env["WIKITALK_WORKERS"] = str(WORKERS)
    if workload.max_mem_revisions is not None:
        env["WIKITALK_MAX_MEM_REVISIONS"] = str(workload.max_mem_revisions)
    return env


def cli_knobs(env: dict[str, str]) -> dict[str, bool]:
    """Which knob variables the CLI still has a flag (and so a reader) for."""
    out = subprocess.run(
        [sys.executable, "-m", "wikitalk.cli", "reconstruct", "--help"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    ).stdout
    return {var: flag in out for var, flag in KNOB_FLAGS.items()}


def run_cli(inputs, output: Path, env: dict[str, str], checker: Checker) -> Sample:
    """One ``wikitalk reconstruct`` subprocess, timed from outside by
    ``spawn.py``, which also gives the child's own ``wait4`` peak RSS."""
    output.unlink(missing_ok=True)
    child = spawn(["-m", "wikitalk.cli", "reconstruct", "--input", str(inputs.dump), "--output", str(output)], env)
    ok, problem = checker.check(child["returncode"], output)
    if not ok and child["returncode"] != 0:
        problem += ": " + child["stderr"]
    return Sample(child["wall_s"], child["maxrss_kb"] / 1024, ok, problem)


def run_reference(env: dict[str, str]) -> Sample:
    """One run of ``reference.py``, launched the same way as the program."""
    child = spawn([str(HERE / "reference.py")], env)
    ok = child["returncode"] == 0
    return Sample(child["wall_s"], child["maxrss_kb"] / 1024, ok, "" if ok else "reference: " + child["stderr"])


def spawn(args: list[str], env: dict[str, str]) -> dict:
    """Run ``python <args>`` under ``spawn.py``; its wall time, exit status,
    peak RSS and the tail of its standard error."""
    stderr = WORK / "child.stderr"
    cmd = [sys.executable, "-S", str(HERE / "spawn.py"), str(CHILD_TIMEOUT_S), str(stderr), sys.executable, *args]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 30, check=True)
    child = json.loads(done.stdout)
    child["stderr"] = stderr.read_text(errors="replace").strip()[-500:]
    return child


def score(inputs, corpus_data: Optional[bytes]) -> tuple[dict[str, float], list[dict]]:
    """Synth-gold accuracy ("ALL" row) of one corpus."""
    from wikitalk import corpus, evalharness

    if corpus_data is None:
        return {dim: 0.0 for dim in evalharness.DIMENSIONS}, []
    actions = list(corpus.read_actions(io.StringIO(corpus_data.decode("utf-8"))))
    with open(inputs.gold, encoding="utf-8") as fh:
        gold = evalharness.read_gold(fh)
    table = evalharness.score_against_gold(actions, gold)
    return {dim: table.accuracy(None, dim) for dim in evalharness.DIMENSIONS}, table.to_records()


def measure_loop(seconds: float, one_run, min_samples: int = MIN_SAMPLES) -> list:
    """Repeat ``one_run`` until the next run would overrun ``seconds``."""
    samples = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        samples.append(one_run())
        took = time.perf_counter() - begun
        if len(samples) >= min_samples and time.perf_counter() - start + took > seconds:
            return samples


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(workload, seed: int, seconds: float) -> dict:
    from workloads import prepare, walkthrough_inputs

    env = child_env(workload)
    knobs = cli_knobs(env)
    walk = walkthrough_inputs(WORK / "inputs", SRC)
    walk_checker = Checker(walk.gold_actions)
    inputs = prepare(workload, seed, WORK / "inputs", SRC)
    checker = Checker(inputs.gold_actions)
    warm_up = run_cli(walk, WORK / "walkthrough.jsonl", env, Checker(walk.gold_actions))  # byte-compile, page cache
    setup = []
    reference = []

    def one_run():
        # set-up and reference runs are spread over the whole measurement,
        # like the samples
        setup.append(run_cli(walk, WORK / "walkthrough.jsonl", env, walk_checker))
        reference.append(run_reference(env))
        return run_cli(inputs, WORK / "corpus.jsonl", env, checker)

    samples = measure_loop(seconds, one_run)
    while len(setup) < SETUP_RUNS:
        setup.append(run_cli(walk, WORK / "walkthrough.jsonl", env, walk_checker))
        reference.append(run_reference(env))
    accuracy, table = score(inputs, checker.first_corpus)

    runs = [warm_up] + setup + reference + samples
    walls = [s.wall_s for s in samples]
    setup_walls = [s.wall_s for s in setup]
    rss = [s.rss_mb for s in samples]
    # how much slower than at REFERENCE_S the host ran around each run, by
    # the reference run made next to it (setup[i], reference[i] and
    # samples[i] come from one pass of one_run)
    slowdown = [s.wall_s / REFERENCE_S for s in reference]
    raw_revisions_per_s = inputs.revisions / statistics.median(walls)
    metrics = {
        "revisions_per_s": (inputs.revisions / statistics.median(map(operator.truediv, walls, slowdown)), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(map(operator.truediv, setup_walls, slowdown)), "s"),
        **{f"accuracy.{dim}": (value, "fraction") for dim, value in accuracy.items()},
        "ok_run_share": (sum(s.ok for s in runs) / len(runs), "fraction"),
    }
    return {
        "metrics": metrics,
        "runs": runs,
        "accuracy_ok": all(v == 1.0 for v in accuracy.values()),
        "record": {
            "inputs": {"pages": inputs.pages, "revisions": inputs.revisions, "gold_actions": inputs.gold_actions},
            "knobs_set": {k: v for k, v in env.items() if k.startswith("WIKITALK_")},
            "knobs_accepted": knobs,
            "corpus_sha256": checker.sha256,
            "accuracy_table": table,
            "host_slowdown": summary(slowdown),
            "reference_s": summary([s.wall_s for s in reference]),
            "reference_samples": [dataclasses.asdict(s) for s in reference],
            "raw_revisions_per_s": raw_revisions_per_s,
            "raw_setup_s": statistics.median(setup_walls),
            "wall_s": summary(walls),
            "peak_rss_mb": summary(rss),
            "setup_s": summary(setup_walls),
            "samples": [dataclasses.asdict(s) for s in samples],
            "setup_samples": [dataclasses.asdict(s) for s in setup],
        },
    }


def traced(workload, seed: int, seconds: float) -> dict:
    from wikitalk import pipeline
    from workloads import WORKERS, prepare

    import tracer

    inputs = prepare(workload, seed, WORK / "inputs", SRC)
    fields = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)}
    knobs = {"workers": WORKERS, "max_in_memory_revisions": workload.max_mem_revisions,
             "spill_dir": WORK / "spill"}
    accepted = {k: v for k, v in knobs.items() if k in fields and v is not None}
    output = WORK / "corpus.jsonl"
    config = pipeline.PipelineConfig(input_path=inputs.dump, output_path=output, **accepted)
    checker = Checker(inputs.gold_actions)
    dump_bytes = inputs.dump.stat().st_size

    def untraced_run():
        output.unlink(missing_ok=True)
        start = time.perf_counter()
        pipeline.run_pipeline(config)
        wall = time.perf_counter() - start
        return Sample(wall, None, *checker.check(0, output))

    def traced_run():
        output.unlink(missing_ok=True)
        wall, metrics, missing = tracer.traced_run(
            lambda: pipeline.run_pipeline(config), WORKERS, dump_bytes, lambda: output.stat().st_size
        )
        return Sample(wall, None, *checker.check(0, output)), metrics, missing

    pairs = measure_loop(seconds, lambda: (untraced_run(), traced_run()), min_samples=1)
    plain = [p[0] for p in pairs]
    traces = [p[1] for p in pairs]
    layer_runs = [metrics for _, metrics, _ in traces]
    missing = sorted(set().union(*(missing for _, _, missing in traces)))
    metrics = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs if name in run]
        metrics[name] = (statistics.median(values), tracer.METRICS[name][0])
    untraced_median = statistics.median(s.wall_s for s in plain)
    traced_median = statistics.median(t[0].wall_s for t in traces)
    metrics["trace.overhead_share"] = ((traced_median - untraced_median) / untraced_median, "ratio")
    accuracy, table = score(inputs, checker.first_corpus)
    runs = plain + [t[0] for t in traces]
    return {
        "metrics": metrics,
        "runs": runs,
        "accuracy_ok": all(v == 1.0 for v in accuracy.values()),
        "record": {
            "inputs": {"pages": inputs.pages, "revisions": inputs.revisions, "gold_actions": inputs.gold_actions},
            "knobs_accepted": {k: k in fields for k in knobs},
            "missing_layers": missing,
            "corpus_sha256": checker.sha256,
            "accuracy_table": table,
            "untraced_wall_s": summary([s.wall_s for s in plain]),
            "traced_wall_s": summary([t[0].wall_s for t in traces]),
            "layer_share_of_traced_wall": {
                layer: metrics[f"{layer}.self_s"][0] / traced_median
                for layer in tracer.LAYERS if f"{layer}.self_s" in metrics
            },
            "traced_runs": layer_runs,
            "problems": [s.problem for s in runs if not s.ok],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wikitalk" / "__init__.py").is_file():
        print(f"error: no wikitalk sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wikitalk
    from workloads import WORKLOADS

    if Path(wikitalk.__file__).resolve().parent != SRC / "wikitalk":
        print(f"error: imported wikitalk from {wikitalk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    for sub in ("tmp", "spill", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(WORK / "tmp")
    run = traced if args.trace else end_to_end
    result = run(workload, args.seed, args.seconds)

    runs = result["runs"]
    failed = sum(not s.ok for s in runs)
    for s in runs:
        if not s.ok:
            print(f"FAILED run: {s.problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(runs)} runs, {failed} failed")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    if "host_slowdown" in result["record"]:
        raw = result["record"]
        print(f"  raw (unscaled): revisions_per_s {raw['raw_revisions_per_s']:.6g} 1/s, "
              f"setup_s {raw['raw_setup_s']:.6g} s, median host slowdown {raw['host_slowdown']['median']:.4g}")
    missing = result["record"].get("missing_layers")
    if missing:
        print(f"  missing layers (no recorded calls): {', '.join(missing)}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
              **result["record"]}
    path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"  record: {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0 and result["accuracy_ok"],
        "attempted": len(runs),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
