"""superpanel benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fit-static --seed 1 --seconds 15 --trace 0

For the chosen workload the benchmark writes a config from the seed, runs the
set-up stages several times, then runs the timed CLI stages over and over,
each time in a fresh child process, until ``--seconds`` have passed (at least
twice). It checks the outputs against the oracle and for determinism, prints
a report and, as the last line, one JSON object with the metrics.

``--trace 0`` reports the end-to-end metrics, measured without tracing.
``--trace 1`` traces one set-up and every other timed run and reports the
per-layer metrics; the untraced runs in between give the tracing overhead.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # a run must end within 180 s
MIN_ITERATIONS = 2  # two timed runs at least, so their outputs can be compared
SETUP_SECONDS = 4.0  # set-up children per untraced run, split before and after the timed loop

STAGE_METRICS = {
    "train": "train_s", "evaluate": "evaluate_s", "build-panel": "build_panel_s",
    "classify-movers": "classify_movers_s", "bootstrap": "bootstrap_s",
}
QUALITY_METRICS = ("joint_srmse_ratio", "trend_slope_rel_err", "mover_auc")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment


def blas_info() -> dict:
    """BLAS build and the thread count it runs with in this interpreter."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Child runs


class Runner:
    """Starts child processes in one working directory and keeps their results."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def run(self, commands, outputs, trace: bool):
        """Run CLI commands in a fresh child; None if it crashed or timed out."""
        self.count += 1
        tag = f"run{self.count:03d}"
        spec = {
            "root": str(ROOT),
            "workdir": str(self.work),
            "stages": [[c, "--config", "config.json", "--out", ".", "--jobs", "1"]
                       for c in commands],
            "outputs": list(outputs),
            "trace": trace,
            "spans": str(self.work / f"{tag}.spans.npz"),
            "result": str(self.work / f"{tag}.result.json"),
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.work / f"{tag}.log", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                      stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
            except subprocess.TimeoutExpired:
                return None
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.exists():
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["spans"] = spec["spans"] if trace else None
        result["seconds"] = sum(s["seconds"] for s in result["stages"])
        result["ok"] = (len(result["stages"]) == len(commands)
                        and all(s["rc"] == 0 for s in result["stages"]))
        return result


class Tally:
    """Operations attempted and failed, with a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def add_run(self, result, commands, what: str) -> bool:
        """Count each stage of a child run; a crashed child fails all of them."""
        if result is None:
            for c in commands:
                self.add(False, f"{what}: {c} (child crashed or timed out)")
            return False
        for c, stage in zip(commands, result["stages"]):
            self.add(stage["rc"] == 0, f"{what}: {c} exited {stage['rc']}")
        for c in commands[len(result["stages"]):]:
            self.add(False, f"{what}: {c} not run")
        return result["ok"]


# ---------------------------------------------------------------------------
# Statistics and per-layer metrics


def timing(values) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "tail_pct": None, "tail": None,
           "values": values}
    if n > 10:
        pct = (100 * (n - 10)) // n
        rank = max(1, -(-pct * n // 100))  # nearest-rank percentile
        out.update(tail_pct=pct, tail=values[rank - 1])
    return out


def layer_metrics(span_paths) -> dict:
    from tracer import Spans

    sp = Spans(span_paths)
    calls, secs, items = sp.calls, sp.seconds, sp.items
    c = lambda name: calls.get(name, 0)  # noqa: E731
    s = lambda name: secs.get(name, 0.0)  # noqa: E731
    forwards = sp.child_calls.get(("sampling", "nn.forward"), 0)
    return {
        "nn.forward_calls": c("nn.forward"),
        "nn.forward_rows": items.get("nn.forward", 0),
        "nn.forward_s": s("nn.forward"),
        "nn.backward_s": s("nn.backward"),
        "nn.rmsprop_step_calls": c("nn.rmsprop_step"),
        "nn.rmsprop_step_s": s("nn.rmsprop_step"),
        "cvae.loss_and_grads_s": s("cvae.loss_and_grads"),
        "cvae.train_s": s("cvae.train"),
        "cvae.steps": c("nn.rmsprop_step"),
        "cvae.step_us": (1e6 * s("cvae.train") / c("nn.rmsprop_step")
                         if c("nn.rmsprop_step") else 0.0),
        "cvae.save_model_s": s("cvae.save_model"),
        "cvae.load_model_s": s("cvae.load_model"),
        "sampling.sample_calls": c("sampling.sample"),
        "sampling.draws": items.get("sampling.sample", 0),
        "sampling.encode_profile_calls": c("sampling.encode_profile"),
        "sampling.encode_profile_s": s("sampling.encode_profile"),
        "sampling.generate_population_s": s("sampling.generate_population"),
        "sampling.rows_per_forward": (
            sp.child_items.get(("sampling", "nn.forward"), 0) / forwards if forwards else 0.0),
        "seeding.derive_rng_calls": c("seeding.derive_rng"),
        "seeding.derive_rng_s": s("seeding.derive_rng"),
        "seeding.derive_seed_calls": c("seeding.derive_seed"),
        "schema.ingest_csv_s": s("schema.ingest_csv"),
        "schema.ingest_rows": items.get("schema.ingest_csv", 0),
        "schema.encode_s": s("schema.encode"),
        "schema.encode_rows": items.get("schema.encode", 0),
        "metrics.cross_tabulate_calls": c("metrics.cross_tabulate"),
        "metrics.cross_tabulate_s": s("metrics.cross_tabulate"),
        "metrics.overlap_s": s("metrics.overlap"),
        "metrics.rows_tabulated": items.get("metrics.cross_tabulate", 0),
        "panel.build_panel_calls": c("panel.build_panel"),
        "panel.build_panel_s": s("panel.build_panel"),
        "panel.cells": items.get("panel.build_panel", 0),
        "panel.classify_movers_s": s("panel.classify_movers"),
        "panel.aggregate_trend_s": s("panel.aggregate_trend"),
        "panel.bootstrap_s": s("panel.bootstrap"),
        "panel.replicates_diverged": items.get("panel.bootstrap", 0),
        "cli.write_csv_s": s("cli.write_csv"),
        "cli.write_csv_rows": items.get("cli.write_csv", 0),
        "cli.self_s": sp.module_self_seconds("cli", exclude=("cli.write_csv",)),
        "oracle.generate_dataset_s": s("oracle.generate_dataset"),
    }


# ---------------------------------------------------------------------------


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, tally: Tally) -> dict:
    """Set up, run the timed stages until the time is up, and check the outputs.

    Set-ups are fresh children too. Untraced runs bracket the timed loop with
    them: set-ups run before it until SETUP_SECONDS / 2 have passed (at least
    one, which makes the inputs), and again after it, so that ``setup_s``
    sees the same drift of the host as the timed stages.
    """
    deadline = time.monotonic() + DEADLINE_S
    runner = Runner(work, deadline)
    cfg = workload.config(seed)
    (work / "config.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    setups = []

    def set_up(budget: float) -> bool:
        started = time.monotonic()
        while True:
            result = runner.run(workload.setup, workload.setup_outputs, trace)
            if not tally.add_run(result, workload.setup, f"set-up {len(setups) + 1}"):
                return False
            setups.append(result)
            if len(setups) > 1:
                tally.add(result["digest"] == setups[0]["digest"],
                          f"set-up {len(setups)}: outputs differ from set-up 1")
            if time.monotonic() - started >= budget:
                return True

    if not set_up(0.0 if trace else SETUP_SECONDS / 2):
        return {"cfg": cfg, "setups": setups, "iterations": []}

    iterations = []
    started = time.monotonic()
    while len(iterations) < MIN_ITERATIONS or time.monotonic() - started < seconds:
        traced = trace and len(iterations) % 2 == 1
        result = runner.run(workload.stages, workload.outputs, traced)
        if not tally.add_run(result, workload.stages, f"timed run {len(iterations) + 1}"):
            break
        result["traced"] = traced
        iterations.append(result)
        tally.add(result["digest"] == iterations[0]["digest"],
                  f"timed run {len(iterations)}: outputs differ from timed run 1")
        if time.monotonic() + 1.5 * result["seconds"] + 5.0 > deadline:
            break
    # a set-up that takes longer than the timed loop runs once, so that all the
    # runs of a benchmark fit its time budget
    longest_setup = max(r["seconds"] for r in setups)
    if (iterations and not trace and longest_setup < seconds
            and time.monotonic() + 3 * longest_setup + 20.0 < deadline):
        set_up(SETUP_SECONDS / 2)

    checks, quality = [], {}
    if iterations:
        try:
            checks, quality = workload.check(work, cfg)
        except Exception as exc:  # unreadable or malformed outputs fail the run, not the report
            traceback.print_exc()
            tally.add(False, f"oracle checks raised {exc!r}")
        for check in checks:
            tally.add(check.ok, f"check failed: {check.name} ({check.detail})")
    return {"cfg": cfg, "setups": setups, "iterations": iterations, "checks": checks,
            "quality": quality}


def declared(kind: str) -> list[dict]:
    """The metrics BENCHMARK.json declares for one kind of run."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]


def end_to_end(workload, run: dict) -> tuple[dict, dict]:
    """JSON metrics and the report's timing summaries, from untraced runs."""
    untraced = [r for r in run["iterations"] if not r["traced"]]
    report = {"setup_s": timing([r["seconds"] for r in run["setups"]]) if run["setups"] else None}
    for command, name in STAGE_METRICS.items():
        if command in workload.stages and untraced:
            report[name] = timing([next(s["seconds"] for s in r["stages"]
                                        if s["command"] == command) for r in untraced])
    if untraced:
        report["total_s"] = timing([r["seconds"] for r in untraced])
        report["peak_rss_mb"] = timing([r["peak_rss_mb"] for r in untraced])
    return {m["name"]: {"value": report[m["name"]]["median"], "unit": m["unit"]}
            for m in declared("end_to_end") if report.get(m["name"])}, report


def per_layer(workload, run: dict, tally: Tally) -> dict:
    """Per-layer metrics: the traced set-up plus each traced timed run, medians over runs."""
    traced = [r for r in run["iterations"] if r["traced"]]
    plain = [r for r in run["iterations"] if not r["traced"]]
    if not traced or not run["setups"]:
        return {}
    setup_spans = run["setups"][0]["spans"]
    per_run = [layer_metrics([setup_spans, r["spans"]]) for r in traced]
    expected = workload.expected_counts(run["cfg"])
    for i, layers in enumerate(per_run, start=1):
        for name, want in expected.items():
            tally.add(layers[name] == want,
                      f"traced run {i}: {name} = {layers[name]}, config gives {want}")
    out = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    out["trace.overhead_s"] = (statistics.median(r["seconds"] for r in traced)
                               - statistics.median(r["seconds"] for r in plain))
    return out


def print_report(workload, seed, trace, env, run, report, layers, tally) -> None:
    print(f"superpanel benchmark: workload {workload.name}, seed {seed}, trace {trace}")
    print(f"env: {json.dumps(env)}")
    print(f"why: {workload.why}")
    if report is not None:
        print("end-to-end (untraced runs):")
        for name in ("setup_s", *STAGE_METRICS.values(), "total_s", "peak_rss_mb"):
            t = report.get(name)
            unit = "MB" if name == "peak_rss_mb" else "s"
            if t is None:
                print(f"  {name:22s} n/a (not in this workload)")
                continue
            tail = (f"p{t['tail_pct']} {t['tail']:.4f}" if t["tail"] is not None
                    else "no percentile with 10 samples beyond it")
            print(f"  {name:22s} {t['median']:.4f} {unit:3s} median of n={t['n']}; {tail}")
        share = len(tally.failures) / tally.attempted if tally.attempted else 0.0
        print(f"  {'failed_share':22s} {share:.4f} ({len(tally.failures)}/{tally.attempted})")
        for name in QUALITY_METRICS:
            value = run.get("quality", {}).get(name)
            shown = f"{value:.4f}" if value is not None else "n/a (not in this workload)"
            print(f"  {name:22s} {shown}")
    if layers:
        print("per-layer (traced runs):")
        for name, value in layers.items():
            print(f"  {name:34s} {value:.6g}")
    for check in run.get("checks", []):
        print(f"check {'PASS' if check.ok else 'FAIL'}: {check.name}: {check.detail}")
    for failure in tally.failures:
        print(f"failure: {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "superpanel" / "cli.py").is_file():
        print(f"error: no superpanel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    env = environment(args.seed)
    runs_dir = HERE / ".runs"
    runs_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=runs_dir))
    tally = Tally()
    try:
        run = measure(workload, args.seed, args.seconds, trace, work, tally)
        if trace:
            layers, report = per_layer(workload, run, tally), None
            metrics_json = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                            for m in declared("per_layer") if m["name"] in layers}
        else:
            metrics_json, report = end_to_end(workload, run)
            layers = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_report(workload, args.seed, args.trace, env, run, report, layers, tally)
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics_json}
    (runs_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "report": report, "quality": run.get("quality"),
                    "checks": [c.__dict__ for c in run.get("checks", [])],
                    "failures": tally.failures, "layers": layers, **result}, indent=2),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
