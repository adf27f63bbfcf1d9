"""The benchmark's workloads: configs, stages, expected counts and oracle checks.

Every workload is serial (``--jobs 1``) and runs the ``superpanel`` CLI
stages on inputs that ``synth`` generates from the workload seed. Set-up
stages build the inputs the timed stages read; only the timed stages count
towards ``total_s``.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SPLIT_FRACTION = 0.8
BOOTSTRAP_TRAIN_SHARE = 0.9  # panel._bootstrap_replicate trains on the first 90%
PLANTED_SLOPE = 0.05  # drift-split: p_mode=0 rises this much per year in group 1


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[int], dict]
    setup: tuple[str, ...]
    stages: tuple[str, ...]
    setup_outputs: tuple[str, ...]
    outputs: tuple[str, ...]
    expected_counts: Callable[[dict], dict]
    check: Callable[[Path, dict], tuple[list[Check], dict]]


def _records(cfg) -> int:
    return cfg["dgp"]["n_per_year"] * 5  # both canned processes have five years


def _train_steps(cfg) -> int:
    """Optimizer steps of one ``train`` stage: the split model, then the full refit."""
    n = _records(cfg)
    n_train = int(round(n * SPLIT_FRACTION))
    batch = cfg["model"]["batch_size"]
    return cfg["model"]["epochs"] * (math.ceil(n_train / batch) + math.ceil(n / batch))


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _base_config(seed: int, dgp: str, n_per_year: int, model: dict) -> dict:
    return {
        "seed": seed,
        "schema": "schema.json",
        "data": "data.csv",
        "split_fraction": SPLIT_FRACTION,
        "dgp": {"name": dgp, "n_per_year": n_per_year},
        "model": {"learning_rate": 0.001, "rho": 0.9, "epsilon": 1e-8, "batch_size": 64,
                  **model},
    }


def _joint_baseline_srmse(work: Path, cfg: dict, subset):
    """SRMSE of the independent-marginals baseline (train split) against the
    held-out tabulation, plus the split and the records it was built from."""
    from superpanel import metrics, oracle, schema

    spec = oracle.canned_spec(cfg["dgp"]["name"])
    records, _ = schema.ingest_csv(work / "data.csv", spec.schema)
    idx_train, idx_val = schema.split_indices(len(records), SPLIT_FRACTION, cfg["seed"])
    val = metrics.cross_tabulate([records[i] for i in idx_val], subset, spec.schema)
    base = oracle.baseline_independent([records[i] for i in idx_train], subset, spec.schema)
    return metrics.srmse(base, val), records, idx_val, spec


# ---------------------------------------------------------------------------
# fit-static: criterion-4 shape


STATIC_JOINT = ("p_bike", "p_ticket", "p_cars", "p_dist")


def fit_static_config(seed: int) -> dict:
    cfg = _base_config(seed, "static-corr", 4000, {
        "hidden_layers": [64, 32], "latent_dim": 5, "beta": 0.5, "epochs": 4})
    cfg["eval_subsets"] = [list(STATIC_JOINT), ["p_bike", "p_ticket"], ["p_cars", "p_dist"]]
    cfg["evaluate"] = {"draws_per_profile": 5}
    return cfg


def fit_static_counts(cfg) -> dict:
    # evaluate samples every train, validation and whole-data profile once
    n = _records(cfg)
    return {"nn.rmsprop_step_calls": _train_steps(cfg), "panel.cells": 0,
            "sampling.sample_calls": 2 * n}


def fit_static_check(work: Path, cfg: dict):
    s_base, _, _, _ = _joint_baseline_srmse(work, cfg, STATIC_JOINT)
    rows = _read_rows(work / "comparisons.csv")
    s_model = next(float(r[3]) for r in rows
                   if r[0] == "model-vs-val" and r[1] == "/".join(STATIC_JOINT))
    ratio = s_model / s_base
    checks = [
        Check("comparisons.csv rows", len(rows) == 3 * len(cfg["eval_subsets"]),
              f"{len(rows)} rows"),
        Check("joint_srmse_ratio <= 0.7", ratio <= 0.7,
              f"model {s_model:.4f} / baseline {s_base:.4f} = {ratio:.4f}"),
    ]
    return checks, {"joint_srmse_ratio": ratio}


# ---------------------------------------------------------------------------
# panel-drift: criteria 6-7 shape


DRIFT_JOINT = ("p_mode", "p_trips")
PANEL_INDIVIDUALS = 500
PANEL_YEARS = [0, 1, 2, 3, 4]
# The gate on the drifting group's panel slope, as a share of the planted
# slope: the panel must recover between half and one and a half times the
# planted trend. The criterion-6 tolerance, 0.20, is too tight to gate a run on
# an arbitrary seed: over 37 seeds the panel slope's deviation from 0.05 had
# mean -4% and sd 11%, and 4 of them missed 0.20, by up to 0.265. Most of that
# spread comes from training: the model's slope over the survey's own slope
# spreads about 7% (sd) even at two and four times the survey size. The gate
# is about four sd out and still fails a model that has lost the trend (at
# beta=0.5 the same model is 56% off). The report says whether 0.20 was met.
TREND_GATE = 0.50
CRITERION_6_TOLERANCE = 0.20


def panel_drift_config(seed: int) -> dict:
    cfg = _base_config(seed, "drift-split", 4000, {
        "hidden_layers": [64, 32], "latent_dim": 5, "beta": 5.0, "epochs": 30})
    cfg["eval_subsets"] = [list(DRIFT_JOINT)]
    cfg["panel"] = {"model": "model_full.json", "reference_year": 0, "years": PANEL_YEARS,
                    "draws_per_cell": 500, "max_individuals": PANEL_INDIVIDUALS,
                    "trend_conditions": [{"group": 0}, {"group": 1}]}
    cfg["movers"] = {"t_start": PANEL_YEARS[0], "t_end": PANEL_YEARS[-1]}
    return cfg


def panel_drift_counts(cfg) -> dict:
    # build-panel and classify-movers each build the whole cube
    cells = cfg["panel"]["max_individuals"] * len(cfg["panel"]["years"])
    return {"nn.rmsprop_step_calls": _train_steps(cfg), "panel.cells": 2 * cells,
            "sampling.sample_calls": 0}


def _auc(scores, truth) -> float:
    """Probability that a random positive outranks a random negative (ties half)."""
    pos = [s for s, t in zip(scores, truth) if t]
    neg = [s for s, t in zip(scores, truth) if not t]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def panel_drift_check(work: Path, cfg: dict):
    from superpanel import cvae, panel, schema
    from superpanel.seeding import derive_seed

    s_base, records, idx_val, spec = _joint_baseline_srmse(work, cfg, DRIFT_JOINT)
    model = cvae.load_model(work / "model_split.json")
    val_set = schema.encode(records, spec.schema).take(idx_val)
    s_model = cvae.evaluate_srmse(model, val_set, [DRIFT_JOINT],
                                  seed=derive_seed(cfg["seed"], "perfbench-eval"))[DRIFT_JOINT]

    years = cfg["panel"]["years"]
    trend = {int(r[3]): float(r[5]) for r in _read_rows(work / "trends.csv")
             if r[0] == "group=1" and r[1] == "p_mode" and r[4] == "0"}
    slope = panel.fit_slope(years, [trend[y] for y in years])
    # the cross-sectional slope of the same share in the generated survey:
    # the trend the model was given to learn
    share = []
    for year in years:
        sel = [r for r in records if r.values[0] == year and r.values[1] == 1]
        share.append(sum(r.values[3] == 0 for r in sel) / len(sel))
    data_slope = panel.fit_slope(years, share)

    base = [r for r in records if r.values[0] == cfg["panel"]["reference_year"]]
    base = base[: cfg["panel"]["max_individuals"]]
    movers = _read_rows(work / "movers.csv")
    distance = {r[0]: float(r[1]) for r in movers}
    auc = _auc([distance[str(i)] for i in range(len(base))], [r.values[1] == 1 for r in base])
    groups = [r[2] for r in movers]
    decile = len(base) // 10

    rel_err = abs(slope - PLANTED_SLOPE) / PLANTED_SLOPE
    met = "met" if rel_err <= CRITERION_6_TOLERANCE else "NOT met"
    checks = [
        Check(f"trend_slope_rel_err <= {TREND_GATE}", rel_err <= TREND_GATE,
              f"panel {slope:.4f} vs planted {PLANTED_SLOPE}: {rel_err:.3f}; criterion-6 "
              f"tolerance {CRITERION_6_TOLERANCE} {met}; survey's own slope {data_slope:.4f}"),
        Check("mover_auc >= 0.9", auc >= 0.9, f"{auc:.4f}"),
        Check("mover deciles", groups.count("fast") == groups.count("slow") == decile,
              f"{groups.count('fast')} fast / {groups.count('slow')} slow"),
    ]
    quality = {"joint_srmse_ratio": s_model / s_base, "trend_slope_rel_err": rel_err,
               "mover_auc": auc}
    return checks, quality


# ---------------------------------------------------------------------------
# bootstrap-refit: criterion-8 config


def bootstrap_refit_config(seed: int) -> dict:
    cfg = _base_config(seed, "static-corr", 1000, {
        "hidden_layers": [32, 16], "latent_dim": 3, "beta": 1.0, "epochs": 6})
    cfg["bootstrap"] = {"replicates": 20, "samples_per_replicate": 100, "statistics": [
        {"attribute": "p_bike", "category": 0}, {"attribute": "p_cars", "category": 0}]}
    return cfg


def bootstrap_refit_counts(cfg) -> dict:
    bs = cfg["bootstrap"]
    n_train = int(round(_records(cfg) * BOOTSTRAP_TRAIN_SHARE))
    steps = cfg["model"]["epochs"] * math.ceil(n_train / cfg["model"]["batch_size"])
    return {"nn.rmsprop_step_calls": bs["replicates"] * steps, "panel.cells": 0,
            "sampling.sample_calls": bs["replicates"] * bs["samples_per_replicate"]}


def bootstrap_refit_check(work: Path, cfg: dict):
    manifest = json.loads((work / "bootstrap_manifest.json").read_text(encoding="utf-8"))
    stds = [float(r[4]) for r in _read_rows(work / "bootstrap.csv")]
    wanted = cfg["bootstrap"]["replicates"]
    checks = [
        Check(f"{wanted} of {wanted} replicates survive",
              manifest["survivors"] == wanted and manifest["diverged"] == [],
              f"{manifest['survivors']} survived, diverged {manifest['diverged']}"),
        Check("bootstrap stds finite and > 0",
              bool(stds) and all(math.isfinite(s) and s > 0 for s in stds),
              f"{len(stds)} rows, min {min(stds, default=float('nan')):.3g}"),
    ]
    return checks, {}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="fit-static",
            why="criterion-4 fit: trains a 64/32 model on 20k rows and evaluates 40k "
                "single-profile samples; exercises nn/cvae training and per-profile sampling, "
                "bypasses panel",
            config=fit_static_config,
            setup=("synth",),
            stages=("train", "evaluate"),
            setup_outputs=("data.csv",),
            outputs=("training_history.csv", "comparisons.csv", "scatter.csv", "overlap.csv"),
            expected_counts=fit_static_counts,
            check=fit_static_check,
        ),
        Workload(
            name="panel-drift",
            why="criteria 6-7 panel: 500 individuals x 5 years x R=500 through the batched "
                "decoder path twice; exercises panel, batched nn.forward and CSV writing, "
                "training sits in set-up",
            config=panel_drift_config,
            setup=("synth", "train"),
            stages=("build-panel", "classify-movers"),
            setup_outputs=("data.csv", "training_history.csv"),
            outputs=("panel.csv", "trends.csv", "movers.csv", "group_marginals.csv"),
            expected_counts=panel_drift_counts,
            check=panel_drift_check,
        ),
        Workload(
            name="bootstrap-refit",
            why="criterion-8 bootstrap: 20 refits of a tiny 32/16 model on 5k rows, where "
                "per-call overhead, encoding and statistic loops dominate instead of matmuls",
            config=bootstrap_refit_config,
            setup=("synth",),
            stages=("bootstrap",),
            setup_outputs=("data.csv",),
            outputs=("bootstrap.csv",),
            expected_counts=bootstrap_refit_counts,
            check=bootstrap_refit_check,
        ),
    )
}
