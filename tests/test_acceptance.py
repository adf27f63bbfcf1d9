"""Acceptance suite.

Each numbered test prints one PASS/FAIL line (run with -s to see them all
at once) and asserts its stated tolerance. The statistical criteria run
the shipped ground-truth generating processes end to end through the
command-line pipeline at fixed seeds, so every number here is
reproducible.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from superpanel import cli, cvae, metrics, oracle, panel
from superpanel import schema as sm
from superpanel.seeding import derive_rng

from test_nn import numeric_gradients
from test_metrics import brute_srmse, brute_pearson, brute_r2, brute_overlap, brute_marginal
from test_cvae import tiny_encoded

STATIC_SEED = 90210
DRIFT_SEED = 31337


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_cli(argv):
    assert cli.main(argv) == 0, f"command failed: {argv}"


# ---------------------------------------------------------------------------
# Shared pipeline runs


@pytest.fixture(scope="module")
def static_run(tmp_path_factory):
    """static-corr at the stated recovery scale: 20,000 records, hidden
    64/32, latent 5, beta 0.5, 50 epochs, evaluated at 5 draws/profile."""
    out = tmp_path_factory.mktemp("static")
    cfg_path = out / "config.json"
    cfg = {
        "seed": STATIC_SEED,
        "schema": str(out / "schema.json"),
        "data": str(out / "data.csv"),
        "dgp": {"name": "static-corr", "n_per_year": 4000},
        "model": {"hidden_layers": [64, 32], "latent_dim": 5, "beta": 0.5,
                  "learning_rate": 0.001, "rho": 0.9, "epsilon": 1e-8,
                  "batch_size": 64, "epochs": 50},
        "eval_subsets": [
            ["p_bike", "p_ticket", "p_cars", "p_dist"],
            ["p_bike", "p_ticket"],
            ["p_cars", "p_dist"],
        ],
        "evaluate": {"draws_per_profile": 5},
    }
    cfg_path.write_text(json.dumps(cfg))
    t0 = time.monotonic()
    run_cli(["synth", "--config", str(cfg_path), "--out", str(out)])
    run_cli(["train", "--config", str(cfg_path), "--out", str(out)])
    run_cli(["evaluate", "--config", str(cfg_path), "--out", str(out)])
    return {"out": out, "cfg": cfg, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def drift_run(tmp_path_factory):
    """drift-split at the stated mover scale: 500 base individuals,
    R = 500 draws per cell, five years. The KL weight is raised to 5 so
    the decoder leans on the conditionals rather than the latent code,
    which the per-group fidelity here needs."""
    out = tmp_path_factory.mktemp("drift")
    cfg_path = out / "config.json"
    cfg = {
        "seed": DRIFT_SEED,
        "schema": str(out / "schema.json"),
        "data": str(out / "data.csv"),
        "dgp": {"name": "drift-split", "n_per_year": 4000},
        "model": {"hidden_layers": [64, 32], "latent_dim": 5, "beta": 5.0,
                  "learning_rate": 0.001, "rho": 0.9, "epsilon": 1e-8,
                  "batch_size": 64, "epochs": 50},
        "eval_subsets": [["p_mode", "p_trips"]],
        "panel": {"model": "model_full.json", "reference_year": 0,
                  "years": [0, 1, 2, 3, 4], "draws_per_cell": 500,
                  "max_individuals": 500,
                  "trend_conditions": [{"group": 0}, {"group": 1}]},
        "movers": {"t_start": 0, "t_end": 4},
    }
    cfg_path.write_text(json.dumps(cfg))
    t0 = time.monotonic()
    run_cli(["synth", "--config", str(cfg_path), "--out", str(out)])
    run_cli(["train", "--config", str(cfg_path), "--out", str(out)])
    t_train = time.monotonic() - t0
    t0 = time.monotonic()
    run_cli(["build-panel", "--config", str(cfg_path), "--out", str(out)])
    run_cli(["classify-movers", "--config", str(cfg_path), "--out", str(out)])
    t_panel = time.monotonic() - t0
    return {"out": out, "cfg": cfg, "t_train": t_train, "t_panel": t_panel}


# ---------------------------------------------------------------------------
# 1. Gradient correctness


def test_01_gradient_correctness():
    t0 = time.monotonic()
    data = tiny_encoded(5, seed=2)  # dim(V) = 6, dim(C) = 4
    assert data.dim_v == 6 and data.dim_c == 4
    config = cvae.CvaeConfig(hidden_layers=(8,), latent_dim=2, beta=0.7, epochs=1, seed=3)
    encoder, decoder = cvae.build_networks(data.dim_v, data.dim_c, config, data.pref_layout)
    eps = derive_rng(29, "acceptance-eps").standard_normal((5, 2))

    def loss_fn():
        xent, kl = cvae.loss_and_grads(encoder, decoder, data.preference, data.conditional,
                                       eps, config.beta)
        return xent + config.beta * kl

    # one NaN-filled buffer over every packed parameter, laid out as nn.pack lays them out
    params = encoder.parameters() + decoder.parameters()
    analytic = np.full(sum(p.size for p in params), np.nan)
    cvae.loss_and_grads(encoder, decoder, data.preference, data.conditional, eps, config.beta,
                        analytic)
    numeric = np.concatenate([g.ravel() for g in numeric_gradients(loss_fn, params, h=1e-5)])
    worst_rel = 0.0
    worst_abs = 0.0
    for av, nv in zip(analytic, numeric):
        if abs(av) < 1e-8 and abs(nv) < 1e-8:
            worst_abs = max(worst_abs, abs(av - nv))
        else:
            worst_rel = max(worst_rel, abs(av - nv) / max(abs(av), abs(nv)))
    elapsed = time.monotonic() - t0
    # a NaN left in the buffer would compare as no error at all
    ok = (not np.isnan(analytic).any() and worst_rel < 1e-4 and worst_abs < 1e-7
          and elapsed < 60)
    report(1, ok, f"gradients: max rel err {worst_rel:.2e} (<1e-4), "
                  f"small-grad abs err {worst_abs:.2e} (<1e-7), {elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# 2. Closed-form divergence vs Monte Carlo


def test_02_kl_closed_form():
    zero = cvae.kl_divergence(np.zeros(3), np.zeros(3))
    rng = derive_rng(17, "acceptance-klmc")
    n = 1_000_000
    worst = 0.0
    for _ in range(20):
        mu = float(rng.uniform(-2, 2))
        var = float(rng.uniform(0.1, 4.0))
        closed = cvae.kl_divergence(np.array([mu]), np.array([math.log(var)]))
        x = mu + math.sqrt(var) * rng.standard_normal(n)
        log_q = -0.5 * (math.log(2 * math.pi * var) + (x - mu) ** 2 / var)
        log_p = -0.5 * (math.log(2 * math.pi) + x ** 2)
        worst = max(worst, abs(closed - float(np.mean(log_q - log_p))))
    ok = worst < 1e-2 and abs(zero) < 1e-12
    report(2, ok, f"divergence: worst |closed - MC(1e6)| {worst:.2e} over 20 pairs (<1e-2), "
                  f"prior-match value {zero:.1e} (<1e-12)")


# ---------------------------------------------------------------------------
# 3. Metric oracles


def test_03_metric_oracles():
    rng = derive_rng(99, "acceptance-metrics")
    schema = sm.Schema(attributes=(
        sm.AttributeSpec("c", "socio", "categorical", cardinality=2),
        sm.AttributeSpec("x", "preference", "categorical", cardinality=3),
        sm.AttributeSpec("y", "preference", "categorical", cardinality=4),
    ))

    def hist(freqs):
        return metrics.JointHistogram(subset=("x",), dims=(len(freqs),),
                                      frequencies=np.asarray(freqs, dtype=float), n_source=1)

    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 25))
        a = rng.random(k); a /= a.sum()
        b = rng.random(k); b /= b.sum()
        worst = max(worst, abs(metrics.srmse(hist(a), hist(b)) - brute_srmse(a, b)))
        worst = max(worst, abs(metrics.pearson(hist(a), hist(b)) - brute_pearson(a, b)))
        worst = max(worst, abs(metrics.r2(hist(a), hist(b)) - brute_r2(a, b)))
    for _ in range(100):
        rows_a = [(int(rng.integers(2)), int(rng.integers(3)), int(rng.integers(4)))
                  for _ in range(int(rng.integers(1, 15)))]
        rows_b = [(int(rng.integers(2)), int(rng.integers(3)), int(rng.integers(4)))
                  for _ in range(int(rng.integers(1, 15)))]
        rec_a = [sm.Record(r) for r in rows_a]
        rec_b = [sm.Record(r) for r in rows_b]
        worst = max(worst, abs(metrics.overlap(rec_a, rec_b, schema) - brute_overlap(rows_a, rows_b)))
        got = metrics.marginals(rec_a, "y", schema)
        want = brute_marginal(rows_a, 2, 4)
        worst = max(worst, float(np.max(np.abs(got - want))))
    hand = metrics.srmse(hist([0.75, 0.25]), hist([0.5, 0.5]))
    ok = worst < 1e-12 and hand == 0.5
    report(3, ok, f"metric oracles: worst brute-force deviation {worst:.1e} (<1e-12) "
                  f"over 100 cases each, two-bin case = {hand} (exactly 0.5)")


# ---------------------------------------------------------------------------
# 4. Recovery of a correlated stationary process


def test_04_dgp_recovery(static_run):
    out = static_run["out"]
    spec = oracle.canned_spec("static-corr")
    records, _ = sm.ingest_csv(out / "data.csv", spec.schema)
    idx_tr, idx_val = sm.split_indices(len(records), 0.8, STATIC_SEED)
    train_records = [records[i] for i in idx_tr]
    val_records = [records[i] for i in idx_val]
    subset = ("p_bike", "p_ticket", "p_cars", "p_dist")
    val_hist = metrics.cross_tabulate(val_records, subset, spec.schema)

    # confirm the premise first: the exact oracle is close to the held-out
    # tabulation while the independent-marginals baseline is far away
    profiles = [{"segment": r.values[1], "year": r.values[0]} for r in val_records]
    exact = oracle.exact_population_joint(spec, profiles[:1000], year=0)
    s_exact = metrics.srmse(exact, val_hist)
    baseline = oracle.baseline_independent(train_records, subset, spec.schema)
    s_base = metrics.srmse(baseline, val_hist)
    assert s_base > 3 * s_exact, "premise: no correlation gap on this process"

    rows = read_csv(out / "comparisons.csv")
    model_row = [r for r in rows[1:]
                 if r[0] == "model-vs-val" and r[1] == "/".join(subset)][0]
    s_model, corr = float(model_row[3]), float(model_row[4])
    elapsed = static_run["elapsed"]
    ok = (s_model < 0.5 and s_model <= 0.7 * s_base and corr >= 0.95 and elapsed < 300)
    report(4, ok, f"recovery: model-vs-held-out SRMSE {s_model:.3f} (<0.5), "
                  f"baseline {s_base:.3f} ratio {s_model / s_base:.2f} (<=0.70), "
                  f"corr {corr:.3f} (>=0.95), pipeline {elapsed:.0f}s (<300s)")


# ---------------------------------------------------------------------------
# 5. Diversity


def test_05_diversity(static_run):
    rows = read_csv(static_run["out"] / "overlap.csv")
    table = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
    model_train = table["model-split-vs-train"][0]
    baseline = table["train-vs-val"]
    model_val = table["model-split-vs-val"][0]
    full_whole = table["model-full-vs-whole"][0]
    ok = model_train < 100.0 and 0.0 < baseline[0] <= 100.0
    report(5, ok, f"diversity: model-vs-train overlap {model_train:.1f}% (<100), "
                  f"baseline train-vs-val {baseline[0]:.1f}%/{baseline[1]:.1f}%, "
                  f"model-vs-val {model_val:.1f}%, final-vs-whole {full_whole:.1f}%")


# ---------------------------------------------------------------------------
# 6. Trend recovery and noise damping


def test_06_trend_recovery(drift_run):
    out = drift_run["out"]
    spec = oracle.canned_spec("drift-split")
    delta = spec.drifts[0].per_year
    rows = read_csv(out / "trends.csv")
    # drifting group, probability of the drifting category per year
    drifting = {int(r[3]): float(r[5]) for r in rows[1:]
                if r[0] == "group=1" and r[1] == "p_mode" and r[4] == "0"}
    years = sorted(drifting)
    slope = panel.fit_slope(years, [drifting[y] for y in years])
    rel_err = abs(slope - delta) / delta

    static = {int(r[3]): float(r[5]) for r in rows[1:]
              if r[0] == "group=0" and r[1] == "p_mode" and r[4] == "0"}
    spp_var = float(np.var([static[y] for y in years]))
    records, _ = sm.ingest_csv(out / "data.csv", spec.schema)
    raw = []
    for year in years:
        sel = [r for r in records if r.values[0] == year and r.values[1] == 0]
        raw.append(np.mean([r.values[3] == 0 for r in sel]))
    raw_var = float(np.var(raw))
    elapsed = drift_run["t_train"] + drift_run["t_panel"]
    ok = rel_err <= 0.20 and spp_var <= raw_var and elapsed < 300
    report(6, ok, f"trends: slope {slope:.4f} vs planted {delta} (rel err {rel_err:.1%} <=20%), "
                  f"static-group variance {spp_var:.2e} <= raw cross-section {raw_var:.2e}, "
                  f"{elapsed:.0f}s (<300s)")


# ---------------------------------------------------------------------------
# 7. Mover separation


def test_07_mover_classification(drift_run):
    out = drift_run["out"]
    spec = oracle.canned_spec("drift-split")
    records, _ = sm.ingest_csv(out / "data.csv", spec.schema)
    base = [r for r in records if r.values[0] == 0][:500]
    truth = np.array([r.values[1] == 1 for r in base])  # planted drifters
    assert 0.4 < truth.mean() < 0.6  # half the population drifts

    rows = read_csv(out / "movers.csv")
    distances = {r[0]: float(r[1]) for r in rows[1:]}
    groups = {r[0]: r[2] for r in rows[1:]}
    d = np.array([distances[str(i)] for i in range(500)])
    order = np.argsort(d, kind="stable")
    ranks = np.empty(500)
    ranks[order] = np.arange(1, 501)
    n_pos = int(truth.sum())
    auc = (ranks[truth].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * (500 - n_pos))

    n_fast = sum(1 for g in groups.values() if g == "fast")
    n_slow = sum(1 for g in groups.values() if g == "slow")
    marg = read_csv(out / "group_marginals.csv")
    has_tables = (marg[0] == ["attribute", "category", "freq_fast", "freq_slow",
                              "mode_fast", "mode_slow"]
                  and {r[0] for r in marg[1:]} == {"group", "segment"})
    ok = auc >= 0.9 and n_fast == n_slow == 500 // 10 and has_tables
    report(7, ok, f"movers: drifter-vs-static AUC {auc:.3f} (>=0.9), "
                  f"deciles {n_fast}/{n_slow} (=50), group tables emitted: {has_tables}")


# ---------------------------------------------------------------------------
# 8. Bootstrap smoke


def test_08_bootstrap_smoke(tmp_path):
    out = tmp_path / "bs"
    out.mkdir()
    cfg_path = out / "config.json"
    cfg = {
        "seed": 777001,
        "schema": str(out / "schema.json"),
        "data": str(out / "data.csv"),
        "dgp": {"name": "static-corr", "n_per_year": 1000},  # 5,000 records
        "model": {"hidden_layers": [32, 16], "latent_dim": 3, "beta": 1.0,
                  "learning_rate": 0.001, "rho": 0.9, "epsilon": 1e-8,
                  "batch_size": 64, "epochs": 12},
        "bootstrap": {"replicates": 20, "samples_per_replicate": 100,
                      "statistics": [
                          {"attribute": "p_bike", "category": 0},
                          {"attribute": "p_cars", "category": 0},
                      ]},
    }
    cfg_path.write_text(json.dumps(cfg))
    t0 = time.monotonic()
    run_cli(["synth", "--config", str(cfg_path), "--out", str(out)])
    run_cli(["bootstrap", "--config", str(cfg_path), "--out", str(out)])
    elapsed = time.monotonic() - t0
    manifest = json.loads((out / "bootstrap_manifest.json").read_text())
    rows = read_csv(out / "bootstrap.csv")[1:]
    stds = [float(r[4]) for r in rows]
    ok = (manifest["survivors"] == 20 and manifest["diverged"] == []
          and rows and all(np.isfinite(s) and s > 0 for s in stds)
          and elapsed < 900)
    report(8, ok, f"bootstrap: 20/20 replicates survived, {len(rows)} statistic rows, "
                  f"all stds finite and >0 (min {min(stds):.2e}), {elapsed:.0f}s (<900s)")


# ---------------------------------------------------------------------------
# 9. Determinism of the whole pipeline


def _pipeline(outdir, seed, jobs):
    outdir.mkdir()
    cfg_path = outdir / "config.json"
    cfg = {
        "seed": seed,
        "schema": str(outdir / "schema.json"),
        "data": str(outdir / "data.csv"),
        "dgp": {"name": "drift-split", "n_per_year": 400},
        "model": {"hidden_layers": [16], "latent_dim": 2, "beta": 2.0,
                  "learning_rate": 0.001, "rho": 0.9, "epsilon": 1e-8,
                  "batch_size": 64, "epochs": 6},
        "eval_subsets": [["p_mode", "p_trips"]],
        "evaluate": {"draws_per_profile": 1},
        "panel": {"model": "model_full.json", "reference_year": 0,
                  "years": [0, 2, 4], "draws_per_cell": 50, "max_individuals": 100,
                  "trend_conditions": [{"group": 0}, {"group": 1}]},
        "movers": {"t_start": 0, "t_end": 4},
    }
    cfg_path.write_text(json.dumps(cfg))
    j = str(jobs)
    for cmd in ("synth", "train", "evaluate", "build-panel", "classify-movers"):
        run_cli([cmd, "--config", str(cfg_path), "--out", str(outdir), "--jobs", j])
    names = ["data.csv", "training_history.csv", "comparisons.csv", "scatter.csv",
             "overlap.csv", "panel.csv", "trends.csv", "movers.csv",
             "group_marginals.csv", "model_split.json", "model_full.json"]
    return {name: (outdir / name).read_bytes() for name in names}


def test_09_determinism(tmp_path):
    first = _pipeline(tmp_path / "run1", 555, jobs=1)
    second = _pipeline(tmp_path / "run2", 555, jobs=1)
    parallel = _pipeline(tmp_path / "run3", 555, jobs=2)
    mismatch_rerun = [n for n in first if first[n] != second[n]]
    mismatch_jobs = [n for n in first if first[n] != parallel[n]]
    ok = not mismatch_rerun and not mismatch_jobs
    report(9, ok, f"determinism: rerun mismatches {mismatch_rerun or 'none'}, "
                  f"jobs=2 mismatches {mismatch_jobs or 'none'} "
                  f"across {len(first)} output files")


# ---------------------------------------------------------------------------
# 10. Structural reproduction of the comparison protocol


def test_10_protocol_structure(static_run):
    rows = read_csv(static_run["out"] / "comparisons.csv")[1:]
    subsets = static_run["cfg"]["eval_subsets"]
    expected_counts = {"/".join(s): int(np.prod([
        oracle.canned_spec("static-corr").schema.attribute(a).n_categories for a in s
    ])) for s in subsets}
    got_rows = {(r[0], r[1]): int(r[2]) for r in rows}
    comparisons = ["train-vs-val", "model-vs-val", "model-vs-whole"]
    complete = all((c, s) in got_rows for c in comparisons for s in expected_counts)
    counts_ok = all(got_rows[(c, s)] == n for c in comparisons
                    for s, n in expected_counts.items())
    big = expected_counts["p_bike/p_ticket/p_cars/p_dist"]
    ok = complete and counts_ok and big == 96
    report(10, ok, f"protocol: 3 comparison rows x {len(subsets)} subsets emitted, "
                   f"combination counts verified, 2x2x4x6 subset reports N_b={big} (=96)")
