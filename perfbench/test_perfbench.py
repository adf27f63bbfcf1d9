"""Self-checks of the benchmark's tracer and expected counts.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.

Each workload runs in miniature, in this process, with the tracer
installed; the traced counts must equal the counts its config predicts.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from superpanel import cli, cvae, panel, schema, seeding  # noqa: E402


def shrink(cfg: dict, out: Path) -> dict:
    """The same workload at a size that runs in a second or two, writing to out."""
    cfg = copy.deepcopy(cfg)
    cfg.update(schema=str(out / "schema.json"), data=str(out / "data.csv"))
    cfg["dgp"]["n_per_year"] = 60
    cfg["model"].update(hidden_layers=[8, 4], epochs=2, batch_size=16)
    if "panel" in cfg:
        cfg["panel"].update(max_individuals=12, draws_per_cell=20)
    if "bootstrap" in cfg:
        cfg["bootstrap"].update(replicates=2, samples_per_replicate=15)
    return cfg


def traced_pipeline(tmp_path: Path, workload, cfg: dict) -> dict:
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    tracer = Tracer()
    tracer.install()
    try:
        for command in workload.setup + workload.stages:
            argv = [command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path)]
            assert cli.main(argv) == 0, command
    finally:
        tracer.uninstall()
    tracer.save(tmp_path / "spans.npz")
    return run.layer_metrics([tmp_path / "spans.npz"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_match_config(tmp_path, name):
    workload = WORKLOADS[name]
    cfg = shrink(workload.config(5), tmp_path)
    layers = traced_pipeline(tmp_path, workload, cfg)
    expected = workload.expected_counts(cfg)
    assert {k: layers[k] for k in expected} == expected
    if name == "panel-drift":
        # panel decodes through _decode_with_noise and derive_rng imported by name
        assert layers["sampling.rows_per_forward"] > 1
        assert layers["seeding.derive_rng_calls"] >= expected["panel.cells"]


def test_install_rebinds_from_imports_and_uninstall_restores():
    original = seeding.derive_rng
    tracer = Tracer()
    tracer.install()
    try:
        for module in (cvae, panel, schema, seeding):
            assert module.derive_rng is not original
            assert module.derive_rng.__wrapped__ is original
        assert panel._decode_with_noise.__wrapped__ is not None
        assert panel.encode is schema.encode
    finally:
        tracer.uninstall()
    for module in (cvae, panel, schema, seeding):
        assert module.derive_rng is original


def test_lazy_imports_are_traced(tmp_path):
    """cvae.evaluate_srmse imports its sampling helpers inside the function."""
    workload = WORKLOADS["fit-static"]
    cfg = shrink(workload.config(3), tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    base = ["--config", str(tmp_path / "config.json"), "--out", str(tmp_path)]
    assert cli.main(["synth"] + base) == 0
    assert cli.main(["train"] + base) == 0
    model = cvae.load_model(tmp_path / "model_split.json")
    records, _ = schema.ingest_csv(tmp_path / "data.csv", model.schema)
    val_set = schema.encode(records, model.schema)
    tracer = Tracer()
    tracer.install()
    try:
        cvae.evaluate_srmse(model, val_set, [("p_bike", "p_ticket")], seed=1)
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("sampling.sample_preference_columns") == 1
    assert names.count("sampling._decode_with_noise") == 1


def test_timing_tail_percentile_has_ten_samples_beyond():
    assert run.timing([3.0, 1.0, 2.0])["tail"] is None
    t = run.timing(list(range(1, 21)))
    assert (t["median"], t["tail_pct"], t["tail"], t["n"]) == (10.5, 50, 10, 20)
    t = run.timing(list(range(1, 101)))
    assert t["tail_pct"] == 90 and sum(v > t["tail"] for v in range(1, 101)) == 10
