import argparse
import csv
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from superpanel import cli, cvae, metrics, oracle, panel, sampling
from superpanel import schema as schema_mod
from superpanel.seeding import derive_seed

from test_oracle import numerical_time_spec, reference_generate


def run(argv):
    return cli.main(argv)


def base_config(tmp_path, out_dir, **overrides):
    cfg = {
        "seed": 424242,
        "schema": str(out_dir / "schema.json"),
        "data": str(out_dir / "data.csv"),
        "dgp": {"name": "drift-split", "n_per_year": 300},
        "model": {"hidden_layers": [16], "latent_dim": 2, "beta": 2.0,
                  "batch_size": 64, "epochs": 4,
                  "learning_rate": 0.001, "rho": 0.9, "epsilon": 1e-8},
        "eval_subsets": [["p_mode", "p_trips"]],
        "panel": {"model": "model_full.json", "reference_year": 0,
                  "years": [0, 2, 4], "draws_per_cell": 50, "max_individuals": 40},
        "movers": {"t_start": 0, "t_end": 4},
        "bootstrap": {"replicates": 2, "samples_per_replicate": 50,
                      "statistics": [{"attribute": "p_mode", "category": 0}],
                      "model": {"epochs": 2}},
    }
    for k, v in overrides.items():
        cfg[k] = v
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full synth -> train run shared by the downstream command tests."""
    tmp = tmp_path_factory.mktemp("cli")
    out = tmp / "out"
    out.mkdir()
    cfg = base_config(tmp, out)
    assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return tmp, out, cfg


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def no_training(monkeypatch):
    """Fail any model fit, for commands that must refuse their input first."""
    def refuse(*args, **kwargs):
        raise AssertionError("a model was trained")
    monkeypatch.setattr(cvae, "train", refuse)
    monkeypatch.setattr(cvae, "train_stack", refuse)


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail any panel build, for commands that must refuse their request first."""
    monkeypatch.setattr(panel, "build_panel", lambda *a, **k: pytest.fail("panel.build_panel ran"))


class TestSynthTrain:
    def test_outputs_exist(self, pipeline):
        _, out, _ = pipeline
        for name in ("schema.json", "data.csv", "dgp.json", "model_split.json",
                     "model_full.json", "training_history.csv", "train_manifest.json"):
            assert (out / name).exists(), name

    def test_synth_deterministic_bytes(self, pipeline, tmp_path):
        tmp, out, cfg = pipeline
        out2 = tmp_path / "re"
        out2.mkdir()
        cfg2 = base_config(tmp_path, out2)
        assert run(["synth", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert (out2 / "data.csv").read_bytes() == (out / "data.csv").read_bytes()

    @pytest.mark.parametrize("process", ["static-corr", "drift-split", "numerical-time"])
    def test_synth_data_matches_record_path(self, tmp_path, process):
        """data.csv is, byte for byte, the brute-force reference sample written
        row by row as records, then through record_columns."""
        if process == "numerical-time":
            spec = numerical_time_spec()
            oracle.save_dgp(spec, tmp_path / "spec.json")
            dgp = {"spec_path": str(tmp_path / "spec.json"), "n_per_year": 150}
        else:
            spec = oracle.canned_spec(process)
            dgp = {"name": process, "n_per_year": 150}
        cfg = base_config(tmp_path, tmp_path, dgp=dgp)
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        reference = reference_generate(spec, 150, derive_seed(424242, "synth"))
        records = [schema_mod.Record(row) for row in zip(*(col.tolist()
                                                           for col in reference.values()))]
        schema_mod.write_records_csv(tmp_path / "want.csv",
                                     schema_mod.record_columns(records, spec.schema), spec.schema)
        got = (tmp_path / "o" / "data.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        if process == "numerical-time":
            assert got.splitlines()[1].startswith(b"0.0,")

    def test_seed_required(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dgp": {"name": "static-corr"}}))
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("content", ["[1]", '"model"', "null"])
    def test_non_object_config_fails(self, tmp_path, capsys, content):
        cfg = tmp_path / "c.json"
        cfg.write_text(content)
        assert run(["synth", "--config", str(cfg), "--seed", "1",
                    "--out", str(tmp_path / "o")]) == 1
        assert f"{cfg}: a config file must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("drop", ["tables", "per_year"])
    def test_dgp_file_missing_key_fails(self, tmp_path, capsys, drop):
        from superpanel import oracle

        dgp = oracle.canned_spec("drift-split").to_dict()
        if drop == "tables":
            del dgp["tables"]
        else:
            del dgp["drifts"][0]["per_year"]
        spec_path = tmp_path / "dgp.json"
        spec_path.write_text(json.dumps(dgp))
        cfg = base_config(tmp_path, tmp_path, dgp={"spec_path": str(spec_path)})
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"{spec_path}: generating process: missing key '{drop}'" in capsys.readouterr().err

    def test_year_outside_time_categories_fails(self, tmp_path, capsys):
        """No drift-split table reads the year, yet year 7 has no category: its
        rows would be written and then dropped at ingest."""
        cfg = base_config(tmp_path, tmp_path,
                          dgp={"name": "drift-split", "n_per_year": 100, "years": [0, 7]})
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "year 7 is not a category of year" in capsys.readouterr().err
        assert not (tmp_path / "o" / "data.csv").exists()

    def test_missing_inputs_fail_cleanly(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1, "schema": "/nope.json", "data": "/nope.csv"}))
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


class TestGridPlan:
    def test_default_grid_plan_is_180_rows(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        cfg = base_config(tmp_path, out)
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        code = run(["train", "--config", str(cfg), "--out", str(out),
                    "--grid", "--set", "grid.plan_only=true"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip().startswith("cell")]
        assert len(lines) == 180
        plan = read_csv(out / "grid_plan.csv")
        assert len(plan) == 181  # header plus one row per cell

    def test_small_grid_executes(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        cfg = base_config(
            tmp_path, out,
            grid={"n_layers": [1], "n_neurons": [8], "latent_dims": [2],
                  "betas": [1.0, 2.0], "plan_only": False},
        )
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["train", "--config", str(cfg), "--out", str(out), "--grid"]) == 0
        rows = read_csv(out / "leaderboard.csv")
        assert len(rows) == 3  # header + 2 cells
        manifest = json.loads((out / "train_manifest.json").read_text())
        assert "winner" in manifest


class TestEvaluate:
    def test_three_rows_and_overlap(self, pipeline, capsys):
        tmp, out, cfg = pipeline
        assert run(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "comparisons.csv")
        comparisons = [r[0] for r in rows[1:]]
        assert comparisons == ["train-vs-val", "model-vs-val", "model-vs-whole"]
        n_bins = {int(r[2]) for r in rows[1:]}
        assert n_bins == {9}  # 3 x 3 subset
        overlap_rows = read_csv(out / "overlap.csv")
        pairs = {r[0] for r in overlap_rows[1:]}
        assert "train-vs-val" in pairs and "model-split-vs-train" in pairs
        scatter = read_csv(out / "scatter.csv")
        assert len(scatter) == 1 + 3 * 9

    def test_overlap_below_100(self, pipeline):
        _, out, _ = pipeline
        rows = read_csv(out / "overlap.csv")
        model_train = [r for r in rows[1:] if r[0] == "model-split-vs-train"][0]
        assert float(model_train[1]) < 100.0


class TestMemory:
    """Commands drop what they no longer read before the next large allocation."""

    def test_evaluate_holds_one_population_at_a_time(self, pipeline, monkeypatch):
        _, out, cfg = pipeline
        generate, populations = sampling.generate_population, []

        def tracked(*args, **kwargs):
            alive = [i for i, refs in enumerate(populations) if any(r() is not None for r in refs)]
            assert not alive, f"populations {alive} still alive at draw {len(populations)}"
            population = generate(*args, **kwargs)
            populations.append([weakref.ref(col) for col in population.columns.values()])
            return population

        monkeypatch.setattr(sampling, "generate_population", tracked)
        assert run(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(populations) == 3

    def test_train_reads_a_table_and_drops_it_before_training(self, pipeline, tmp_path,
                                                              monkeypatch):
        """train builds no Record, never calls ingest_csv, and holds none of
        read_table's columns when a model fit starts."""
        _, _, cfg = pipeline
        read, train, init = schema_mod.read_table, cvae.train, schema_mod.Record.__init__
        columns, alive, built = [], [], []

        def tracked_read(*args, **kwargs):
            table, dropped = read(*args, **kwargs)
            columns.extend(weakref.ref(col) for col in table.values())
            return table, dropped

        def tracked_train(*args, **kwargs):
            alive.append(sum(r() is not None for r in columns))
            return train(*args, **kwargs)

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(schema_mod, "read_table", tracked_read)
        monkeypatch.setattr(schema_mod, "ingest_csv",
                            lambda *a, **k: pytest.fail("train called ingest_csv"))
        monkeypatch.setattr(schema_mod.Record, "__init__", counted_init)
        monkeypatch.setattr(cvae, "train", tracked_train)
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert len(columns) == 5 and alive == [0, 0] and built == []
        manifest = json.loads((tmp_path / "train_manifest.json").read_text())
        assert manifest["dropped_rows"] == 0


class TestPanelCommands:
    def test_build_panel_outputs(self, pipeline):
        tmp, out, cfg = pipeline
        assert run(["build-panel", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "panel.csv")
        assert rows[0] == ["individual_id", "year", "attribute", "category", "frequency"]
        # 40 individuals x 3 years x (3 + 3) categories over two attributes
        assert len(rows) - 1 == 40 * 3 * 6
        trends = read_csv(out / "trends.csv")
        assert trends[0] == ["condition", "attribute", "kind", "year", "category", "value"]

    def test_classify_movers_outputs(self, pipeline):
        tmp, out, cfg = pipeline
        assert run(["classify-movers", "--config", str(cfg), "--out", str(out)]) == 0
        movers = read_csv(out / "movers.csv")
        assert len(movers) - 1 == 40
        groups = [r[2] for r in movers[1:]]
        assert groups.count("fast") == 4 and groups.count("slow") == 4
        marg = read_csv(out / "group_marginals.csv")
        assert marg[0] == ["attribute", "category", "freq_fast", "freq_slow",
                           "mode_fast", "mode_slow"]

    def test_lone_movers_year_kept(self, pipeline, tmp_path):
        """A start year given alone stays; only the missing end year defaults."""
        tmp, out, cfg = pipeline
        assert run(["classify-movers", "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"panel.model={out / 'model_full.json'}",
                    "--set", "panel.years=[0,1,2,3,4]",
                    "--set", 'movers={"t_start": 1}']) == 0
        manifest = json.loads((tmp_path / "classify_movers_manifest.json").read_text())
        assert (manifest["t_start"], manifest["t_end"]) == (1, 4)

    def test_whole_float_years_pass(self, pipeline, tmp_path):
        """2.0 is a whole number: the years it names are the int years."""
        tmp, out, cfg = pipeline
        assert run(["classify-movers", "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"panel.model={out / 'model_full.json'}",
                    "--set", "panel.years=[0, 2.0, 4]",
                    "--set", 'movers={"t_start": 2.0, "t_end": 4.0}']) == 0
        manifest = json.loads((tmp_path / "classify_movers_manifest.json").read_text())
        assert [manifest["t_start"], manifest["t_end"]] == [2, 4]
        assert type(manifest["t_start"]) is int and type(manifest["t_end"]) is int

    def test_movers_subset_alone_sets_distance_subset(self, pipeline, tmp_path):
        tmp, out, cfg = pipeline
        assert run(["classify-movers", "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"panel.model={out / 'model_full.json'}",
                    "--set", 'movers.subset=["p_mode"]']) == 0
        manifest = json.loads((tmp_path / "classify_movers_manifest.json").read_text())
        assert manifest["subset"] == ["p_mode"]
        assert "subsets" not in manifest["config"]["panel"]

    @pytest.mark.parametrize("setting, named", [
        ("movers.t_start=7", "movers.t_start 7 is not one of the panel years [0, 2, 4]"),
        ("movers.t_end=3", "movers.t_end 3 is not one of the panel years [0, 2, 4]"),
    ])
    def test_bad_mover_years_fail_before_sampling(self, pipeline, tmp_path, capsys, no_sampling,
                                                  setting, named):
        tmp, out, cfg = pipeline
        assert run(["classify-movers", "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"panel.model={out / 'model_full.json'}", "--set", setting]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "movers.csv").exists()

    def test_too_few_individuals_for_deciles_fail_before_sampling(self, pipeline, tmp_path,
                                                                  capsys, no_sampling):
        """Below 10 base individuals a decile is empty, so no mover group can be profiled."""
        tmp, out, cfg = pipeline
        assert run(["classify-movers", "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"panel.model={out / 'model_full.json'}",
                    "--set", "panel.max_individuals=5"]) == 1
        assert "at least 10 base individuals" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []

    def test_distance_subset_over_bin_cap_fails_before_sampling(self, pipeline, tmp_path, capsys,
                                                                monkeypatch, no_sampling):
        """Without movers.subset the distance subset is the full preference joint,
        which needs to fit the bin cap."""
        tmp, out, cfg = pipeline
        monkeypatch.setattr(metrics, "DEFAULT_BIN_CAP", 8)  # below the 3 x 3 joint
        assert run(["classify-movers", "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"panel.model={out / 'model_full.json'}"]) == 1
        assert "movers.subset required" in capsys.readouterr().err

    def test_movers_subset_over_bin_cap_fails_before_sampling(self, pipeline, tmp_path, capsys,
                                                              monkeypatch, no_sampling):
        """A given movers.subset is held to the bin cap too, read when the command runs."""
        tmp, out, cfg = pipeline
        monkeypatch.setattr(metrics, "DEFAULT_BIN_CAP", 8)  # below the 3 x 3 joint
        assert run(["classify-movers", "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"panel.model={out / 'model_full.json'}",
                    "--set", 'movers.subset=["p_mode","p_trips"]']) == 1
        assert ("movers.subset ['p_mode', 'p_trips'] has 9 bins, above the bin cap 8"
                in capsys.readouterr().err)
        assert list(tmp_path.glob("*.csv")) == []

    def test_bootstrap_outputs(self, pipeline):
        tmp, out, cfg = pipeline
        assert run(["bootstrap", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "bootstrap.csv")
        assert rows[0] == ["statistic", "source", "year", "mean", "std"]
        assert len(rows) > 1
        manifest = json.loads((out / "bootstrap_manifest.json").read_text())
        assert manifest["survivors"] == 2

    def test_bootstrap_jobs_do_not_change_bytes(self, pipeline, tmp_path, monkeypatch):
        """Replicates stacked and spread over worker processes in different ways
        write the CSV of a serial run that trains each replicate alone. Nine
        replicates fill two stacks at --jobs 1 and 2 and three at --jobs 3."""
        tmp, out, cfg = pipeline
        model = cvae.CvaeConfig(hidden_layers=(16,), latent_dim=2, batch_size=64)
        assert cvae.stack_size(schema_mod.load_schema(out / "schema.json"), model) < 9
        outputs = []
        for jobs, stack_floats in (("1", 1), ("1", cvae.STACK_FLOATS), ("2", cvae.STACK_FLOATS),
                                   ("3", cvae.STACK_FLOATS)):
            monkeypatch.setattr(cvae, "STACK_FLOATS", stack_floats)
            dest = tmp_path / f"jobs{jobs}-{stack_floats}"
            assert run(["bootstrap", "--config", str(cfg), "--out", str(dest), "--jobs", jobs,
                        "--set", "bootstrap.replicates=9"]) == 0
            outputs.append((dest / "bootstrap.csv").read_bytes())
        assert outputs[1:] == outputs[:1] * 3

    def test_conditional_panel_subset_fails(self, pipeline, tmp_path, capsys, no_sampling):
        tmp, out, cfg = pipeline
        assert run(["classify-movers", "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"panel.model={out / 'model_full.json'}",
                    "--set", 'movers.subset=["segment","p_mode"]']) == 1
        assert "'segment' is not a preference attribute" in capsys.readouterr().err

    def test_conditional_eval_subset_fails_before_training(self, pipeline, tmp_path, capsys,
                                                            no_training):
        tmp, out, cfg = pipeline
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path), "--grid",
                    "--set", 'grid={"n_layers": [1], "n_neurons": [8], "latent_dims": [2], '
                             '"betas": [1.0], "plan_only": false}',
                    "--set", 'eval_subsets=[["segment","p_mode"]]']) == 1
        assert "'segment' is not a preference attribute" in capsys.readouterr().err

    def test_grid_eval_subset_over_bin_cap_fails_before_training(self, pipeline, tmp_path, capsys,
                                                                 monkeypatch, no_training):
        tmp, out, cfg = pipeline
        monkeypatch.setattr(metrics, "DEFAULT_BIN_CAP", 8)  # below the 3 x 3 joint
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path), "--grid",
                    "--set", 'grid={"n_layers": [1], "n_neurons": [8], "latent_dims": [2], '
                             '"betas": [1.0], "plan_only": false}',
                    "--set", 'eval_subsets=[["p_mode"],["p_mode","p_trips"]]']) == 1
        assert ("eval_subsets[1] ['p_mode', 'p_trips'] has 9 bins, above the bin cap 8"
                in capsys.readouterr().err)
        assert not (tmp_path / "leaderboard.csv").exists()

    @pytest.mark.parametrize("stat, named", [
        ({"attribute": "p_mode", "category": 7}, "category 7"),
        ({"attribute": "p_mode", "category": "1"}, "category '1'"),
        ({"attribute": "p_mode", "category": 0, "condition": {"segment": 9}}, "value 9"),
    ])
    def test_bad_bootstrap_statistic_fails(self, pipeline, tmp_path, capsys, no_training,
                                           stat, named):
        tmp, out, cfg = pipeline
        assert run(["bootstrap", "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"bootstrap.statistics={json.dumps([stat])}"]) == 1
        err = capsys.readouterr().err
        assert "statistic p_mode:" in err and named in err
        assert not (tmp_path / "bootstrap.csv").exists()

    @pytest.mark.parametrize("stat, named", [
        ({"category": 0}, "bootstrap.statistics[1] has no 'attribute' key"),
        ({"attribute": "p_mode", "catgory": 0}, "bootstrap.statistics[1] has an unknown key "
                                                "'catgory'"),
        ({"attribute": "p_mode", "category": 0, "condition": [["segment", 0]]},
         "bootstrap.statistics[1] 'condition' must be an object"),
        # bool("false") is True: the string would write per-year rows
        ({"attribute": "p_mode", "category": 0, "per_year": "false"},
         "bootstrap.statistics[1] 'per_year' must be true or false, got \"false\""),
        ({"attribute": "p_mode", "category": 0, "per_year": 0},
         "bootstrap.statistics[1] 'per_year' must be true or false, got 0"),
    ])
    def test_malformed_bootstrap_statistic_fails(self, pipeline, tmp_path, capsys, no_training,
                                                 stat, named):
        tmp, out, cfg = pipeline
        stats = [{"attribute": "p_mode", "category": 0}, stat]
        assert run(["bootstrap", "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"bootstrap.statistics={json.dumps(stats)}"]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "bootstrap.csv").exists()


    @pytest.mark.parametrize("setting, named", [
        ('panel.trend_conditions=[["group", 1]]',
         "panel.trend_conditions[0] must map conditional attributes to values"),
        ('panel.trend_conditions=[{"group": 1}, {"p_mode": 0}]',
         "panel.trend_conditions[1] must map conditional attributes to values"),
        ('panel.trend_attributes=["p_mode", "segment"]',
         "panel.trend_attributes[1] 'segment' is not a preference attribute"),
        ('panel.trend_conditions=[{"group": 1}, {"group": 5}]',
         "panel.trend_conditions[1] {'group': 5} matches no individual"),
    ])
    def test_bad_trend_request_fails_before_sampling(self, pipeline, tmp_path, capsys,
                                                     no_sampling, setting, named):
        tmp, out, cfg = pipeline
        assert run(["build-panel", "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"panel.model={out / 'model_full.json'}", "--set", setting]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "panel.csv").exists()


class TestReferenceYear:
    def test_numerical_time_truncates_like_int(self, tmp_path, monkeypatch):
        """A raw time value joins the reference year its int() names: -0.5 and
        0.99 are year 0, 1.0 is not; the default years are the int() values."""
        from superpanel import schema as sm

        schema = sm.Schema(attributes=(
            sm.AttributeSpec("year", "time", "numerical", bin_edges=(-2.0, 0.0, 1.0, 2.0, 3.0)),
            sm.AttributeSpec("g", "socio", "categorical", cardinality=2),
            sm.AttributeSpec("p", "preference", "categorical", cardinality=2),
        ))
        times = [0.0, 0.5, -0.5, 0.99, 1.0, 1.5, 2.7, -1.2]
        table = {"year": np.array([times[i % 8] for i in range(40)]),
                 "g": np.arange(40) % 2, "p": np.arange(40) // 3 % 2}
        sm.save_schema(schema, tmp_path / "schema.json")
        sm.write_records_csv(tmp_path / "data.csv", table, schema)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seed": 5, "schema": str(tmp_path / "schema.json"),
            "data": str(tmp_path / "data.csv"),
            "model": {"hidden_layers": [4], "latent_dim": 1, "epochs": 1},
            "panel": {"draws_per_cell": 10}}))
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        seen = []
        build_panel = panel.build_panel

        def spy(model, base, years, *args, **kwargs):
            seen.append((base, years))
            return build_panel(model, base, years, *args, **kwargs)

        monkeypatch.setattr(panel, "build_panel", spy)
        assert run(["build-panel", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        (base, years), = seen
        want = [t for t in table["year"].tolist() if int(t) == 0]
        assert base["year"].tolist() == want and len(want) == 20
        assert base["g"].tolist() == [g for t, g in zip(table["year"].tolist(),
                                                        table["g"].tolist()) if int(t) == 0]
        assert years == sorted({int(t) for t in times}) == [-1, 0, 1, 2]


class TestGenerate:
    def test_generate_matches_ingestion_format(self, pipeline):
        tmp, out, cfg = pipeline
        assert run(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        synth = read_csv(out / "synthetic.csv")
        data = read_csv(out / "data.csv")
        assert synth[0] == data[0]  # same header
        assert len(synth) == len(data)  # one draw per profile
        manifest = json.loads((out / "generate_manifest.json").read_text())
        assert manifest["n_records"] == len(data) - 1

    def test_model_schema_mismatch_fails(self, pipeline, tmp_path, capsys):
        tmp, out, _ = pipeline
        changed = json.loads((out / "schema.json").read_text())
        segment = next(a for a in changed["attributes"] if a["name"] == "segment")
        segment["cardinality"] += 1
        schema_path = tmp_path / "changed_schema.json"
        schema_path.write_text(json.dumps(changed))
        cfg = base_config(tmp_path, out, schema=str(schema_path),
                          generate={"model": str(out / "model_full.json")})
        assert run(["generate", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 1
        assert str(schema_path) in capsys.readouterr().err

    def test_old_model_format_fails(self, pipeline, tmp_path, capsys):
        """A version 1 file, with numeric_mode and (kind, width) head blocks, is refused."""
        tmp, out, _ = pipeline
        payload = json.loads((out / "model_full.json").read_text())
        payload.update(format_version=1, numeric_mode="discretize")
        head = payload["decoder"]["layers"][-1]
        head["blocks"] = [["softmax", w] for w in head["blocks"]]
        old = tmp_path / "model_v1.json"
        old.write_text(json.dumps(payload))
        cfg = base_config(tmp_path, out, generate={"model": str(old)})
        assert run(["generate", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 1
        assert "format_version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["decoder", "best_epoch", "blocks", "encoder",
                                       "activation"])
    def test_malformed_model_fails(self, pipeline, tmp_path, capsys, field):
        """(kind, width) head blocks in a version 2 file, no best_epoch, head blocks
        that split the schema's [3, 3] preference widths as [2, 4], networks
        sized for another latent_dim, or a linear hidden layer are refused."""
        tmp, out, _ = pipeline
        payload = json.loads((out / "model_full.json").read_text())
        if field == "decoder":
            payload["decoder"]["layers"][-1]["blocks"] = [["softmax", 3], ["softmax", 3]]
        elif field == "blocks":
            assert payload["decoder"]["layers"][-1]["blocks"] == [3, 3]
            payload["decoder"]["layers"][-1]["blocks"] = [2, 4]
        elif field == "encoder":
            payload["config"]["latent_dim"] += 1
        elif field == "activation":
            assert payload["decoder"]["layers"][0]["activation"] == "tanh"
            payload["decoder"]["layers"][0]["activation"] = "linear"
        else:
            del payload["best_epoch"]
        bad = tmp_path / "model_bad.json"
        bad.write_text(json.dumps(payload))
        cfg = base_config(tmp_path, out, generate={"model": str(bad)})
        assert run(["generate", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and f"'{field}'" in err


class TestDrawCounts:
    @pytest.mark.parametrize("command, key", [
        ("generate", "generate.draws_per_profile"),
        ("evaluate", "evaluate.draws_per_profile"),
        ("bootstrap", "bootstrap.samples_per_replicate"),
    ])
    def test_draw_count_below_one_fails_first(self, pipeline, tmp_path, capsys, monkeypatch,
                                              no_training, command, key):
        """A draw count of 0 fails naming its key before any model loads or trains."""
        tmp, out, cfg = pipeline
        def refuse(*args, **kwargs):
            raise AssertionError("a model was loaded")
        monkeypatch.setattr(cvae, "load_model", refuse)
        assert run([command, "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"{key}=0"]) == 1
        assert f"{key} must be >= 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []


    @pytest.mark.parametrize("command", ["build-panel", "classify-movers"])
    @pytest.mark.parametrize("limit", [0, -1])
    def test_max_individuals_below_one_fails_first(self, pipeline, tmp_path, capsys, monkeypatch,
                                                   command, limit):
        """-1 would drop the last base individual and 0 read as no limit; both
        fail naming the key before any model loads."""
        tmp, out, cfg = pipeline
        def refuse(*args, **kwargs):
            raise AssertionError("a model was loaded")
        monkeypatch.setattr(cvae, "load_model", refuse)
        assert run([command, "--config", str(cfg), "--out", str(tmp_path),
                    "--set", f"panel.max_individuals={limit}"]) == 1
        assert f"panel.max_individuals must be >= 1, got {limit}" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []


class TestWholeNumbers:
    @pytest.mark.parametrize("command, assignment, named", [
        # a key whose default is an int
        ("train", "model.epochs=2.7", "config key 'model.epochs' must be a whole number, got 2.7"),
        ("synth", "dgp.n_per_year=10.5",
         "config key 'dgp.n_per_year' must be a whole number, got 10.5"),
        ("build-panel", "panel.draws_per_cell=20.5",
         "config key 'panel.draws_per_cell' must be a whole number, got 20.5"),
        ("bootstrap", "bootstrap.replicates=2.5",
         "config key 'bootstrap.replicates' must be a whole number, got 2.5"),
        ("bootstrap", "bootstrap.model.epochs=1.5",
         "config key 'bootstrap.model.epochs' must be a whole number, got 1.5"),
        ("train", "model.epochs=NaN", "config key 'model.epochs' must be a whole number, got NaN"),
        # a CvaeConfig int field the config keys do not check entry by entry
        ("train", "model.hidden_layers=[16, 8.5]", "hidden_layers must be a whole number, got 8.5"),
        # a count whose default is null
        ("build-panel", "panel.max_individuals=3.5",
         "panel.max_individuals must be a whole number, got 3.5"),
        # years, whose defaults are null
        ("build-panel", "panel.years=[0, 2.5, 4]", "panel.years[1] must be a whole number, got 2.5"),
        ("classify-movers", "movers.t_start=0.7", "movers.t_start must be a whole number, got 0.7"),
        ("classify-movers", "movers.t_end=4.5", "movers.t_end must be a whole number, got 4.5"),
        # int(True) is 1: [true, 2] would build years [1, 2]
        ("build-panel", "panel.years=[true, 2]", "panel.years[0] must be a whole number, got true"),
        ("build-panel", 'panel.years=[0, "a"]', 'panel.years[1] must be a whole number, got "a"'),
        ("classify-movers", "movers.t_start=false",
         "movers.t_start must be a whole number, got false"),
        ("classify-movers", 'movers.t_end="4"', 'movers.t_end must be a whole number, got "4"'),
        ("build-panel", "panel.max_individuals=true",
         "panel.max_individuals must be a whole number, got true"),
        ("classify-movers", 'panel.max_individuals="40"',
         'panel.max_individuals must be a whole number, got "40"'),
    ])
    def test_fractional_int_fails(self, pipeline, tmp_path, capsys, monkeypatch, no_training,
                                  command, assignment, named):
        """int() would truncate or coerce: model.epochs=2.7 would train 2 epochs
        and exit 0, and panel.years=[true, 2] would build years [1, 2]."""
        tmp, out, cfg = pipeline
        monkeypatch.setattr(cvae, "load_model", lambda *a, **k: pytest.fail("a model was loaded"))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path),
                    "--set", assignment]) == 1
        assert named in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == [] and list(tmp_path.glob("*.json")) == []


class TestSetOverrides:
    def test_set_deep_override(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        cfg = base_config(tmp_path, out)
        assert run(["synth", "--config", str(cfg), "--out", str(out),
                    "--set", "dgp.n_per_year=10"]) == 0
        rows = read_csv(out / "data.csv")
        assert len(rows) - 1 == 50  # 10 per year x 5 years

    def test_bad_set_syntax(self, tmp_path):
        cfg = base_config(tmp_path, tmp_path)
        code = run(["synth", "--config", str(cfg), "--out", str(tmp_path / "o"),
                    "--set", "oops"])
        assert code == 1

    @pytest.mark.parametrize("key", ["model.latnt_dim", "panel.draws_per_cel",
                                     "bootstrap.model.epoch", "out_dirr", "numeric_mode",
                                     "generate.decode_mode", "panel.subsets"])
    def test_unknown_key_fails(self, tmp_path, capsys, key):
        cfg = base_config(tmp_path, tmp_path)
        code = run(["synth", "--config", str(cfg), "--out", str(tmp_path / "o"),
                    "--set", f"{key}=3"])
        assert code == 1
        assert f"'{key}'" in capsys.readouterr().err

    def test_set_fills_null_section(self, tmp_path):
        """bootstrap.model defaults to null; a key under it makes it a section."""
        out = tmp_path / "o"
        out.mkdir()
        cfg = base_config(tmp_path, out, bootstrap={"replicates": 2})
        assert run(["synth", "--config", str(cfg), "--out", str(out),
                    "--set", "bootstrap.model.epochs=2"]) == 0
        manifest = json.loads((out / "synth_manifest.json").read_text())
        assert manifest["config"]["bootstrap"]["model"] == {"epochs": 2}

    def test_set_object_merges_into_section(self, tmp_path):
        """An object given to --set keeps the section's other keys, as a config file does."""
        out = tmp_path / "o"
        cfg = base_config(tmp_path, tmp_path)
        assert run(["synth", "--config", str(cfg), "--out", str(out),
                    "--set", 'dgp={"n_per_year": 10}']) == 0
        manifest = json.loads((out / "synth_manifest.json").read_text())
        assert manifest["config"]["dgp"] == {"name": "drift-split", "spec_path": None,
                                             "n_per_year": 10, "years": None}

    @pytest.mark.parametrize("command, file_override, sets, key", [
        ("build-panel", {"panel": None}, [], "panel"),
        ("train", {"model": 7}, [], "model"),
        ("build-panel", {}, ["panel=3"], "panel"),
        ("bootstrap", {}, ["bootstrap.model=7"], "bootstrap.model"),
    ])
    def test_section_given_a_value_fails(self, tmp_path, capsys, no_training, command,
                                         file_override, sets, key):
        cfg = base_config(tmp_path, tmp_path, **file_override)
        code = run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]
                   + [a for s in sets for a in ("--set", s)])
        assert code == 1
        assert f"config key '{key}' must be a section" in capsys.readouterr().err

    @pytest.mark.parametrize("command, assignment, want", [
        (["evaluate"], "evaluate.draws_per_profile=null", "a number"),
        (["train"], "model.beta=null", "a number"),
        (["train"], "model.hidden_layers=null", "a list"),
        (["train"], "split_fraction=null", "a number"),
        (["synth"], "dgp.n_per_year=null", "a number"),
        (["bootstrap"], "bootstrap.replicates=null", "a number"),
        (["train", "--grid"], "grid.betas=0.5", "a list"),
        (["train"], "model.epochs=true", "a number"),
        (["synth"], "dgp.name=3", "a string"),
        (["train", "--grid"], "grid.plan_only=1", "a boolean"),
        (["bootstrap"], "bootstrap.model.epochs=[2]", "a number"),
    ])
    def test_value_of_wrong_type_fails(self, pipeline, tmp_path, capsys, no_training,
                                       command, assignment, want):
        _, _, cfg = pipeline
        key, value = assignment.split("=")
        code = run(command + ["--config", str(cfg), "--out", str(tmp_path / "o"),
                              "--set", assignment])
        assert code == 1
        assert f"config key '{key}' must be {want}, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_number_types_stand_in_and_null_model_override_inherits(self, tmp_path):
        config = cli.load_config(argparse.Namespace(config=None, seed=1, set=[
            "model.beta=1", "model.epochs=3.0", "split_fraction=1e-1",
            "bootstrap.model.beta=null", "bootstrap.model.latent_dim=4",
            "panel.max_individuals=3.0"]))
        model_cfg = cli._model_config(config, "bootstrap-base", config["bootstrap"]["model"])
        assert (model_cfg.beta, model_cfg.epochs, model_cfg.latent_dim) == (1.0, 3, 4)
        assert cli._count(config, "panel.max_individuals") == 3

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_fails(self, tmp_path, capsys, jobs):
        cfg = base_config(tmp_path, tmp_path)
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "o"),
                    "--jobs", jobs]) == 1
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [424242, None])
    def test_set_through_value_fails(self, tmp_path, capsys, seed):
        cfg = base_config(tmp_path, tmp_path, seed=seed)
        code = run(["synth", "--config", str(cfg), "--out", str(tmp_path / "o"),
                    "--set", "seed.x=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert ("'seed.x'" if seed else "seed must be an integer") in err


class TestReadmeConfig:
    def test_minimal_config_loads(self, tmp_path):
        """The README's minimal end-to-end config loads from a file and as --set objects."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("A minimal end-to-end config:", 1)[1]
        text = block.split("```json", 1)[1].split("```", 1)[0]
        doc = json.loads(text)
        path = tmp_path / "readme.json"
        path.write_text(text)
        from_file = cli.load_config(argparse.Namespace(config=str(path), set=None, seed=None))
        from_sets = cli.load_config(argparse.Namespace(
            config=None, set=[f"{k}={json.dumps(v)}" for k, v in doc.items()], seed=None))
        assert from_file == from_sets
        assert from_file["panel"]["draws_per_cell"] == doc["panel"]["draws_per_cell"]


class TestModelConfig:
    def test_int_beta_saved_as_float(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        cfg = base_config(tmp_path, out)
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["train", "--config", str(cfg), "--out", str(out),
                    "--set", "model.beta=5", "--set", "model.epochs=1"]) == 0
        text = (out / "model_full.json").read_text()
        assert '"beta": 5.0,' in text
        assert json.loads(text)["config"]["hidden_layers"] == [16]

    @pytest.mark.parametrize("assignment, named", [
        ("model.hidden_layers=[0]", "hidden_layers"),
        ("model.learning_rate=-0.01", "learning_rate"),
    ])
    def test_bad_model_shape_or_rate_fails(self, pipeline, tmp_path, capsys, no_training,
                                           assignment, named):
        tmp, out, cfg = pipeline
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path),
                    "--set", assignment]) == 1
        assert named in capsys.readouterr().err
        assert list(tmp_path.glob("*.json")) == []


class TestManifestReRun:
    def test_manifest_config_reproduces_outputs(self, pipeline, tmp_path):
        """The config snapshot inside a manifest is enough to re-run and get
        the same bytes back."""
        tmp, out, cfg = pipeline
        manifest = json.loads((out / "synth_manifest.json").read_text())
        out2 = tmp_path / "redo"
        out2.mkdir()
        replay = dict(manifest["config"])
        replay["schema"] = str(out2 / "schema.json")
        replay["data"] = str(out2 / "data.csv")
        cfg2 = tmp_path / "replay.json"
        cfg2.write_text(json.dumps(replay))
        assert run(["synth", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert (out2 / "data.csv").read_bytes() == (out / "data.csv").read_bytes()


class TestExternalTable:
    def _external_setup(self, tmp_path, key_mode, zones=(0, 1), skip=()):
        """Tiny process with a zone and an external accessibility score; the
        table has no row for a (key, year) pair in ``skip``."""
        from superpanel import oracle, schema as sm

        schema = sm.Schema(attributes=(
            sm.AttributeSpec("year", "time", "categorical", cardinality=3),
            sm.AttributeSpec("zone", "geography", "categorical", cardinality=2),
            sm.AttributeSpec("access", "external", "categorical", cardinality=2),
            sm.AttributeSpec("p", "preference", "categorical", cardinality=2),
        ))
        spec = oracle.DgpSpec(schema=schema, tables=(
            oracle.TableSpec("zone", (), ((0.5, 0.5),)),
            oracle.TableSpec("access", ("zone",), ((0.9, 0.1), (0.2, 0.8))),
            oracle.TableSpec("p", ("access",), ((0.8, 0.2), (0.3, 0.7))),
        ), years=(0, 1, 2))
        out = tmp_path / "o"
        out.mkdir()
        spec_path = tmp_path / "dgp.json"
        oracle.save_dgp(spec, spec_path)
        ext_path = tmp_path / "external.csv"
        with open(ext_path, "w", newline="") as fh:
            w = csv.writer(fh)
            if key_mode == "zone":
                w.writerow(["zone", "year", "access"])
                for year in range(3):
                    for zone in zones:
                        if (zone, year) not in skip:
                            w.writerow([zone, year, (zone + year) % 2])
            else:
                w.writerow(["individual_id", "year", "access"])
                for year in range(3):
                    for pid in range(200):
                        if (pid, year) not in skip:
                            w.writerow([pid, year, (pid + year) % 2])
        cfg = {
            "seed": 11,
            "schema": str(out / "schema.json"),
            "data": str(out / "data.csv"),
            "dgp": {"spec_path": str(spec_path), "n_per_year": 150},
            "model": {"hidden_layers": [8], "latent_dim": 2, "beta": 1.0,
                      "learning_rate": 0.001, "rho": 0.9, "epsilon": 1e-8,
                      "batch_size": 64, "epochs": 2},
            "eval_subsets": [["p"]],
            "panel": {"model": "model_full.json", "reference_year": 0,
                      "years": [0, 1, 2], "draws_per_cell": 30,
                      "max_individuals": 20,
                      "external_table": str(ext_path)},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        return cfg_path, out

    @pytest.mark.parametrize("key_mode", ["individual", "zone"])
    def test_external_values_flow_through_panel(self, tmp_path, key_mode):
        cfg, out = self._external_setup(tmp_path, key_mode)
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["build-panel", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "panel.csv")
        assert len(rows) - 1 == 20 * 3 * 2  # individuals x years x categories

    def test_missing_zone_named(self, tmp_path, capsys):
        cfg, out = self._external_setup(tmp_path, "zone", zones=(0,))
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["build-panel", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "zone 1 in year 0" in err and "zone 1 in year 2" in err
        assert "zone 0" not in err

    def test_missing_key_column_named(self, tmp_path, capsys):
        """A table keyed by neither individual_id nor zone is refused by name."""
        cfg, out = self._external_setup(tmp_path, "individual")
        ext_path = tmp_path / "external.csv"
        rows = read_csv(ext_path)
        rows[0][0] = "person"
        with open(ext_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["build-panel", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "'individual_id'" in err and "'year'" not in err and "'access'" not in err

    def test_missing_individual_named_before_sampling(self, tmp_path, capsys, no_sampling):
        cfg, out = self._external_setup(tmp_path, "individual", skip={(3, 1)})
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["build-panel", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "no external values for individual_id 3 in year 1" in err
        assert "year 0" not in err and "year 2" not in err

    @pytest.mark.parametrize("cut, expected", [
        (lambda row: row[:2], "column 'access' of individual_id 3 in year 1 has no value"),
        (lambda row: [row[0], "one", row[2]],
         "column 'year' of individual_id 3 in year one holds 'one', not an integer"),
        (lambda row: [row[0], row[1], "high"],
         "column 'access' of individual_id 3 in year 1 holds 'high', not an integer"),
    ], ids=["short-row", "year-not-an-integer", "value-not-an-integer"])
    def test_bad_cell_named(self, tmp_path, capsys, no_sampling, cut, expected):
        """A short row or an unparsable cell is refused naming the file, the column
        and the row's (key, year)."""
        cfg, out = self._external_setup(tmp_path, "individual")
        ext_path = tmp_path / "external.csv"
        rows = read_csv(ext_path)
        at = rows.index(["3", "1", "0"])
        rows[at] = cut(rows[at])
        with open(ext_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["build-panel", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {ext_path}: {expected}" in capsys.readouterr().err

    def test_repeated_key_year_named(self, tmp_path, capsys, no_sampling):
        """The first repeat is named; a later row would otherwise replace an earlier one."""
        cfg, out = self._external_setup(tmp_path, "individual")
        ext_path = tmp_path / "external.csv"
        with open(ext_path, "a", newline="") as fh:
            csv.writer(fh).writerows([["7", "2", "0"], ["3", "1", "1"], ["7", "2", "1"]])
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["build-panel", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {ext_path}: individual_id 7 in year 2 has more than one row" in err
        assert "individual_id 3" not in err

    def test_table_without_external_attribute_fails(self, tmp_path, capsys, no_sampling):
        """drift-split has no external attribute, so the table would go unread."""
        cfg, out = self._external_setup(tmp_path, "individual")
        doc = json.loads(cfg.read_text())
        doc["dgp"] = {"name": "drift-split", "n_per_year": 150}
        doc["eval_subsets"] = None
        cfg.write_text(json.dumps(doc))
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["build-panel", "--config", str(cfg), "--out", str(out)]) == 1
        assert (f"panel.external_table {tmp_path / 'external.csv'}: the schema has no "
                f"external attribute") in capsys.readouterr().err
        assert not (out / "panel.csv").exists()

    def test_unrequested_partial_year_accepted(self, tmp_path):
        """Zone 1 has no row in year 2, which the panel does not request."""
        cfg, out = self._external_setup(tmp_path, "zone", skip={(1, 2)})
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert run(["build-panel", "--config", str(cfg), "--out", str(out),
                    "--set", "panel.years=[0, 1]"]) == 0
        rows = read_csv(out / "panel.csv")
        assert len(rows) - 1 == 20 * 2 * 2  # individuals x years x categories
