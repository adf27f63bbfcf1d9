"""Command-line pipeline driver.

Every command is a pure function of (config file, --set overrides, seed):
outputs land under the --out directory as CSV files plus a JSON manifest
holding the resolved config, the seed, wall time and peak memory. Randomness always
flows from the single master seed, so reruns and different --jobs values
produce byte-identical CSVs.
"""

import argparse
import copy
import csv
import hashlib
import json
import resource
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import cvae, metrics, oracle, panel, sampling, schema as schema_mod
from .seeding import derive_seed


class CliError(RuntimeError):
    pass


def _fail(key: str, kind: str, value):
    raise CliError(f"{key} must be {kind}, got {json.dumps(value)}")


def _whole(key: str, value) -> int:
    """int(value) of a JSON number, refused when that would truncate a
    fractional part; a boolean is not a number."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        _fail(key, "a whole number", value)
    return int(value)


def _count(key: str, value) -> int:
    if _whole(key, value) < 1:
        _fail(key, ">= 1", value)
    return int(value)


def _typed(kind: str, *types):
    """The check of a value whose type is one of ``types``."""
    def check(key: str, value):
        if type(value) not in types:
            _fail(key, kind, value)
        return value
    return check


_number, _string, _boolean = (_typed("a number", int, float), _typed("a string", str),
                              _typed("a boolean", bool))


def _list(entry=None):
    """The check of a list (or a tuple default) whose entries each pass ``entry``."""
    def check(key: str, value) -> list:
        _typed("a list", list, tuple)(key, value)
        return [entry(f"{key}[{i}]", v) if entry else v for i, v in enumerate(value)]
    return check


def _years(key: str, value) -> list[int]:
    years = _list(_whole)(key, value)
    if len(set(years)) < len(years):
        _fail(key, "a list of whole numbers each listed once", value)
    return years


DEFAULT_CONFIG = {
    "seed": None,
    "out_dir": None,
    "schema": None,
    "data": None,
    "split_fraction": 0.8,
    "dgp": {"name": "static-corr", "spec_path": None, "n_per_year": 1000, "years": None},
    "model": {f.name: f.default for f in fields(cvae.CvaeConfig) if f.name != "seed"},
    "grid": {**asdict(cvae.GridSpec()), "plan_only": False},
    "eval_subsets": None,
    "generate": {"model": "model_full.json", "draws_per_profile": 1},
    "evaluate": {"draws_per_profile": 1},
    "panel": {
        "model": "model_full.json",
        "reference_year": 0,
        "years": None,
        "draws_per_cell": 200,
        "external_table": None,
        "max_individuals": None,
        "trend_attributes": None,
        "trend_conditions": None,
    },
    "movers": {"t_start": None, "t_end": None, "subset": None},
    "bootstrap": {
        "replicates": 20,
        "samples_per_replicate": 100,
        "statistics": None,
        "model": None,
    },
}


def _model_overrides(key: str, value) -> dict:
    """bootstrap.model: model keys, each checked as under model or null to inherit it."""
    _check_keys({"model": value}, {"model": DEFAULT_CONFIG["model"]},
                {"model": CHECKS["model"]}, "bootstrap.", nullable=True)
    return value


#: The check of each key whose default does not give it: a null default, a count
#: (a whole number >= 1) or a list's entries. Every other key keeps its default's
#: type: an int is a whole number, a float a number, a string a string, a bool a boolean.
CHECKS = {
    "seed": _whole,
    "out_dir": _string,
    "schema": _string,
    "data": _string,
    "dgp": {"spec_path": _string, "n_per_year": _count, "years": _years},
    "model": {"hidden_layers": _list(_whole)},
    "grid": {"n_layers": _list(_whole), "n_neurons": _list(_whole),
             "latent_dims": _list(_whole), "betas": _list(_number)},
    "eval_subsets": _list(_list(_string)),
    "generate": {"draws_per_profile": _count},
    "evaluate": {"draws_per_profile": _count},
    "panel": {"years": _years, "external_table": _string, "max_individuals": _count,
              "trend_attributes": _list(_string), "trend_conditions": _list()},
    "movers": {"t_start": _whole, "t_end": _whole, "subset": _list(_string)},
    "bootstrap": {"samples_per_replicate": _count, "statistics": _list(),
                  "model": _model_overrides},
}


def _deep_update(base: dict, override: dict) -> None:
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        else:
            base[k] = v


class _Pairs(list):
    """A JSON object's (key, value) pairs in order, before repeated keys are checked."""


def _parse_json(text: str, where: str, path: str = ""):
    """json.loads of text, refusing a key repeated in any object, which json
    would keep the last of; the error names it by its path under ``path``."""
    def unique(node, path):
        if isinstance(node, _Pairs):
            out = {}
            for key, value in node:
                name = f"{path}.{key}" if path else key
                if key in out:
                    raise CliError(f"{where}: config key {name!r} is repeated")
                out[key] = unique(value, name)
            return out
        if isinstance(node, list):
            return [unique(v, f"{path}[{i}]") for i, v in enumerate(node)]
        return node
    return unique(json.loads(text, object_pairs_hook=_Pairs), path)


def _apply_set(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise CliError(f"--set needs key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = _parse_json(raw, f"--set {key!r}", key)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for p in parts[:-1]:
        if node.get(p) is None:  # a section that defaults to null, or a new key
            node[p] = {}
        elif not isinstance(node[p], dict):
            raise CliError(f"--set {key!r}: {p!r} holds a value, not a section")
        node = node[p]
    # an object merges into its section, as the config file does
    _deep_update(node, {parts[-1]: value})


def _check_keys(config: dict, known: dict, checks: dict, prefix: str = "",
                nullable: bool = False) -> None:
    """Every key is known and passes its check, which stores the checked value.
    Null passes where the default is null, and everywhere under ``nullable``,
    for overrides that inherit."""
    for key, value in config.items():
        name = prefix + key
        if key not in known:
            raise CliError(f"unknown config key {name!r}")
        if isinstance(known[key], dict):
            if not isinstance(value, dict):
                raise CliError(f"config key {name!r} must be a section (a JSON object), "
                               f"got {value!r}")
            _check_keys(value, known[key], checks.get(key, {}), f"{name}.", nullable)
        elif value is not None or not (nullable or known[key] is None):
            check = checks.get(key) or {bool: _boolean, int: _whole, float: _number,
                                        str: _string}[type(known[key])]
            config[key] = check(name, value)


def load_config(args) -> dict:
    """DEFAULT_CONFIG merged with the config file, then with each --set; every stage
    is checked, so a command can read config[section][key] directly."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = _parse_json(fh.read(), args.config)
        if not isinstance(loaded, dict):
            raise CliError(f"{args.config}: a config file must hold a JSON object, "
                           f"got {type(loaded).__name__}")
        _deep_update(config, loaded)
        _check_keys(config, DEFAULT_CONFIG, CHECKS)
    for assignment in args.set or []:
        _apply_set(config, assignment)
        _check_keys(config, DEFAULT_CONFIG, CHECKS)
    if args.seed is not None:
        config["seed"] = args.seed
    if config["seed"] is None:
        raise CliError("a seed is required (config 'seed' or --seed); wall-clock seeding is not supported")
    return config


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def peak_rss_mb() -> float:
    """The process's peak resident set so far, in MB: ru_maxrss, which Linux
    reports in KiB and macOS in bytes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(kib / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0), 2)


def write_manifest(out_dir: Path, command: str, config: dict, outputs, started: float,
                   extra: dict) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": config["seed"],
        "outputs": sorted(str(o) for o in outputs),
        "wall_time_s": round(time.time() - started, 3),
        "peak_rss_mb": peak_rss_mb(),
        "versions": {
            "superpanel": "0.1.0",
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        **extra,
    }
    with open(out_dir / f"{command}_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def _out_dir(args, config) -> Path:
    out = args.out or config["out_dir"]
    if not out:
        raise CliError("an output directory is required (--out or config 'out_dir')")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise CliError(f"output directory {out}: it or a directory above it is a file") from None
    return path


def _load_schema(config):
    if not config["schema"] or not config["data"]:
        raise CliError("config must point at 'schema' and 'data' files")
    return schema_mod.load_schema(config["schema"])


def _load_table(config):
    """The config's schema, its survey read straight into a column table, and
    the dropped-row count."""
    sch = _load_schema(config)
    return (sch, *schema_mod.read_table(config["data"], sch))


def _load_model(config, out: Path, sch, path) -> tuple[cvae.TrainedModel, Path]:
    """Load a model file; a relative path that does not exist is read under the
    output directory when the file is there, so a missing file is named as given.

    The model must have been trained on the config's schema: sampling with
    one schema and tabulating with another would mix up categories.
    """
    model_path = Path(path)
    if not model_path.is_absolute() and not model_path.exists() and (out / path).exists():
        model_path = out / model_path
    model = cvae.load_model(model_path)
    if model.schema.content_hash() != sch.content_hash():
        raise CliError(f"{model_path} was trained on a different schema than {config['schema']}")
    return model, model_path


def _preference_subset(key: str, subset, sch, joint: bool) -> tuple[str, ...]:
    """``subset``, or every preference attribute when it is empty, by the subset rule."""
    return metrics.check_subset(key, subset or [a.name for a in sch.preference_attributes],
                                sch, "preference", joint)


def _eval_subsets(config, sch) -> list[tuple[str, ...]]:
    subsets = config["eval_subsets"]
    if not subsets:
        return [_preference_subset("eval_subsets", None, sch, True)]
    return [_preference_subset(f"eval_subsets[{i}]", s, sch, True) for i, s in enumerate(subsets)]


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args, config, out):
    dgp_cfg = config["dgp"]
    spec = (oracle.load_dgp(dgp_cfg["spec_path"]) if dgp_cfg["spec_path"]
            else oracle.canned_spec(dgp_cfg["name"]))
    table = oracle.generate_dataset(
        spec, dgp_cfg["n_per_year"], dgp_cfg["years"] or list(spec.years),
        seed=derive_seed(config["seed"], "synth"),
    )
    n_records = len(table[spec.schema.attributes[0].name])
    schema_path = out / "schema.json"
    data_path = out / "data.csv"
    spec_path = out / "dgp.json"
    schema_mod.save_schema(spec.schema, schema_path)
    schema_mod.write_records_csv(data_path, table, spec.schema)
    oracle.save_dgp(spec, spec_path)
    print(f"synth: wrote {n_records} records to {data_path}")
    return [schema_path, data_path, spec_path], {"n_records": n_records}


def _split(config, n_rows):
    """(idx_train, idx_val): the seeded train/validation split of the survey rows."""
    return schema_mod.split_indices(n_rows, config["split_fraction"], config["seed"])


def _model_config(config, seed_key: str, overrides: dict | None = None) -> cvae.CvaeConfig:
    m = dict(config["model"])
    if overrides:
        m.update({k: v for k, v in overrides.items() if v is not None})
    return cvae.CvaeConfig(**m, seed=derive_seed(config["seed"], seed_key))


def cmd_train(args, config, out):
    sch, table, dropped = _load_table(config)
    encoded = schema_mod.encode_table(table, sch)
    del table  # training holds only the matrices
    # both fits read rows of the one encoding by index
    idx_train, idx_val = _split(config, encoded.n_rows)
    outputs = []
    extra = {"dropped_rows": dropped}

    if args.grid:
        grid = cvae.GridSpec(*(config["grid"][f.name] for f in fields(cvae.GridSpec)))
        base = _model_config(config, "grid-base")
        cells = grid.cells()
        print(f"grid plan: {len(cells)} cells")
        plan_rows = []
        for i, (nl, nn_, dz, beta) in enumerate(cells):
            hidden = list(cvae.grid_cell_config(base, nl, nn_, dz, beta, base.seed).hidden_layers)
            print(f"  cell {i:3d}: layers={nl} neurons={nn_} hidden={hidden} "
                  f"latent={dz} beta={beta}")
            plan_rows.append((i, nl, nn_, "x".join(map(str, hidden)), dz, beta))
        plan_path = out / "grid_plan.csv"
        write_csv(plan_path, ["cell", "n_layers", "n_neurons", "hidden", "latent_dim", "beta"],
                  plan_rows)
        outputs.append(plan_path)
        if config["grid"]["plan_only"]:
            return outputs, {"plan_only": True}
        best_cfg, leaderboard = cvae.grid_search(
            encoded.take(idx_train), encoded.take(idx_val), grid, _eval_subsets(config, sch),
            seed=config["seed"], base=base, jobs=args.jobs,
        )
        lb_path = out / "leaderboard.csv"
        write_csv(lb_path, ["cell", "n_layers", "n_neurons", "latent_dim", "beta", "mean_srmse",
                            "val_loss", "best_epoch", "diverged"],
                  [(r.cell, r.n_layers, r.n_neurons, r.latent_dim, r.beta, r.mean_srmse,
                    r.val_loss, r.best_epoch, r.diverged) for r in leaderboard])
        outputs.append(lb_path)
        split_cfg = best_cfg
        extra["winner"] = {"hidden_layers": list(best_cfg.hidden_layers),
                           "latent_dim": best_cfg.latent_dim, "beta": best_cfg.beta}
    else:
        split_cfg = _model_config(config, "train-split")

    # the split fit and the refit on every row, its held-out rows among them,
    # train as one stack; the held-out loss guides both checkpoint epochs
    configs = [split_cfg, replace(split_cfg, seed=derive_seed(config["seed"], "train-full"))]
    row_sets = [idx_train, np.arange(encoded.n_rows)]
    per_stack = min(2, cvae.stack_size(sch, split_cfg))
    fits = []
    for i in range(0, 2, per_stack):
        fits += cvae.train_stack(encoded, configs[i : i + per_stack], row_sets[i : i + per_stack],
                                 [idx_val] * per_stack)
    model_split, model_full = fits
    if isinstance(model_split, cvae.TrainingDiverged):
        raise CliError(f"training diverged: {model_split}") from model_split
    split_path = out / "model_split.json"
    cvae.save_model(model_split, split_path)
    outputs.append(split_path)
    if isinstance(model_full, cvae.TrainingDiverged):
        raise CliError(f"full-data training diverged: {model_full}") from model_full
    full_path = out / "model_full.json"
    cvae.save_model(model_full, full_path)
    outputs.append(full_path)

    hist_path = out / "training_history.csv"
    rows = []
    for name, model in (("split", model_split), ("full", model_full)):
        for epoch, (tr, va) in enumerate(model.training_history):
            rows.append((name, epoch, tr, va))
    write_csv(hist_path, ["model", "epoch", "train_loss", "val_loss"], rows)
    outputs.append(hist_path)
    extra["final"] = {
        name: {"best_epoch": model.best_epoch,
               "train_loss": model.training_history[-1][0],
               "val_loss": min(v for _, v in model.training_history),
               "validation_rows_trained_on": name == "full"}
        for name, model in (("split", model_split), ("full", model_full))
    }
    print(f"train: wrote {split_path} and {full_path}")
    return outputs, extra


def cmd_generate(args, config, out):
    sch, table, _ = _load_table(config)
    gen_cfg = config["generate"]
    model, model_path = _load_model(config, out, sch, gen_cfg["model"])
    population = sampling.generate_population(model, table, gen_cfg["draws_per_profile"],
                                              seed=derive_seed(config["seed"], "generate"))
    synth_path = out / "synthetic.csv"
    schema_mod.write_records_csv(synth_path, population.columns, sch)
    n_generated = len(population.columns[sch.attributes[0].name])
    print(f"generate: wrote {n_generated} records to {synth_path}")
    return [synth_path], {
        "model_hash": hashlib.sha256(model_path.read_bytes()).hexdigest(),
        "schema_hash": model.schema.content_hash(),
        "n_records": n_generated,
        "extrapolated_profiles": population.extrapolated_ids,
    }


def _histogram_rows(comparison, report, hat, ref):
    scatter = [
        (comparison, "/".join(report.subset), i, float(ref.frequencies[i]), float(hat.frequencies[i]))
        for i in range(report.n_bins)
    ]
    summary = (comparison, "/".join(report.subset), report.n_bins, report.srmse,
               report.corr, report.r2)
    return summary, scatter


def cmd_evaluate(args, config, out):
    sch, whole, _ = _load_table(config)
    idx_train, idx_val = _split(config, len(whole[sch.attributes[0].name]))
    train, val = schema_mod.take_rows(whole, idx_train), schema_mod.take_rows(whole, idx_val)
    subsets = _eval_subsets(config, sch)

    split_model, _ = _load_model(config, out, sch, out / "model_split.json")
    full_model, _ = _load_model(config, out, sch, out / "model_full.json")

    def histogram(table, subset):
        return metrics.cross_tabulate_columns(schema_mod.category_columns(table, subset, sch),
                                              subset, sch)

    summary_rows = []
    scatter_rows = []

    def compare(comparison, hat_table, ref_table):
        for subset in subsets:
            hat, ref = histogram(hat_table, subset), histogram(ref_table, subset)
            report = metrics.compare(hat, ref)
            summary, scatter = _histogram_rows(comparison, report, hat, ref)
            summary_rows.append(summary)
            scatter_rows.extend(scatter)

    def synthetic_rows(model, source, key, comparison, overlap_name):
        """Draw one synthetic population from source's profiles, compare it with
        source and return its overlap row; the population dies on return."""
        seed = derive_seed(config["seed"], "evaluate", key)
        synth = sampling.generate_population(
            model, source, config["evaluate"]["draws_per_profile"], seed).columns
        if comparison:
            compare(comparison, synth, source)
        return (overlap_name, *metrics.overlap_pair(synth, source, sch))

    # One synthetic population is alive at a time. Drawing them in the order
    # train, val, whole keeps the rows of comparisons.csv, scatter.csv and
    # overlap.csv in their order; each population has its own seed.
    compare("train-vs-val", train, val)
    overlap_rows = [
        ("train-vs-val", *metrics.overlap_pair(train, val, sch)),
        synthetic_rows(split_model, train, "train", None, "model-split-vs-train"),
        synthetic_rows(split_model, val, "val", "model-vs-val", "model-split-vs-val"),
        synthetic_rows(full_model, whole, "whole", "model-vs-whole", "model-full-vs-whole"),
    ]

    comp_path = out / "comparisons.csv"
    write_csv(comp_path, ["comparison", "subset", "n_bins", "srmse", "corr", "r2"], summary_rows)
    scatter_path = out / "scatter.csv"
    write_csv(scatter_path, ["comparison", "subset", "bin", "freq_reference", "freq_model"],
              scatter_rows)
    overlap_path = out / "overlap.csv"
    write_csv(overlap_path, ["pair", "a_in_b_pct", "b_in_a_pct"], overlap_rows)
    for row in summary_rows:
        print(f"evaluate: {row[0]} subset={row[1]} n_bins={row[2]} srmse={row[3]:.4f} "
              f"corr={row[4]:.4f} r2={row[5]:.4f}")
    return [comp_path, scatter_path, overlap_path], {}


def _external_cell(path, key_col, row, column, parse):
    """One cell of an external table row, parsed; a missing or unparsable cell
    is an error naming the file, the column and the row's (key, year)."""
    text = row[column]
    try:
        return parse(text)
    except (TypeError, ValueError):
        problem = ("has no value" if text is None else
                   f"holds {text!r}, not {'an integer' if parse is int else 'a number'}")
        raise CliError(f"{path}: column {column!r} of {key_col} {row[key_col]} in year "
                       f"{row['year']} {problem}") from None


def _load_external_table(path, sch, base, years):
    """Each requested year's external values, one column per external
    attribute aligned with the base rows.

    The table is keyed by individual_id, where base row i is individual
    str(i), or by zone (a column "zone"), resolved through each base row's
    geography value, which is how per-zone accessibility scores attach to
    individuals. A key of the base population with no row in a requested
    year is an error naming it; other years are not checked. A repeated
    (key, year) row, and a table for a schema with no external attribute,
    are errors too.
    """
    # each external attribute's name -> the parser of its cells
    externals = {a.name: float if a.kind == "numerical" else int
                 for a in sch.attributes if a.role == "external"}
    if not externals:
        raise CliError(f"panel.external_table {path}: the schema has no external attribute")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        key_col = "zone" if "zone" in fields and "individual_id" not in fields else "individual_id"
        missing = [c for c in ("year", key_col, *externals) if c not in fields]
        if missing:
            raise CliError(f"{path}: external table has no column "
                           + ", ".join(repr(c) for c in missing))
        rows = {}
        for row in reader:
            year, key = _external_cell(path, key_col, row, "year", int), row[key_col]
            if (year, key) in rows:
                raise CliError(f"{path}: {key_col} {key} in year {year} has more than one row")
            rows[year, key] = row
    if key_col == "zone":
        geo = [a.name for a in sch.attributes if a.role == "geography"]
        if not geo:
            raise CliError("zone-keyed external table needs a geography attribute")
        keys = [str(int(z)) for z in base[geo[0]].tolist()]
    else:
        keys = [str(i) for i in range(len(base[sch.attributes[0].name]))]
    missing = sorted({(int(k), y) for y in years for k in keys if (y, k) not in rows})
    if missing:
        raise CliError(f"{path}: no external values for "
                       + ", ".join(f"{key_col} {k} in year {y}" for k, y in missing))
    return {y: {name: np.array([_external_cell(path, key_col, rows[y, k], name, parse)
                                for k in keys], dtype=base[name].dtype)
                for name, parse in externals.items()}
            for y in years}


def _panel_base(config, sch, table):
    """The panel's base population, the reference year's rows up to
    panel.max_individuals, and its years."""
    panel_cfg = config["panel"]
    time_attr = sch.time_attribute
    if time_attr is None:
        raise CliError("panel construction needs a time attribute")
    # truncated toward zero, as int() truncates a raw numerical time value
    row_years = table[time_attr.name].astype(np.int64)
    base_idx = np.flatnonzero(row_years == panel_cfg["reference_year"])
    if not len(base_idx):
        raise CliError(f"no records in reference year {panel_cfg['reference_year']}")
    years = panel_cfg["years"]
    return (schema_mod.take_rows(table, base_idx[: panel_cfg["max_individuals"]]),
            sorted(set(row_years.tolist())) if years is None else years)


def _build_cube(args, config, out, sch, base, years, subsets):
    """The panel cube over the base population, tabulated over ``subsets``."""
    panel_cfg = config["panel"]
    model, _ = _load_model(config, out, sch, panel_cfg["model"])
    external = None
    if panel_cfg["external_table"]:
        external = _load_external_table(panel_cfg["external_table"], sch, base, years)
    return panel.build_panel(
        model, base, years, external,
        draws_per_cell=panel_cfg["draws_per_cell"],
        seed=derive_seed(config["seed"], "panel"),
        subsets=subsets,
        jobs=args.jobs,
    )


def _trend_requests(config, sch, base):
    """panel.trend_attributes, every preference attribute by default, and each
    panel.trend_conditions entry's label and mask over the base population, checked
    before any cell is sampled: each condition must match at least one individual."""
    panel_cfg = config["panel"]
    trend_attrs = _preference_subset("panel.trend_attributes", panel_cfg["trend_attributes"],
                                     sch, False)
    conditions = []
    for i, cond in enumerate(panel_cfg["trend_conditions"] or [{}]):
        mask = schema_mod.condition_mask(f"panel.trend_conditions[{i}]", cond, sch,
                                         "conditional", base)
        if not mask.any():
            raise CliError(f"panel.trend_conditions[{i}] {cond!r} matches no individual "
                           f"of the base population")
        conditions.append((",".join(f"{k}={v}" for k, v in sorted(cond.items())) or "all", mask))
    return trend_attrs, conditions


def _mover_request(config, sch, base, years):
    """movers.t_start and movers.t_end, defaulting to the first and last panel
    years, and the distance subset, movers.subset or every preference jointly;
    they and the base population's size are checked before any cell is sampled."""
    movers_cfg = config["movers"]
    t_start = years[0] if movers_cfg["t_start"] is None else movers_cfg["t_start"]
    t_end = years[-1] if movers_cfg["t_end"] is None else movers_cfg["t_end"]
    for key, year in (("movers.t_start", t_start), ("movers.t_end", t_end)):
        if year not in years:
            raise CliError(f"{key} {year} is not one of the panel years {years}")
    if t_start == t_end:
        raise CliError(f"movers.t_start and movers.t_end are both {t_start}: a distance "
                       f"needs two years")
    subset = _preference_subset("movers.subset", movers_cfg["subset"], sch, True)
    n = len(base[sch.attributes[0].name])
    if n < 10:
        raise CliError(f"classify-movers needs at least 10 base individuals for nonempty fast "
                       f"and slow deciles; the base population has {n}")
    return t_start, t_end, subset


def cmd_build_panel(args, config, out):
    sch, table, _ = _load_table(config)
    base, years = _panel_base(config, sch, table)
    trend_attrs, conditions = _trend_requests(config, sch, base)
    prefs = [a.name for a in sch.preference_attributes]
    cube = _build_cube(args, config, out, sch, base, years, [(name,) for name in prefs])

    panel_path = out / "panel.csv"
    rows = []
    for i in range(cube.n_individuals):
        for t_idx, year in enumerate(cube.years):
            for name in prefs:
                for cat, f in enumerate(cube.joint((name,))[i, t_idx]):
                    rows.append((str(i), year, name, cat, float(f)))
    write_csv(panel_path, ["individual_id", "year", "attribute", "category", "frequency"], rows)

    trend_rows = []
    for cond_label, mask in conditions:
        for name in trend_attrs:
            series = panel.aggregate_trend(cube, name, mask)
            for t_idx, year in enumerate(series.years):
                if series.kind == "numeric":
                    trend_rows.append((cond_label, name, "numeric", year, "mean",
                                       float(series.mean[t_idx])))
                    trend_rows.append((cond_label, name, "numeric", year, "std",
                                       float(series.std[t_idx])))
                else:
                    for cat in range(series.category_probs.shape[1]):
                        trend_rows.append((cond_label, name, "categorical", year, cat,
                                           float(series.category_probs[t_idx, cat])))
    trends_path = out / "trends.csv"
    write_csv(trends_path, ["condition", "attribute", "kind", "year", "category", "value"],
              trend_rows)
    print(f"build-panel: {cube.n_individuals} individuals x {len(cube.years)} years "
          f"x R={cube.draws_per_cell} -> {panel_path}")
    return [panel_path, trends_path], {
        "individuals": cube.n_individuals,
        "years": list(cube.years),
        "draws_per_cell": cube.draws_per_cell,
    }


def cmd_classify_movers(args, config, out):
    sch, table, _ = _load_table(config)
    base, years = _panel_base(config, sch, table)
    t_start, t_end, subset = _mover_request(config, sch, base, years)
    cube = _build_cube(args, config, out, sch, base, years, [subset])
    report = panel.classify_movers(cube, t_start, t_end, subset)

    movers_path = out / "movers.csv"
    groups = np.full(cube.n_individuals, "mid", dtype=object)
    groups[report.fast], groups[report.slow] = "fast", "slow"
    rows = [(str(i), float(d), g) for i, (d, g) in enumerate(zip(report.distances, groups))]
    write_csv(movers_path, ["individual_id", "distance", "group"], rows)

    marg_rows = []
    fast_marg = panel.group_marginals(cube, report.fast)
    slow_marg = panel.group_marginals(cube, report.slow)
    for name in fast_marg:
        f, s = fast_marg[name], slow_marg[name]
        for cat in range(len(f["frequencies"])):
            marg_rows.append(
                (name, cat, float(f["frequencies"][cat]), float(s["frequencies"][cat]),
                 cat == f["mode"], cat == s["mode"])
            )
    marg_path = out / "group_marginals.csv"
    write_csv(marg_path,
              ["attribute", "category", "freq_fast", "freq_slow", "mode_fast", "mode_slow"],
              marg_rows)
    print(f"classify-movers: {len(report.fast)} fast / {len(report.slow)} slow "
          f"of {cube.n_individuals} -> {movers_path}")
    return [movers_path, marg_path], {
        "t_start": t_start, "t_end": t_end,
        "subset": list(report.subset),
        "n_fast": len(report.fast), "n_slow": len(report.slow),
    }


def _statistics(config, sch) -> list[panel.StatisticSpec]:
    """bootstrap.statistics as specs; an entry needs an attribute and only StatisticSpec
    keys, and is checked against the schema before the survey is read."""
    entries = config["bootstrap"]["statistics"]
    if not entries:
        raise CliError("bootstrap.statistics must be a nonempty list of statistics")
    known = [f.name for f in fields(panel.StatisticSpec)]
    no_rows = schema_mod.record_columns((), sch)  # conditions are only checked here
    stats = []
    for i, s in enumerate(entries):
        key = f"bootstrap.statistics[{i}]"
        if not isinstance(s, dict) or "attribute" not in s:
            raise CliError(f"{key} has no 'attribute' key")
        unknown = [k for k in s if k not in known]
        if unknown:
            raise CliError(f"{key} has an unknown key {unknown[0]!r}")
        condition = s.get("condition") or {}
        schema_mod.condition_mask(f"{key}.condition", condition, sch, None, no_rows)
        per_year = s.get("per_year", True)
        if not isinstance(per_year, bool):
            raise CliError(f"{key} 'per_year' must be true or false, got {json.dumps(per_year)}")
        stats.append(panel.StatisticSpec(
            attribute=s["attribute"], category=s.get("category"),
            condition=tuple(sorted(condition.items())), per_year=per_year))
        panel.check_statistic(key, sch, stats[-1])
    return stats


def cmd_bootstrap(args, config, out):
    sch = _load_schema(config)
    statistics = _statistics(config, sch)
    records, _ = schema_mod.ingest_csv(config["data"], sch)
    bs_cfg = config["bootstrap"]
    model_cfg = _model_config(config, "bootstrap-base", bs_cfg["model"])
    summary = panel.bootstrap(
        records, sch, model_cfg,
        n_replicates=bs_cfg["replicates"],
        statistics=statistics,
        seed=derive_seed(config["seed"], "bootstrap"),
        samples_per_replicate=bs_cfg["samples_per_replicate"],
        jobs=args.jobs,
    )
    bs_path = out / "bootstrap.csv"
    write_csv(bs_path, ["statistic", "source", "year", "mean", "std"],
              [(name, source, "" if year is None else year, m, s)
               for name, source, year, m, s in summary.rows])
    print(f"bootstrap: {summary.survivors}/{summary.n_replicates} replicates -> {bs_path}")
    return [bs_path], {
        "replicates": summary.n_replicates,
        "survivors": summary.survivors,
        "diverged": list(summary.diverged),
    }


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superpanel",
        description="Train a conditional generative model on repeated cross sections "
                    "and resample fixed populations through time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "synth": cmd_synth,
        "train": cmd_train,
        "generate": cmd_generate,
        "evaluate": cmd_evaluate,
        "build-panel": cmd_build_panel,
        "classify-movers": cmd_classify_movers,
        "bootstrap": cmd_bootstrap,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker limit")
        p.add_argument("--out", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")
        if name == "train":
            p.add_argument("--grid", action="store_true", help="run the grid search first")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    """Run one command; it returns (outputs, extra manifest entries) for its manifest."""
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        _count("--jobs", args.jobs)
        config = load_config(args)
        out = _out_dir(args, config)
        outputs, extra = args.fn(args, config, out)
        write_manifest(out, args.command.replace("-", "_"), config, outputs, started, extra)
        return 0
    except (CliError, schema_mod.SchemaError, schema_mod.IngestError,
            metrics.MetricError, panel.PanelError, oracle.DgpError,
            cvae.TrainingDiverged, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
