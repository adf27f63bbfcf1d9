"""Individual-level pseudo panels from repeated cross-sectional surveys.

Pipeline: declare a schema, ingest and encode the survey, train the
conditional generative model, then resample a fixed base population
through time and analyse trends, mover groups, and bootstrap uncertainty.
"""

from .schema import (
    AttributeSpec,
    Schema,
    Record,
    EncodedDataset,
    load_schema,
    ingest_csv,
    encode,
)
from .nn import Network, DenseLayer, OptimizerState, forward, backward, softmax, rmsprop_step, init_weights
from .cvae import CvaeConfig, TrainedModel, GridSpec, train, grid_search
from .sampling import PreferenceDraws, sample, generate_population
from .metrics import JointHistogram, ComparisonReport, cross_tabulate, srmse, pearson, r2, marginals
from .panel import PanelCube, MoverReport, BootstrapSummary, StatisticSpec, build_panel, aggregate_trend, classify_movers, group_marginals, bootstrap
from .oracle import DgpSpec, TableSpec, DriftSpec, canned_spec, generate_dataset, exact_panel, baseline_independent

__version__ = "0.1.0"
