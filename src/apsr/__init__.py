"""Parallel VM placement with decline-ratio guarantees.

A library and simulator for slot-based placement of resource requests on
finite-capacity hosts: closed-form feasibility analysis for parallel sampling
schedulers, an adaptive controller that maximizes parallelism under an SLA and
query budget, seven baseline placement policies, bundled request-mix datasets,
and a deterministic trace-driven simulation engine.
"""

__version__ = "0.1.0"

from .ballsbins import (
    BallsBinsParams,
    SimulationResult,
    expected_happy,
    max_paral,
    sigma,
    simulate_balls_and_bins,
)
from .controller import ApsrController
from .core import (
    AvailabilityCensus,
    ClusterState,
    ConfigError,
    Flavor,
    ModelError,
    Placement,
    Request,
    vector,
)
from .engine import (
    PRESETS,
    ExperimentConfig,
    RunMetrics,
    Simulation,
    make_config,
    run_experiment,
)
from .policies import HostView, PolicyConfig, choose
from .workload import (
    DATASET_NAMES,
    DEFAULT_FLEETS,
    DatasetSpec,
    SizingResult,
    arrivals,
    build_trace,
    fleet_capacities,
    load_dataset,
    size_hosts,
)

__all__ = [
    "__version__",
    "ApsrController",
    "AvailabilityCensus",
    "BallsBinsParams",
    "ClusterState",
    "ConfigError",
    "DATASET_NAMES",
    "DEFAULT_FLEETS",
    "DatasetSpec",
    "ExperimentConfig",
    "Flavor",
    "HostView",
    "ModelError",
    "PRESETS",
    "Placement",
    "PolicyConfig",
    "Request",
    "RunMetrics",
    "SimulationResult",
    "Simulation",
    "SizingResult",
    "arrivals",
    "build_trace",
    "choose",
    "expected_happy",
    "fleet_capacities",
    "load_dataset",
    "make_config",
    "max_paral",
    "run_experiment",
    "sigma",
    "simulate_balls_and_bins",
    "size_hosts",
    "vector",
]
