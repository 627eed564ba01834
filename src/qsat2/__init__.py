"""Random 2-QSAT with product constraints: generation, structure, counting.

The pipeline: sample a random graph (Erdos-Renyi or bond-percolated
lattice), attach a rank-1 projector built from two random single-qubit
bras to every edge, then ask structural questions (is the instance
frustrated, which qubits are frozen, how small are the residual
components) and exact ones (the ground-space dimension, an integer).
The names below are the library surface; everything else stays in its
module.
"""

from .counting import ComponentCapError, component_value, instance_value
from .exactq import bra
from .graphs import (
    ComponentReport,
    Graph,
    components,
    enumerate_cycles,
    enumerate_dominoes,
    enumerate_figure_eights,
    sample_er_graph,
    sample_lattice,
)
from .instances import (
    FactorDistribution,
    Instance,
    InstanceParseError,
    ResampleBudgetError,
    format_instance,
    load_instance,
    parse_instance,
    sample_frustration_free_instance,
    sample_instance,
    satisfiable,
    save_instance,
)
from .seeding import derive_trial_seed
from .stats import functionals, thresholds, xi
from .structure import (
    Decomposition,
    decouple,
    domino_frustrated,
    figure_eight_frustrated,
    frozen_subgraph,
)
from .sweep import SweepConfig, generate_instance, parse_config, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ComponentCapError",
    "ComponentReport",
    "Decomposition",
    "FactorDistribution",
    "Graph",
    "Instance",
    "InstanceParseError",
    "ResampleBudgetError",
    "SweepConfig",
    "bra",
    "component_value",
    "components",
    "decouple",
    "derive_trial_seed",
    "domino_frustrated",
    "enumerate_cycles",
    "enumerate_dominoes",
    "enumerate_figure_eights",
    "figure_eight_frustrated",
    "format_instance",
    "frozen_subgraph",
    "functionals",
    "generate_instance",
    "instance_value",
    "load_instance",
    "parse_config",
    "parse_instance",
    "run_sweep",
    "sample_er_graph",
    "sample_frustration_free_instance",
    "sample_instance",
    "sample_lattice",
    "satisfiable",
    "save_instance",
    "thresholds",
    "xi",
]
