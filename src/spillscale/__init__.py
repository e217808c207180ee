"""Cluster-randomized designs and average-global-effect estimation under
spatially decaying spillovers."""

from .design import (ClusterPartition, DesignDraw, ExtendedNeighborhoods,
                     IncidenceCounts, draw_treatments, extend_uniform_overlap,
                     greedy_cover, incidence, scaling_clusters, scaling_rule,
                     singleton_partition)
from .estimators import (EstimateReport, EstimatorUndefinedError,
                         ExposureVector, exposure, hajek, ipw_ht, ols,
                         shrinkage, variance_ci)
from .geometry import (GeometryAudit, InterferenceBudget, PremetricSpace,
                       audit_geometry, audit_interference, build_space,
                       build_space_from_dist, uniform_disk)
from .harness import ExperimentConfig, ResultRow, rate_slope, run_experiment
from .oracle import (AssignmentEnumeration, enumerate_assignments,
                     exact_expectation)
from .outcomes import (GuessMatrix, LinearOutcomes, OutcomeOracle, age,
                       make_guess, make_sim_dgp, realize)
from .owopt import (OwWeightTable, SaturationTables, assemble_objective,
                    ipw_weight_table, optimize_weights, ow_estimate,
                    saturation_tables, solve_qp)

__version__ = "0.1.0"
