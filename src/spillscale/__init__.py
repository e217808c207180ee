"""Cluster-randomized designs and average-global-effect estimation under
spatially decaying spillovers."""

from .design import (ClusterPartition, DesignDraw, ExtendedNeighborhoods,
                     IncidenceCounts, draw_treatments, extend_uniform_overlap,
                     greedy_cover, incidence, scaling_clusters, scaling_rule,
                     singleton_partition)
from .geometry import (GeometryAudit, InterferenceBudget, PremetricSpace,
                       audit_geometry, build_space, build_space_from_dist,
                       uniform_disk)
from .harness import ExperimentConfig, ResultRow, run_experiment
from .oracle import (AssignmentEnumeration, enumerate_assignments,
                     exact_expectation)
from .outcomes import (GuessMatrix, LinearOutcomes, make_guess, make_sim_dgp,
                       realize)
from .owopt import (OwWeightTable, SaturationTables, assemble_objective,
                    ipw_weight_table, optimize_weights, saturation_tables,
                    solve_qp)

__version__ = "0.1.0"
