"""Capacity duality toolkit.

Exact tensor-power projection norms on one side, convex-optimization
capacities on the other, and the worked families (row-column scaling,
spectrum estimation, compact-group multiplicities, Laurent constant terms)
that tie the two together.
"""

__version__ = "0.1.0"

from .capacity import (CapacityResult, MembershipCertificate, capacity_kl_form,
                       moment_map, moment_polytope_contains, theta_capacity)
from .core import (ConvergenceReport, LogValue, Partition, WeightedVector,
                   WeightVector, as_fraction, fraction_log, rational_vector)
from .exactlp import LPResult, simplex_max
from .haarmc import (McEstimate, UnitaryOrbitVector, mc_invariant_norm,
                     mc_isotypic_norm, sample_haar_unitary)
from .projection import (CriticalValues, LaurentPoly, ProjectionTable,
                         critical_values, difference_lattice, duality_report,
                         laurent_cst_powers, prefactor_sequence,
                         projection_norm_table)
from .scaling import (PermExact, ScalingState, SinkhornResult,
                      perm_dual_report, perm_rc_exact, rc_capacity,
                      rc_capacity_result, rc_weighted_vector, sinkhorn_scale)
from .spectrum import (DuffieldFamily, HermitianState, SchurWeylFamily,
                       SchurWeylRow, duffield_rate, hook_length_count,
                       keyl_rate, kw_minimization_check, kw_rate, ldp_report,
                       partitions_bounded, rank1_mult_tables,
                       rank1_multiplicities, schur_weyl_measure)

__all__ = [
    "__version__",
    "CapacityResult", "MembershipCertificate", "capacity_kl_form",
    "moment_map", "moment_polytope_contains", "theta_capacity",
    "ConvergenceReport", "LogValue", "Partition", "WeightedVector",
    "WeightVector", "as_fraction", "fraction_log", "rational_vector",
    "LPResult", "simplex_max",
    "McEstimate", "UnitaryOrbitVector", "mc_invariant_norm",
    "mc_isotypic_norm", "sample_haar_unitary",
    "CriticalValues", "LaurentPoly", "ProjectionTable", "critical_values",
    "difference_lattice", "duality_report", "laurent_cst_powers",
    "prefactor_sequence", "projection_norm_table",
    "PermExact", "ScalingState", "SinkhornResult", "perm_dual_report",
    "perm_rc_exact", "rc_capacity", "rc_capacity_result",
    "rc_weighted_vector", "sinkhorn_scale",
    "DuffieldFamily", "HermitianState", "SchurWeylFamily", "SchurWeylRow",
    "duffield_rate", "hook_length_count", "keyl_rate",
    "kw_minimization_check", "kw_rate", "ldp_report", "partitions_bounded",
    "rank1_mult_tables", "rank1_multiplicities", "schur_weyl_measure",
]
