"""tracelab: exact-arithmetic trace-set experiments for matrix groups over
rational and quadratic fields."""

__version__ = "0.1.0"

from .errors import (BudgetExceededError, FieldMismatchError,
                     PreconditionError, UnsupportedRingError)
from .qfield import (QQ, FieldDesc, QuadElem, RingOfIntegers, bezout,
                     bezout_bounded, format_quadelem, m1_constant,
                     m2_constant, parse_quadelem, ring_of_integers)
from .psl2 import (Mat2, MatClass, ProjMat, an_iteration, an_step,
                   canonical_trace, classify, cusp_normalize, format_mat2,
                   parabolic_shift_trace, parse_mat2)
from .groups import (Ball, GroupSpec, TraceSet, catalog, catalog_names,
                     enumerate_ball, enumerate_largest_ball, gamma2_ball,
                     load_group_spec, trace_set)
from .analytics import (ClusterGrid, CollisionReport, CountingSet, DeltaCSet,
                        DeltaWitness, cluster_counts, delta_c_cluster_witness,
                        delta_c_set, dn_set, f_map, g_map, gap, growth_count,
                        growth_profile, is_delta_c_member, kronecker_gap_demo,
                        omega_collision_scan, rn_set, rn_two_to_one_check,
                        theta_map, totient_sum_check, totients)
from .arithmeticity import (ArithmeticityReport, ClosureReport,
                            ConjugateGrowth, IntegralityResult,
                            conjugate_boundedness, gamma2_traces,
                            integrality_check, subtraction_closure_check,
                            takeuchi_verdict, trace_field)
