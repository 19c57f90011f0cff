"""Leading principal components of symmetric tensors via convex relaxations.

The public surface re-exported here covers canonical symmetric storage,
square matricization, the feasible-set projections, the ADMM solvers for
the nuclear-norm-penalized and SDP relaxations, component extraction with
its certificate (lambda is certified iff the iteration cap did not stop
the solve and bound - lambda <= rank_tol * |bound|), the partial-symmetric
relaxation every dense array reduces to, the brute-force oracles, file
I/O, and the experiment harness.
"""

from .tensors import (SuperSymmetricTensor, canonical_index, class_size,
                      multinomial, enumerate_signatures, symmetrize,
                      eval_multilinear, eval_homogeneous, rank_one, inner,
                      identity_power, random_gaussian, random_uniform)
from .matricize import (matr, matr_inv, vect, vect_inv, is_super_symmetric,
                        is_partial_symmetric, partial_symmetrize,
                        rank_one_ratio, matr_partial, mode_n_unfold)
from .projection import (alpha, project_C, project_moment_C, lift_moment,
                         project_partial_C, shrink_nuclear, project_psd)
from .admm import SolverConfig, SolveReport, neg_eig_mass, solve_nnp, solve_sdp
from .extraction import (PrincipalComponent, NotRankOne, MultilinearComponent,
                         MbiResult, extract, mbi_refine, deflate)
from .extensions import (BiquadraticComponent, random_partial_symmetric,
                         solve_biquadratic, square_last_mode,
                         stack_multilinear, odd_to_even, solve_multilinear,
                         solve_leading_pc)
from .oracle import OracleResult, sphere_grid_max, kkt_project, multistart_local
from .io import (FORMAT_VERSION, TensorFileError, LoadedTensor, read_tensor,
                 write_tensor)
from .instances import (demo_quartic, poly_quartic, DEMO_QUARTIC_X,
                        POLY_QUARTIC_X)
from .cli import CSV_COLUMNS, ExperimentSpec, main, run_experiment

__version__ = "0.1.0"

__all__ = [
    "SuperSymmetricTensor", "canonical_index", "class_size", "multinomial",
    "enumerate_signatures", "symmetrize", "eval_multilinear",
    "eval_homogeneous", "rank_one", "inner", "identity_power",
    "random_gaussian", "random_uniform",
    "matr", "matr_inv", "vect", "vect_inv", "is_super_symmetric",
    "rank_one_ratio", "matr_partial", "mode_n_unfold",
    "alpha", "project_C", "project_moment_C", "lift_moment",
    "project_partial_C", "shrink_nuclear", "project_psd",
    "SolverConfig", "SolveReport", "neg_eig_mass", "solve_nnp", "solve_sdp",
    "PrincipalComponent", "NotRankOne", "MultilinearComponent", "MbiResult",
    "extract", "mbi_refine", "deflate", "solve_leading_pc",
    "BiquadraticComponent", "is_partial_symmetric", "partial_symmetrize",
    "random_partial_symmetric", "solve_biquadratic",
    "square_last_mode", "stack_multilinear", "odd_to_even",
    "solve_multilinear",
    "OracleResult", "sphere_grid_max", "kkt_project", "multistart_local",
    "FORMAT_VERSION", "TensorFileError", "LoadedTensor", "read_tensor",
    "write_tensor",
    "demo_quartic", "poly_quartic", "DEMO_QUARTIC_X", "POLY_QUARTIC_X",
    "CSV_COLUMNS", "ExperimentSpec", "main", "run_experiment",
    "__version__",
]
