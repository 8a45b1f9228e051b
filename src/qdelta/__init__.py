"""Scattering and spectral-singularity analysis for a quaternionic point
interaction whose i-channel strength is complex."""

from .oracle import (MatchingAmplitudes, MatchMode, NumericalError, RootSet,
                     matching_solver, minimize_dsq, potential_from_ss_pairs,
                     quartic_roots, real_double_root)
from .qalg import (Quaternion, embed_complex, qconj, qmul, symplectic_join,
                   symplectic_split)
from .scatter import (DeltaPotential, ScatteringResult, amplitude_arrays,
                      amplitudes, beta_of_energy, denominator, dr_di, sweep)
from .singular import (KAPPA, Branch, QuarticAnalysis, QuarticCoeffs, Reason,
                       RegionClass, RegionScan, RootNature, SSBranchSolution,
                       analyze_quartic, classify_region, discriminant_expanded,
                       discriminant_factored, pq_classifiers, pq_simplified,
                       quartic_coeffs, region_of, root_nature, scan_region,
                       ss_branches, ss_closed_form)

__version__ = "0.1.0"

__all__ = [
    "Branch", "DeltaPotential", "KAPPA", "MatchMode", "MatchingAmplitudes",
    "NumericalError", "Quaternion", "QuarticAnalysis", "QuarticCoeffs",
    "Reason", "RegionClass", "RegionScan", "RootNature", "RootSet",
    "SSBranchSolution", "ScatteringResult", "amplitude_arrays", "amplitudes",
    "analyze_quartic", "beta_of_energy", "classify_region", "denominator",
    "discriminant_expanded", "discriminant_factored", "dr_di",
    "embed_complex", "matching_solver", "minimize_dsq",
    "potential_from_ss_pairs", "pq_classifiers", "pq_simplified", "qconj",
    "qmul", "quartic_coeffs", "quartic_roots", "real_double_root",
    "region_of", "root_nature", "scan_region", "ss_branches",
    "ss_closed_form", "sweep", "symplectic_join", "symplectic_split",
]
