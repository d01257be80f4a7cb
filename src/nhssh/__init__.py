"""Gain/loss SSH lattice toolkit: spectra, dynamics and closed-form oracles."""

import os as _os

# One OpenBLAS thread unless the caller set OPENBLAS_NUM_THREADS.  The
# package's BLAS calls are small (an eig of 2000 x 2000 at most), where a
# second thread saves no time but spins between calls: on 2 cores, a loop of
# fig3 + fig4 at 2N = 500 kept both busy (about 1.6 CPU-s per s) for the
# same wall time that one thread takes on one core, and beside one busy
# process it took a median 30.7 ms (quartiles 21-52) on two threads and
# 20.2 ms (19-24) on one.  OpenBLAS reads the variable when it loads, so it
# is set before numpy is imported.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .lattice import (
    Boundary,
    LatticeParams,
    apply_antilinear,
    build_hamiltonian,
    symmetry_residuals,
)
from .oracle import (
    PacketSpec,
    analytic_eigenstate,
    dirac_norm_closed_form,
    evolved_state_closed_form,
    overlap_formula,
    packet_coefficients,
)
from .propagate import Trajectory, evolve, expm
from .specfun import dilog, lerch_phi
from .spectra import (
    analytic_dispersion,
    esm_spacing,
    full_spectrum,
    revival_period,
    verify_equal_spacing,
)
from .states import (
    PacketPairSpec,
    build_initial_state,
    build_pair_state,
    coalescing_state,
    direct_coalescing_overlap,
    fwhm_interval,
    measure,
    shape_distance,
)
from .analysis import (
    AnalysisError,
    classify_growth,
    interference_report,
    reflection_symmetry,
    translation_window,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "Boundary",
    "LatticeParams",
    "PacketPairSpec",
    "PacketSpec",
    "Trajectory",
    "analytic_dispersion",
    "analytic_eigenstate",
    "apply_antilinear",
    "build_hamiltonian",
    "build_initial_state",
    "build_pair_state",
    "classify_growth",
    "coalescing_state",
    "dilog",
    "dirac_norm_closed_form",
    "direct_coalescing_overlap",
    "esm_spacing",
    "evolve",
    "evolved_state_closed_form",
    "expm",
    "full_spectrum",
    "fwhm_interval",
    "interference_report",
    "lerch_phi",
    "measure",
    "overlap_formula",
    "packet_coefficients",
    "reflection_symmetry",
    "revival_period",
    "shape_distance",
    "symmetry_residuals",
    "translation_window",
    "verify_equal_spacing",
]
