"""Singularity machinery for scalar transmission problems with sign-changing
coefficients at a 3D conical tip: symbol-pencil spectra, energy-line
(black-hole) singularities with Jordan chains, the symplectic flux form with
its outgoing/incoming Mandelstam bases, hypergeometric critical-contrast
intervals, radial weight exponents, and limiting-absorption trajectories."""

__version__ = "0.1.0"

from .cap import (CapGeometry, DiscreteCap, MaterialSpec, Mesh1D,
                  PencilMatrices, angular_gram, assemble_dissipative_pencil,
                  assemble_pencil, build_cap, pencil_for, sigma_at)
from .spectrum import (EigenPair, LineEigenvalue, SpectralWeights,
                       SpectrumResult, conjugate_pairing_check, jordan_chains,
                       jordan_indicator, lambda_from_Lambda, line_eigenvalues,
                       solve_pencil, spectral_weights, weight_star)
from .flux import (FluxMatrix, Hypersingularity, LogPolynomial,
                   MandelstamBasis, SingularSpace, WaveClass, blowup_rate,
                   build_singularity, classify_wave, flux_matrix, flux_pairing,
                   flux_quadrature_oracle, mandelstam_basis, power_integral,
                   radial_gradient_sq_integral, singular_sequence_norm,
                   singular_space, trapped_energy)
from .interval import (CriticalInterval, aleph, dispersion_relation,
                       has_blackhole, hyp2f1, scan_interval)
from .absorption import (AbsorptionSelection, ConsistencyVerdict,
                         TrajectoryPoint, consistency_report,
                         finite_difference_slope, perturbation_slope,
                         select_outgoing_by_absorption, trajectory)
from .io import ResultBundle, RunConfig, parse_config, serialize_config, write_results


def __getattr__(name):
    # The CLI loads on first use, so ``python -m conetip.cli`` does not find
    # it already imported by the package.
    if name in ("cli", "run_command"):
        import importlib
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else cli.run_command
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
