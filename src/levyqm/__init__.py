"""Numerical laboratory for Levy-process relativistic quantum dynamics.

Characteristic exponents and their jump kernels, transition densities by
Fourier inversion, spectral wave-packet evolution, the cubic-cutoff mass
spectrum with propagator poles and residues, a regularized loop-integral
convergence study, and a validated subordinated path sampler.
"""

__version__ = "0.1.0"

from .densities import (
    DensityTable,
    GridError,
    GridSpec,
    convolve,
    default_grid,
    levy_density_1d,
    levy_density_3d,
    moments,
    relativistic_triplet,
    transition_density,
)
from .evolution import (
    Observables,
    WaveFunction,
    evolve_jump_quadrature,
    evolve_modified,
    evolve_spectral,
    gaussian_packet,
    observables,
)
from .exponents import (
    ExponentParams,
    LevyTriplet,
    LogCharacteristic,
    QuadratureSpec,
    TailDivergenceError,
    bessel_k,
    eta_from_triplet,
    eta_modified_branch,
    eta_relativistic,
)
from .propagators import (
    LoopResult,
    NonpositiveDenominatorError,
    find_poles,
    kg_propagator,
    loop_integral,
)
from .sampler import (
    KSReport,
    PathSample,
    SeededGenerator,
    ks_validate,
    sample_increment,
    sample_inverse_gaussian,
    sample_path,
)
from .spectrum import (
    CutoffPolynomial,
    MassTriple,
    SpectrumSolution,
    f_eval,
    fit_masses,
    g_eval,
    lambdas_from_roots,
    masses_from_lambdas,
)
