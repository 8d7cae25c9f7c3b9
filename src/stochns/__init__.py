"""Pseudospectral stochastic Navier-Stokes on the torus with transport noise.

Fourier-Galerkin integration of the incompressible velocity field driven by
multiplicative body forces and Stratonovich-type transport noise (stepped in
Ito form with the explicit corrector), plus the verification side: Gevrey
norms and analyticity-radius estimation, structural identity checks, and
Galerkin truncation-error decay studies with common-path coupling.
"""

__version__ = "0.1.0"

from .brownian import IncrementBlock, PathSpec, increments, refine
from .config import ConfigError, ExperimentConfig
from .diagnostics import (FitRefusedError, FitResult, ShellSpectrum,
                          check_cancellation, check_convective_bounds,
                          ensemble_mean, fit_exp_rate, fit_radius, shell_spectrum)
from .fields import (GevreyOverflowError, GevreyWeight, LatticeMismatchError,
                     SpectralField, galerkin_complement, galerkin_project,
                     gevrey_apply, gevrey_sobolev_norm_sq,
                     leray_project, random_h1_field, single_mode_field,
                     sobolev_norm, sobolev_norm_sq, stokes_power,
                     validate_physical, weighted_inner, zero_field)
from .lattice import WaveLattice, build_lattice, get_lattice
from .noise import (MultiplicativeNoise, NoiseSystem, TransportNoise, eval_g,
                    validate_commutativity, validate_growth_lipschitz,
                    validate_orthogonality, validate_system)
from .nonlinear import convect, dealias, transport
from .sde import (NonFiniteError, SimState, StepperConfig, StopRecord,
                  Trajectory, initial_state, integrate)

__all__ = [name for name in dir() if not name.startswith("_")]
