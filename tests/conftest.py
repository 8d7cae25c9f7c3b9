import numpy as np
import pytest

from stochns import (MultiplicativeNoise, NoiseSystem, TransportNoise,
                     build_lattice, validate_system)
from stochns.fields import random_field
from stochns.nonlinear import dealias


@pytest.fixture(scope="session")
def lat16():
    return build_lattice(2, 16)


@pytest.fixture(scope="session")
def lat32():
    return build_lattice(2, 32)


@pytest.fixture(scope="session")
def lat64():
    return build_lattice(2, 64)


@pytest.fixture(scope="session")
def lat3d():
    return build_lattice(3, 16)


def full_grid_k(dim, n):
    """Integer wavevectors of the full (n,) * dim grid in numpy FFT order,
    Nyquist labelled +n/2: the reference the stored half is cut from."""
    freq = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(np.int64)
    freq[freq == -(n // 2)] = n // 2
    return np.stack(np.meshgrid(*[freq] * dim, indexing="ij"))


def full_spectrum(f):
    """Full-grid spectrum of a field, rebuilt with numpy's complex FFT from
    the real grid values of its stored half."""
    axes = tuple(range(-f.lattice.dim, 0))
    return np.fft.fftn(np.fft.irfftn(f.coeffs, s=f.lattice.grid_shape, axes=axes), axes=axes)


def smooth_field(lattice, seed=0, delta=0.4):
    """Dealiased solenoidal field with an analytic spectrum."""
    rng = np.random.default_rng(seed)
    return dealias(random_field(lattice, rng, envelope=lambda k: np.exp(-delta * k)))


def rough_field(lattice, seed=0, beta=1.5):
    """Dealiased solenoidal field with a power-law spectrum."""
    rng = np.random.default_rng(seed)
    return dealias(random_field(lattice, rng, envelope=lambda k: k ** -beta))


def transport_system(vectors, g_coeffs=()):
    """Validated NoiseSystem with constant transport vectors and optional linear g."""
    n_g = len(g_coeffs)
    g = (MultiplicativeNoise.linear(g_coeffs, list(range(n_g)))
         if n_g else MultiplicativeNoise.zero())
    xi = (TransportNoise.constant(vectors, list(range(n_g, n_g + len(vectors))))
          if vectors else TransportNoise.empty())
    system = NoiseSystem(g=g, xi=xi, n_wiener=n_g + len(vectors))
    return validate_system(system)
