"""Radial and cone Fourier multiplier experiments at desk scale.

Submodules:
  lorentz      -- decreasing rearrangements and Lorentz quasi-norms
  bessel       -- Bessel J for integer and half-integer orders
  radial       -- 1-d transforms, radial (Hankel-type) transforms
  multipliers  -- grid fields, cone multiplier builders, FFT operators
  characterize -- size functionals for edge profiles and radial symbols
  bochner      -- cone means: edge profiles, decay fits, critical scan
  wave         -- wave kernels, spherical-mean splits, shell-operator bounds
  opnorm       -- operator quasi-norm lower bounds and scaling sweeps
  cli          -- subcommand driver writing JSON/CSV reports
"""

__version__ = "0.1.0"

from .bessel import bessel_j, bessel_j_scaled, surface_area
from .lorentz import (LorentzParams, RearrangedFunction, WeightedSampleSet,
                      decreasing_rearrangement, lorentz_quasinorm)
from .radial import RadialProfile, fourier_1d, radial_transform

__all__ = [
    "__version__",
    "bessel_j", "bessel_j_scaled", "surface_area",
    "LorentzParams", "RearrangedFunction", "WeightedSampleSet",
    "decreasing_rearrangement", "lorentz_quasinorm",
    "RadialProfile", "fourier_1d", "radial_transform",
]
