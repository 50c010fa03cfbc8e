"""andlab: a numerical laboratory for N interacting fermions on Z^d in a
deterministic quasi-periodic potential with random lacunary amplitudes.

Submodules
----------
configs    configuration graph of N-fermion positions (balls, boundaries,
           clusters, weak separation, shift-equivalence classes)
torus      torus shift dynamics, dyadic cells, orbit-separation checks
potential  lacunary dyadic hull, generation weights, scale arithmetic
operators  finite-volume Hamiltonians, spectra, truncation bounds
msa        multi-scale diagnostics: Green functions, resonance and
           singularity classification, localization and decay reports
wegner     Monte-Carlo estimates of the probabilistic spacing and
           concentration bounds
expconfig  experiment configuration objects
cli        batch command-line front end
"""

from . import configs, expconfig, msa, operators, potential, torus, wegner
from .configs import FermiConfig, ball, box_configs, graph_distance, neighbors
from .errors import (AndlabError, BudgetExceededError, NearResonantError,
                     SeparationError)
from .expconfig import ExperimentConfig
from .operators import FiniteHamiltonian, Interaction, assemble, diagonalize
from .potential import AmplitudeField, HaarHull
from .torus import ShiftSystem, preset_frequencies

__version__ = "0.1.0"

__all__ = [
    "AndlabError", "BudgetExceededError", "NearResonantError", "SeparationError",
    "FermiConfig", "ball", "box_configs", "graph_distance", "neighbors",
    "ShiftSystem", "preset_frequencies", "AmplitudeField", "HaarHull",
    "FiniteHamiltonian", "Interaction", "assemble", "diagonalize",
    "ExperimentConfig",
    "configs", "torus", "potential", "operators", "msa", "wegner",
    "expconfig", "cli",
]
