"""Optimal zero-delay quantization of Markov sources.

Design tooling for causal encoder/decoder pairs communicating a Markov
source over a noiseless digital link: the encoder quantizes on sight,
the decoder reconstructs immediately, and both track the conditional
law of the source given the symbol history. Policies that map this
belief to a quantizer are optimal within the full causal class, so
design reduces to dynamic programming over beliefs. The package builds
those programs (exactly for finite chains, by adaptive-grid quadrature
for linear-Gaussian sources), extends them to unbounded horizons by
policy piecing and discounted value iteration, and ships independent
oracles plus a CLI for batch experiments.
"""

from . import beliefs, costs, dp, infinite, oracles, quantizers, sources
from .beliefs import *  # noqa: F403
from .costs import *  # noqa: F403
from .dp import *  # noqa: F403
from .infinite import *  # noqa: F403
from .oracles import *  # noqa: F403
from .quantizers import *  # noqa: F403
from .sources import *  # noqa: F403

__version__ = "0.1.0"

# every module's public names, listed once in its own __all__
__all__ = [
    *sources.__all__,
    *beliefs.__all__,
    *quantizers.__all__,
    *costs.__all__,
    *dp.__all__,
    *infinite.__all__,
    *oracles.__all__,
    "__version__",
]
