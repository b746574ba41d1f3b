"""FedOMD — the paper's contribution.

Four pieces, mirroring §4:

* :mod:`repro.core.moments` — layer-wise hidden-feature means and j-th
  central moments (Algorithm 1 lines 3–7 and 12–13), in both
  differentiable (client-side, for the loss) and plain-NumPy
  (statistics-upload) forms.
* :mod:`repro.core.cmd` — the central moment discrepancy distance of
  Eq. 11, truncated at order K=5 as Algorithm 1 does.
* :mod:`repro.core.exchange` — the 2-round mean/central-moment exchange
  through the metered communicator (contribution ii).
* :mod:`repro.core.fedomd` — the FedOMD trainer: OrthoGCN local models,
  Eq. 12's three-part loss, FedAvg aggregation.
"""

from repro.core.moments import (
    layer_means_np,
    central_moments,
    central_moments_np,
    moments_tensor,
)
from repro.core.cmd import cmd_distance, cmd_distance_arrays
from repro.core.exchange import MomentExchange, GlobalMoments
from repro.core.fedomd import FedOMDTrainer, FedOMDConfig

__all__ = [
    "layer_means_np",
    "central_moments",
    "central_moments_np",
    "moments_tensor",
    "cmd_distance",
    "cmd_distance_arrays",
    "MomentExchange",
    "GlobalMoments",
    "FedOMDTrainer",
    "FedOMDConfig",
]
