"""FedOMD — the paper's contribution.

Four pieces, mirroring §4:

* :mod:`repro.core.moments` — layer-wise hidden-feature means and j-th
  central moments (Algorithm 1 lines 3–7 and 12–13) for the statistics
  uploads.
* :mod:`repro.core.cmd` — the central moment discrepancy distance of
  Eq. 11, truncated at order K=5 as Algorithm 1 does: the fused
  differentiable op of the loss, and its NumPy forms.
* :mod:`repro.core.exchange` — the 2-round mean/central-moment exchange
  through the metered communicator (contribution ii).
* :mod:`repro.core.fedomd` — the FedOMD trainer: OrthoGCN local models,
  Eq. 12's three-part loss, FedAvg aggregation.
"""

from repro.core.moments import layer_means_np, central_moments_np
from repro.core.cmd import cmd_distance, cmd_distance_arrays, layerwise_cmd
from repro.core.exchange import MomentExchange, GlobalMoments
from repro.core.fedomd import FedOMDTrainer, FedOMDConfig

__all__ = [
    "layer_means_np",
    "central_moments_np",
    "cmd_distance",
    "cmd_distance_arrays",
    "layerwise_cmd",
    "MomentExchange",
    "GlobalMoments",
    "FedOMDTrainer",
    "FedOMDConfig",
]
