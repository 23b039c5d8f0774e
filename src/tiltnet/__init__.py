"""tiltnet: CNN training with a generative loss layer and HMC image synthesis.

The model family scores images with a convolutional network f_y(x; w) and
tilts a Gaussian reference density by exp(f_y). Networks can be trained on
the class posterior (standard softmax), on the image likelihood itself via
in-batch importance weights, or generatively first and discriminatively
after; any node of a trained network can be turned into images by
Hamiltonian Monte Carlo on the tilted density.
"""

from .data import Dataset, read_idx, synthetic_dataset
from .errors import (CacheError, CheckpointError, ConfigError, DataError,
                     NumericsError, ShapeError)
from .hmc import (ChainState, HmcConfig, SampleRecord, hmc_iterate, leapfrog,
                  potential, potential_grad, render_image, sample_node)
from .loss import (ImportanceWeights, disc_loss_and_grad, effective_sample_size,
                   gen_loss_and_grad, importance_weights)
from .net import (LayerSpec, Network, NetworkConfig, backward_input,
                  backward_params, build_network, forward_batch, lenet_config,
                  load_checkpoint, required_input_shape, save_checkpoint,
                  truncate_at)
from .train import (MetricsLog, OptimizerState, TrainConfig, evaluate,
                    resume_training, run_training, sgd_step)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "read_idx", "synthetic_dataset",
    "CacheError", "CheckpointError", "ConfigError", "DataError",
    "NumericsError", "ShapeError",
    "ChainState", "HmcConfig", "SampleRecord", "hmc_iterate", "leapfrog",
    "potential", "potential_grad", "render_image", "sample_node",
    "ImportanceWeights", "disc_loss_and_grad", "effective_sample_size",
    "gen_loss_and_grad", "importance_weights",
    "LayerSpec", "Network", "NetworkConfig", "backward_input",
    "backward_params", "build_network", "forward_batch", "lenet_config",
    "load_checkpoint", "required_input_shape", "save_checkpoint", "truncate_at",
    "MetricsLog", "OptimizerState", "TrainConfig", "evaluate",
    "resume_training", "run_training", "sgd_step",
    "__version__",
]
