"""Window-based attention with spatial shuffle, on a small NumPy autodiff
engine, plus the analysis tools that verify its structure: parameter/FLOP
accounting and receptive-field (reachability) probing."""

__version__ = "0.1.0"

from .analysis import (CONVENTION, CostReport, CostRow, conv_cost, count_flops,
                       global_msa_flops, wmsa_attention_flops)
from .checkpoint import (load_checkpoint, load_tensor, read_container,
                         save_checkpoint, save_tensor, write_container)
from .conv import BnParams, apply_bn, batchnorm2d, conv2d, gelu_conv2d
from .errors import (CheckpointError, DegenerateBatchError, InvalidCallError,
                     InvalidConfigError, InvalidShapeError, PartitionError,
                     ShuffleFormerError, TrainingDivergedError)
from .layers import MlpParams, NwcParams, WmsaParams, mlp_forward, nwc_forward, wmsa_forward
from .model import (BlockConfig, BlockParams, ModelConfig, ModelParams,
                    block_forward, build_variant,
                    init_block_params, init_model_params, model_forward,
                    named_buffers, named_parameters, parameter_list,
                    token_embed, token_merge)
from .optim import AdamW, Optimizer
from .reachability import (BlockSpec, ReachabilitySet, reachability_probe,
                           reachability_report, render_mask, symbolic_reachability)
from .rng import Rng
from .tensor import (Tensor, add, backward, cross_entropy_logits, gather_hw,
                     gelu, matmul, mean_all, mean_pool_hw, mul, reshape_permute,
                     scale, softmax_lastdim, sum_all, zero_grads)
from .train import ToyTrainConfig, ToyTrainResult, synthetic_dataset, train_toy, window_means
from .windowing import (SHUFFLE_MODES, SpatialPermutation, aligned_window_reverse,
                        invert_permutation, make_shuffle_permutation,
                        shuffle_permutations, shuffled_window_partition, window_grid)
