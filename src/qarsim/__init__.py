"""Block-wise quantized ring AllReduce: functional reference and simulator."""

from .analysis import (
    FLAVORS,
    FlavorResult,
    SweepPoint,
    auto_minishards,
    device_inputs,
    mse,
    size_sweep,
    tradeoff_study,
)
from .collectives import (
    CollectiveConfig,
    SemiLoopOddNError,
    Variant,
    all_reduce,
    baseline_allreduce_bf16,
    naive_lowp_allreduce,
    reduce_scatter,
)
from .layout import (
    CHUNK_COLS,
    CHUNK_ELEMS,
    CHUNK_ROWS,
    Bf16Tensor,
    DivisibilityError,
    MissingShardError,
    PartitionSpec,
    ShapeMismatchError,
    TensorBuf,
)
from .numerics import BF16_MAX, Codec, bf16_bits, decode, encode, round_to_bf16
from .quant import (
    GRID_BYTES,
    QuantizedShard,
    absmax_grid,
    dequantize_shard,
    quantize_shard,
    scales_from_absmax,
)
from .simnet import (
    ComputeParams,
    LinkParams,
    Timeline,
    TimelineEvent,
    idle_time,
    lower_bound,
    simulate,
    simulate_ideal_2to1,
    simulate_naive,
)

__version__ = "0.1.0"
