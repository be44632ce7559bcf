"""Walsh-Hadamard transform layers and a block-grid smoke detection pipeline."""

from .arch import (
    ArchDescriptor,
    LayerDescriptor,
    Network,
    build_toy_net,
    count_params,
    forward_classify,
    resnet50_descriptor,
    wht_resnet50_descriptor,
)
from .dataio import (
    Manifest,
    SynthConfig,
    checkpoint_load,
    checkpoint_save,
    load_manifest,
    ppm_read,
    ppm_write,
    synth_dataset,
)
from .fwht import fwht, hadamard_matrix, ifwht
from .nn import SgdOptimizer, TrainConfig, softmax_cross_entropy
from .pipeline import (
    ConfusionMatrix,
    Metrics,
    bench,
    compute_metrics,
    detect,
    evaluate,
    finetune,
    train,
    transfer_experiment,
)
from .tiling import (
    GridSpec,
    ScoreGrid,
    downsample_window,
    render_overlay,
    score_grid,
)
from .wht_layer import wht_layer_backward, wht_layer_forward

__version__ = "0.1.0"
