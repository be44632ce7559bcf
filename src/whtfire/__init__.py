"""Walsh-Hadamard transform layers and a block-grid smoke detection pipeline."""

from .fwht import fwht  # perfbench's tracer test reads it; ROADMAP item 1a removes both

__version__ = "0.1.0"
