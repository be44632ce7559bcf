"""Exception types shared across the library.

Every error is a ``WhtFireError``.  The CLI exits 3 on one or on an
``OSError``, 2 when argparse refuses an argument, and 4 on any other
exception, a bug or a ``MemoryError``, after printing its traceback
(``cli.main`` lets it propagate; ``cli.main_entry`` maps it).  A narrower
error subclasses the broader one it refines, so one ``except`` catches
both: ``OddDimensionsError``, raised by the one mean pooling that frames
and ``avgpool2`` layers share, is a ``ShapeMismatchError``.

Only errors the package raises live here; one that only a test oracle
raises lives with that oracle.
"""


class WhtFireError(Exception):
    """Base class for every error raised by this package."""


# -- transform ----------------------------------------------------------

class OrderTooLargeError(WhtFireError, ValueError):
    """Hadamard order exponent exceeds the supported maximum."""


class LengthNotPowerOfTwoError(WhtFireError, ValueError):
    """Transform input length is not a power of two."""


class TransformInputError(WhtFireError, ValueError):
    """Transform input is 0-d or not real-valued (complex, object, text)."""


# -- tensors and layers -------------------------------------------------

class ShapeMismatchError(WhtFireError, ValueError):
    """Operand shapes are inconsistent with the layer contract."""


class OddDimensionsError(ShapeMismatchError):
    """Mean pooling needs extents divisible by its factors (2x2: even)."""


class BadLabelError(WhtFireError, ValueError):
    """Class label outside the valid range."""


class CacheMissingError(WhtFireError, ValueError):
    """Backward pass invoked without the forward cache."""


class ChannelCountNotPowerOfTwoError(WhtFireError, ValueError):
    """Spectral layer requires a power-of-two channel count."""


# -- architecture -------------------------------------------------------

class InvalidDescriptorError(WhtFireError, ValueError):
    """Architecture descriptor violates its structural rules."""


class BadWidthError(WhtFireError, ValueError):
    """Requested network width is unsupported."""


# -- tiling --------------------------------------------------------------

class BlockLargerThanImageError(WhtFireError, ValueError):
    """Block does not fit into the image even once."""


class BadThresholdError(WhtFireError, ValueError):
    """Decision threshold outside [0, 1], or NaN."""


# -- data formats --------------------------------------------------------

class BadMagicError(WhtFireError, ValueError):
    """File does not start with the expected magic bytes."""


class TruncatedFileError(WhtFireError, ValueError):
    """File ended before the declared payload was complete."""


class CorruptFileError(WhtFireError, ValueError):
    """File bytes cannot be decoded as the declared format."""


class UnsupportedMaxvalError(WhtFireError, ValueError):
    """Pixmap maxval other than 255."""


class ManifestError(WhtFireError, ValueError):
    """Malformed dataset manifest (bad label, duplicate path, bad row)."""


class VersionMismatchError(WhtFireError, ValueError):
    """Checkpoint version not understood by this build."""


class ArchMismatchError(WhtFireError, ValueError):
    """A checkpoint header field is missing or of the wrong JSON type, the
    tensor names disagree with the network, or the network has no tensor
    named to freeze."""


class TensorShapeMismatchError(WhtFireError, ValueError):
    """Stored tensor shape disagrees with the architecture."""


class BadMetadataError(WhtFireError, ValueError):
    """Checkpoint metadata that JSON cannot hold: a numpy scalar, a NaN, a
    key that is not a string, a value that refers to itself."""


# -- pipeline -------------------------------------------------------------

class SingleClassDatasetError(WhtFireError, ValueError):
    """Training requires both classes to be present."""


class EmptyDatasetError(WhtFireError, ValueError):
    """Operation needs a non-empty dataset."""


class SizeTooLargeError(WhtFireError, ValueError):
    """Benchmark size beyond the allowed ceiling."""


class TrainingDivergedError(WhtFireError):
    """Training reached a non-finite loss or non-finite validation
    probabilities; no checkpoint was written."""


class NonFiniteScoreError(WhtFireError):
    """The network gave a non-finite score, which no threshold can classify."""
