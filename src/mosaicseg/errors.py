"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: configuration problems exit 2,
runtime/numeric/file problems exit 1.
"""


class MosaicError(Exception):
    pass


class ShapeError(MosaicError):
    """Tensor or graph shapes are inconsistent, or a weight store does not fit its graph."""


class ConfigError(MosaicError):
    """A parameter, config file key, or graph construction request is invalid."""


class NumericError(MosaicError):
    """Non-finite values encountered where finite data is required."""


class FormatError(MosaicError):
    """A binary or text file does not follow its declared format."""
