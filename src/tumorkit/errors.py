"""Exception types shared across the package.

Every failure raised by this package derives from :class:`TumorkitError`,
so callers (and the CLI) can catch one type and report the concrete class
name as a machine-parsable error code.
"""


class TumorkitError(Exception):
    """Base class for all errors raised by this package."""


# --- raster / checkpoint parsing ---

class BadMagic(TumorkitError):
    """File does not start with a supported magic marker."""


class HeaderParse(TumorkitError):
    """Header field is missing, non-numeric, or out of the accepted range."""


class Truncated(TumorkitError):
    """Payload ends before the size announced by the header."""


class BadVersion(TumorkitError):
    """Checkpoint format version is not supported."""


class ChecksumMismatch(TumorkitError):
    """Stored checksum does not match the file contents."""


class Unreadable(TumorkitError):
    """A file could not be opened or read (missing, a directory, no permission)."""


# --- preprocessing ---

class NoForeground(TumorkitError):
    """A binary mask has no foreground pixels where at least one is required."""


# --- tensor kernels ---

class ShapeMismatch(TumorkitError):
    """Operand shapes are inconsistent with each other or with a layer."""


class OddSpatialDim(TumorkitError):
    """2x2 pooling requires even spatial dimensions."""


class InvalidProbability(TumorkitError):
    """A probability value lies outside its valid range or is not finite."""


class BadTargets(TumorkitError):
    """Classification targets are not one-hot rows."""


# --- metrics ---

class LengthMismatch(TumorkitError):
    """Paired sequences have different lengths."""


class Empty(TumorkitError):
    """An operation received an empty input it cannot work with."""


class OneClassOnly(TumorkitError):
    """Ranking metrics need at least one sample of each class."""


class NoPositives(TumorkitError):
    """Average precision needs at least one positive sample."""


class EmptyRow(TumorkitError):
    """A confusion-matrix row has a zero total and cannot be normalized."""


# --- dataset / training ---

class MissingDir(TumorkitError):
    """An expected directory does not exist."""


class EmptyClass(TumorkitError):
    """A class directory contains no images."""


class ClassTooSmall(TumorkitError):
    """A class has too few entries to be split."""


class NonFiniteLoss(TumorkitError):
    """Training loss became NaN or infinite."""


class BadConfig(TumorkitError):
    """Configuration file or value is invalid."""
