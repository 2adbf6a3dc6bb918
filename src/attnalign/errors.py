"""Exception types shared across the package.

Every failure mode named in a module contract maps to one of these, so
callers can catch precisely and tests can assert on type.
"""


class AttnAlignError(Exception):
    """Base class for all package errors."""


class ShapeError(AttnAlignError):
    """Operand dimensions disagree; message names both shapes."""


class DegenerateRowError(AttnAlignError):
    """A softmax row has no unmasked entries."""


class NumericError(AttnAlignError):
    """A computation produced a non-finite value where finiteness is required."""


class CapacityError(AttnAlignError):
    """Input sequence exceeds the configured maximum length."""


class SelectionError(AttnAlignError):
    """An attention query set is empty or out of the text spans."""


class ParameterError(AttnAlignError):
    """A hyperparameter is outside its valid range (R, B, K, ...)."""


class DegenerateRatioError(AttnAlignError):
    """Visual attention ratio denominator is zero."""


class DegenerateAttentionError(AttnAlignError):
    """An attention map has zero total mass where positive mass is required."""


class DegenerateEmbeddingError(AttnAlignError):
    """Cosine similarity requested for a zero vector."""


class BackendError(AttnAlignError):
    """An embedder backend failed; message carries the segment id."""


class GenerationError(AttnAlignError):
    """Synthetic dataset constraints cannot be satisfied."""


class ConfigurationError(AttnAlignError):
    """Mutually inconsistent configuration (e.g. alignment on with R=0)."""


class DivergenceError(AttnAlignError):
    """Training loss became non-finite; message carries the step index."""


class MetricError(AttnAlignError):
    """A metric was called with an empty or invalid region."""


class CompatibilityError(AttnAlignError):
    """Checkpoint header does not match the evaluation configuration."""
