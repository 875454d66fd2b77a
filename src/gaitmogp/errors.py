"""Exception types shared across the package.

Two failure families map onto the CLI exit codes: contract violations
(bad shapes, labels, ranges, malformed files) raise ValidationError and
exit 2; numerical breakdowns (a non-finite kernel matrix or a failed
eigendecomposition, non-finite objectives, emission underflow) raise
NumericError and exit 3.
"""

from __future__ import annotations


class GaitPipelineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GaitPipelineError):
    """Input violates a documented precondition or schema."""


class NumericError(GaitPipelineError):
    """A numerical routine failed beyond its recovery policy."""
