"""The solver outcome types shared across the package: the result every
solver stage returns and the error it raises, both carrying its history."""

from dataclasses import dataclass


class ConfigError(ValueError):
    """Invalid or inconsistent configuration values."""


@dataclass(frozen=True)
class SolverResult:
    """One solver stage's outcome: the estimate a (FBCoeffs) and p
    (ViewDistribution); history, a dict from each of the solver's CSV
    columns to its per-iteration values; n_iter; and stop_reason,
    "tolerance", "max_iter" or, for EM, "decrease"."""

    a: object
    p: object
    history: dict
    n_iter: int
    stop_reason: str

    @property
    def converged(self):
        return self.stop_reason == "tolerance"


class SolverError(RuntimeError):
    """Iterative solver failed; carries the partial iterate history.

    Attributes
    ----------
    history : dict or None
        The solver's history columns as far as it got, in the shape a
        SolverResult carries them.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history
