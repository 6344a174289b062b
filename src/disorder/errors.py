"""Exception types shared across the package."""


class DisorderError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(DisorderError):
    """A model configuration document is malformed or carries unknown keys."""


class SupportError(DisorderError):
    """An observation has zero probability under the common kernel support."""


class BudgetError(DisorderError):
    """An enumeration or recursion exceeded its configured resource budget."""


class RuleError(DisorderError):
    """A stopping rule failed during Monte Carlo evaluation.

    Carries the rule name and the seed of the trajectory it failed on; the
    rule's own exception is chained as the cause.
    """

    def __init__(self, rule: str, seed: int, cause: BaseException):
        super().__init__(f"rule {rule!r} failed on trajectory seed {seed}: {cause}")
        self.rule = rule
        self.seed = seed
