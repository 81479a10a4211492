"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class BudgetError(RuntimeError):
    """A computation would exceed its configured numerical budget."""


class ConfigError(ValueError):
    """A run configuration is missing, malformed or inconsistent."""
