"""Exception types with stable CLI exit codes."""


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


class TrainingDiverged(RuntimeError):
    """ERM training hit a non-finite loss (exit code 3)."""


class CraftingFailed(RuntimeError):
    """Numerical failure during perturbation crafting (exit code 4)."""


class ArtifactMissing(FileNotFoundError):
    """A file the program reads is missing or unreadable (exit code 5; a config or IDX file maps it to ConfigError)."""
