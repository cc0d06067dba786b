"""Universal adversarial perturbation crafting via dynamic maximin optimization."""

__version__ = "0.1.0"
