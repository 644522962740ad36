"""Norm-ratio sparsity measurement and sparsity-informed adaptive pruning."""

__version__ = "0.1.0"
