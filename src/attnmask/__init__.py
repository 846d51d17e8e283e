"""Attention-augmented two-stage detector components on a small autodiff core."""

from .tensor import Tensor, grad_check

__all__ = ["Tensor", "grad_check"]

__version__ = "0.1.0"
