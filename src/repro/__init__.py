"""ACME: Adaptive Customization of Large Models via Distributed Systems.

A full reproduction of the ICDCS 2025 paper. The package is organized as:

* :mod:`repro.nn` — a from-scratch reverse-mode autograd engine, neural
  network layers (Linear, LayerNorm, multi-head self-attention, Conv2d, an
  LSTM cell) and one fused Adam optimizer.
* :mod:`repro.data` — synthetic dataset substrate (CIFAR-100-like and
  Stanford-Cars-like generators) with non-IID partitioners.
* :mod:`repro.models` — the width/depth-scalable Vision Transformer, fixed
  header designs, the NAS block vocabulary and DAG headers, and lightweight
  ViT baselines.
* :mod:`repro.hw` — device hardware profiles and the paper's parametric
  energy model (Eqs. 1-2).
* :mod:`repro.core` — the ACME algorithms: Taylor importance (Eqs. 6-8),
  backbone segmentation and distillation (Eq. 9), Pareto Front Grid
  customization (Eqs. 10-13, Alg. 1), the ENAS-style header search
  (Eqs. 14-15), device-side importance sets (Eqs. 16-18) and
  Wasserstein-weighted personalized aggregation (Eqs. 19-21, Alg. 2).
* :mod:`repro.distributed` — the bidirectional single-loop three-tier system
  (cloud / edge / device) with byte-accounted message passing.
* :mod:`repro.train` — training and evaluation loops.
"""

from repro._version import __version__

__all__ = ["__version__"]
