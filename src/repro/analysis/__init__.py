"""Correctness tooling: static invariant linting + runtime lock-order watch.

The engine's determinism and concurrency contracts — bit-for-bit
replay, serial/thread parity, fork safety — are machine-checked here
instead of documented and hoped for:

* :mod:`repro.analysis.lint` (``python -m repro.analysis.lint``,
  ``tools/reprolint``) — AST rules over the tree; see ``ANALYSIS.md``
  for the catalogue and suppression syntax.
* :mod:`repro.analysis.registry` — :func:`register_lock`, the single
  source of truth for engine locks (fork re-init derives from it) and
  the :func:`hotpath` marker for allocation-free fused kernels.
* :mod:`repro.analysis.lockwatch` — opt-in runtime lock-order/deadlock
  detector over registered locks (``REPRO_LOCKWATCH=1`` arms it on the
  tier-1 concurrency modules).
"""

from repro.analysis.lockwatch import LockOrderError, watching
from repro.analysis.registry import hotpath, register_lock

__all__ = ["LockOrderError", "hotpath", "register_lock", "watching"]
