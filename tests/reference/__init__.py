"""Reference oracles the parity suites compare the engine against.

Textbook, allocating, one-element-at-a-time formulas — the code ``src/``
used to ship beside its kernels as A/B twins.  Nothing here is imported
by ``src/`` or by a benchmark; each oracle holds its own state and
exists only so a bit-for-bit (or stated-tolerance) parity assertion has
an independent right-hand side.
"""
