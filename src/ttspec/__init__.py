"""Exact invariants of quadratic forms, Milnor-Witt K-theory, Chow
motives of Tate type, and desk-scale tensor-triangular geometry over
small finite fields of odd characteristic."""

__version__ = "0.1.0"
