"""Exact-arithmetic lab for Pascal and Catalan-Hankel matrix identities,
formal-Laurent continued fractions, and digital (t,s)-sequences."""

__version__ = "0.1.0"
