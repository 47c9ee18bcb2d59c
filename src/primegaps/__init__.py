"""Sieve toolkit for balanced almost prime powers, truncated divisor-sum
weights, tuple constants and progression discrepancy statistics; import
each name from its submodule (`from primegaps.sieve import factorize`)."""

__version__ = "0.1.0"
