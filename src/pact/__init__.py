"""Projected approximate model counting over an incremental SMT oracle."""
