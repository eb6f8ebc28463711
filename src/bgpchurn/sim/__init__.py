"""Deterministic BGP propagation simulator."""
