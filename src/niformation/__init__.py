"""Deterministic multi-agent formation-control simulator and NI classifier of its plant models."""

__version__ = "0.1.0"
