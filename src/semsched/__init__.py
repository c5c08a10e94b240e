"""Semantics-aware transmission scheduling for energy-harvesting status
updates: metrics, average-cost MDP solver, simulator, experiments.
"""

__version__ = "0.1.0"
