"""Causal mediation analysis for survey data with a binary exposure.

Estimates total, direct, and indirect effects of a binary exposure on a
binary outcome when the mediator is measured after exposure disclosure,
with survey weighting, propensity-score and inverse-probability-weighting
adjustment, E-value sensitivity analysis, DAG-based identification checks,
and an exactly enumerable structural-causal-model oracle.
"""

__version__ = "0.1.0"
