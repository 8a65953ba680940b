"""Simulated high-speed visual oddball speller.

A 42-symbol matrix speller driven by synthetic single-trial ERP
classification: frequency-biased stimulus randomization, per-class subspace
feature extraction with a linear Bayesian decision, a two-stage online
selection state machine with dictionary completion and a posterior
integration shortcut, and the full information-transfer-rate calculus for
scoring it all.
"""

__version__ = "0.1.0"
