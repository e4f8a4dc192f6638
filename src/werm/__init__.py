"""Weighted empirical risk minimization with plug-in importance weights.

Corrects sample selection bias by reweighting training losses with
estimated likelihood ratios, for four settings: class-probability shift,
stratum shift, positive-unlabeled data, and right-censored durations.
Ships the estimators, a closed-form analytic test bed, evaluable
generalization/deviation bounds with Monte-Carlo coverage checks, a
power-law bias injector, a small weighted trainer, and a CLI.
"""

__version__ = "0.1.0"
