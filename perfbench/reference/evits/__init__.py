"""Uncertainty-aware unsupervised domain adaptation for time series.

Evidential Dirichlet classification heads (three Bayesian-risk losses,
annealed KL regularization, closed-form uncertainty), a multi-scale
mixing feature extractor with five down-sampling variants, statistical
domain-alignment losses and the calibration / discrepancy metrics to
analyze them — on a small deterministic float64 autodiff kernel.
"""

__version__ = "0.1.0"

from .evidential import (  # noqa: F401
    AnnealSchedule,
    DirichletBatch,
    LabelBatch,
    evidence_to_alpha,
    predict_mean,
    uncertainty,
)
from .tensor import Tensor, backward, grad_check  # noqa: F401
