"""otlab: occlusion-guided augmentation and batch triplet metric learning.

A self-contained float64 numpy CNN engine plus the two techniques under
study: occlusion-map guided training-set augmentation, and a triplet loss
variant that also shrinks the variance of the positive and negative score
distributions. Includes a synthetic dataset with a planted discriminative
region, a verification evaluation harness, and a CLI (``otlab``) wiring
the stages into reproducible pipelines over the functions in
:mod:`otlab.engine`, :mod:`otlab.occlusion` and :mod:`otlab.metric`.
"""

from . import data, engine, evaluation, metric, occlusion

__version__ = "0.1.0"

__all__ = ["data", "engine", "evaluation", "metric", "occlusion", "__version__"]
