"""From-scratch machine-learning substrate for the Smartpick reproduction.

The paper's workload predictor is a decision-tree based Random Forest (RF)
regressor navigated by a Bayesian Optimizer (BO) with a Gaussian Process
surrogate and a Probability-of-Improvement acquisition function (Section 3.1).
No ML library is available offline, so this package implements the full stack:

- :mod:`repro.ml.decision_tree` -- CART regression trees.
- :mod:`repro.ml.random_forest` -- bagging ensembles with ``warm_start``.
- :mod:`repro.ml.forest_inference` -- the packed-forest inference engine
  (one lock-step descent for the whole ensemble, optionally through a
  compiled kernel from :mod:`repro.ml.forest_native`).
- :mod:`repro.ml.kernels` -- covariance kernels for Gaussian Processes.
- :mod:`repro.ml.gaussian_process` -- exact GP regression via Cholesky
  (the reference for the BO search's posterior; exported lazily, so
  :mod:`scipy.linalg` loads only when it is used).
- :mod:`repro.ml.acquisition` -- PI, EI and UCB acquisition functions.
- :mod:`repro.ml.bayesian_optimizer` -- BO over discrete candidate sets.
- :mod:`repro.ml.dataset` -- hold-out splits and the paper's +-5 % data-burst
  augmentation heuristic (Section 5).
- :mod:`repro.ml.metrics` -- RMSE, standard error and the within-2-standard-
  errors accuracy measure used in Section 6.2.
"""

from repro.ml.acquisition import (
    AcquisitionFunction,
    ExpectedImprovement,
    ProbabilityOfImprovement,
    UpperConfidenceBound,
    make_acquisition,
)
from repro.ml.bayesian_optimizer import BayesianOptimizer, BOResult
from repro.ml.dataset import DataBurstAugmenter, Dataset, train_test_split
from repro.ml.decision_tree import DecisionTreeRegressor
from repro.ml.forest_inference import PackedForest
from repro.ml.grid_inference import GridPack
from repro.ml.kernels import Kernel, Matern52Kernel, RBFKernel, WhiteKernel
from repro.ml.metrics import (
    accuracy_within,
    accuracy_within_two_standard_errors,
    mean_absolute_error,
    r2_score,
    rmse,
    standard_error_of_regression,
)
from repro.ml.random_forest import RandomForestRegressor

__all__ = [
    "AcquisitionFunction",
    "BOResult",
    "BayesianOptimizer",
    "DataBurstAugmenter",
    "Dataset",
    "DecisionTreeRegressor",
    "ExpectedImprovement",
    "GaussianProcessRegressor",
    "GridPack",
    "Kernel",
    "Matern52Kernel",
    "PackedForest",
    "ProbabilityOfImprovement",
    "RBFKernel",
    "RandomForestRegressor",
    "UpperConfidenceBound",
    "WhiteKernel",
    "accuracy_within",
    "accuracy_within_two_standard_errors",
    "make_acquisition",
    "mean_absolute_error",
    "r2_score",
    "rmse",
    "standard_error_of_regression",
    "train_test_split",
]


def __getattr__(name: str):
    # PEP 562: load the exact GP, and scipy.linalg with it, on first use.
    if name == "GaussianProcessRegressor":
        from repro.ml.gaussian_process import GaussianProcessRegressor

        return GaussianProcessRegressor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
