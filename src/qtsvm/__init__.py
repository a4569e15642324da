"""Robust kernel-free quadratic-surface twin SVM toolkit."""

from .data import (
    Dataset,
    NormalizationParams,
    apply_scaler,
    fit_scaler,
    gen_example1,
    gen_example2,
    gen_example3,
    inject_label_noise,
    load_csv,
)
from .errors import (
    DataFormatError,
    InvalidInputError,
    MalformedModelFileError,
    ModelInconsistencyError,
    ModelVersionError,
    NumericError,
    QtsvmError,
)
from .lifting import LiftingMode, dvec, hvec, lifted_dim, lvec, pack_weights, qvec, unpack_weights
from .model import (
    QuadraticSurface,
    TrainedModel,
    load_model,
    predict,
    predict_many,
    save_model,
)
from .solver_cl1 import FitReport, ReweightState, SolverConfig, fit
from .solver_lsq import fit_lsq

__version__ = "0.1.0"
