"""Multi-output Gaussian Process gait modeling with HMM segmentation.

The package covers the full pipeline: gait-signal preprocessing,
composite-kernel multi-output GP regression under an intrinsic
coregionalization model, Adam-based hyperparameter fitting, a four-state
Gaussian-emission HMM for phase segmentation and anomaly extraction,
evaluation metrics (MAE, R², DTW/aDTW), corpus I/O with
leave-one-subject-out splitting, a synthetic-data generator, and the
``gaitmogp`` command-line front end.
"""

from .errors import GaitPipelineError, NumericError, ValidationError
from .kernels import TemporalKernel
from .mogp import (MoGPModel, OptimizerConfig, PosteriorPrediction,
                   TrainingSet, export_coregionalization, fit,
                   initialize_model, lml_gradient, log_marginal_likelihood,
                   predict)
from .hmm import (BaumWelchConfig, DecodedStates, HmmModel,
                  ObservationSequence, anomalous_segments, baum_welch_fit,
                  default_model, emission_logpdf, forward_log_likelihood,
                  init_emissions_from_data, viterbi_decode)
from .gait_signal import (CHANNELS, detect_events, impute_missing,
                          lowpass_filter, normalize_and_align,
                          phase_durations)
from .metrics import compute_report, dtw, mae, r_squared
from .dataio import (AnomalySpec, SubjectRecord, SynthConfig,
                     generate_synthetic, load_corpus, loso_splits,
                     save_corpus)

__version__ = "0.1.0"

__all__ = [
    "GaitPipelineError", "NumericError", "ValidationError",
    "TemporalKernel",
    "MoGPModel", "OptimizerConfig", "PosteriorPrediction", "TrainingSet",
    "export_coregionalization", "fit", "initialize_model", "lml_gradient",
    "log_marginal_likelihood", "predict",
    "BaumWelchConfig", "DecodedStates", "HmmModel",
    "ObservationSequence", "anomalous_segments", "baum_welch_fit",
    "default_model", "emission_logpdf", "forward_log_likelihood",
    "init_emissions_from_data", "viterbi_decode",
    "CHANNELS", "detect_events", "impute_missing",
    "lowpass_filter", "normalize_and_align", "phase_durations",
    "compute_report", "dtw", "mae", "r_squared",
    "AnomalySpec", "SubjectRecord", "SynthConfig",
    "generate_synthetic", "load_corpus", "loso_splits", "save_corpus",
    "__version__",
]
