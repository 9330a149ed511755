"""tubekit: detection-tube association, mining, temporal-consistency losses,
and grounding metrics for spatio-temporal video grounding, with a synthetic
scene simulator and a decoding-drift model for controlled experiments."""

__version__ = "0.1.0"

from .assignment import cosine_similarity, solve_assignment
from .association import (AssociationConfig, Detection, FrameDetections,
                          Tube, TubeMemory, TubeRecord, associate_step,
                          init_memory, run_association)
from .autolabel import (AutolabelConfig, CandidateRecord, CandidateTube,
                        assemble_annotation, coverage_filter,
                        find_merge_conflicts, merge_tubes)
from .consistency import (GradCheckReport, Gradients, LossWeights, MinedTube,
                          combined_loss, feature_loss, geom_loss, grad_check,
                          loss_gradients)
from .decoding import DecodingReport, ExposureConfig, p_error_free, simulate_decoding
from .errors import FormatError, NonSmoothError, ValidationError
from .geometry import Box, giou, iou
from .metrics import (EvalReport, Prediction, SampleResult, drift_profile,
                      evaluate, select_tube, split_fifths, t_iou, v_iou)
from .mining import (CostBreakdown, CostWeights, GtTube, match_cost,
                     mine_best_tube, temporal_cost)
from .scenes import LabeledScene, SceneConfig, generate_scene, identity_switch_rate

__all__ = [
    "AssociationConfig", "AutolabelConfig", "Box", "CandidateRecord",
    "CandidateTube", "CostBreakdown", "CostWeights", "DecodingReport",
    "Detection", "EvalReport", "ExposureConfig", "FormatError",
    "FrameDetections", "GradCheckReport", "Gradients", "GtTube",
    "LabeledScene", "LossWeights", "MinedTube", "NonSmoothError", "Prediction",
    "SampleResult", "SceneConfig", "Tube", "TubeMemory", "TubeRecord",
    "ValidationError", "assemble_annotation", "associate_step",
    "combined_loss", "cosine_similarity", "coverage_filter", "drift_profile",
    "evaluate", "feature_loss", "find_merge_conflicts", "generate_scene",
    "geom_loss", "giou", "grad_check", "identity_switch_rate", "init_memory",
    "iou", "loss_gradients", "match_cost", "merge_tubes", "mine_best_tube",
    "p_error_free", "run_association", "select_tube", "simulate_decoding",
    "solve_assignment", "split_fifths", "t_iou", "temporal_cost", "v_iou",
]
