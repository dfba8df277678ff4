"""Joint verb classification, semantic role captioning and weakly-supervised
spatio-temporal grounding for multi-event videos."""

from .data_model import (
    ROLES, VISUAL_ROLES, Event, FrameSchedule, GroundingDict, SituationAnnotation,
    VerbLexicon, VideoSample, Vocabulary, build_frame_schedule, build_vocabulary,
    load_dataset, load_dataset_dir, roles_for_verb, validate_sample,
)
from .encoder import ModelConfig, VideoObjectEncoder
from .metrics import EvalReport, box_iou, cider, cider_grouped, evaluate, rouge_l
from .srl import (
    REGIMES, CaptionDecoder, GroundingPrediction,
    PredictionRecord, RoleObjectDecoder, SituationModel,
    build_event_mask, build_role_queries, extract_grounding,
)
from .synth import SynthConfig, generate, oracle_predict, write_dataset
from .training import TrainConfig, balanced_sample_weights, train

__version__ = "0.1.0"
