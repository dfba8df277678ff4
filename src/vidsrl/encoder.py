"""Stage 1: align and contextualise object and event features with a
transformer encoder, then predict verbs and multi-label roles per event.

The token sequence is all T*M object tokens (ordered by frame, then slot)
followed by the 5 event tokens. Object tokens get the positional embedding
of their event plus a learned projection of their normalized box geometry;
border-frame objects take the earlier event's positional embedding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import diffmath as dm
from .data_model import ROLES, VideoSample


class ConfigError(ValueError):
    """A config value out of its range, or config text that does not parse."""


@dataclass
class ArchConfig:
    """The architecture shared by all three transformer stages; the fields a
    user sets, declared once for training and for the model, and checked
    wherever a config is built, a checkpoint's too."""

    d_model: int = 1024
    n_heads: int = 8
    n_layers: int = 3
    max_caption_len: int = 15
    theta_role: float = 0.5
    degrade_objects: bool = False

    _AT_LEAST_ONE = ("d_model", "n_heads", "n_layers", "max_caption_len")

    def __post_init__(self):
        for key in self._AT_LEAST_ONE:
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"n_heads must divide d_model {self.d_model}, got {self.n_heads}")
        if not (0.0 < self.theta_role < 1.0):
            raise ConfigError(f"theta_role must be in (0, 1), got {self.theta_role}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ModelConfig(ArchConfig):
    """The architecture plus the sizes read from the data."""

    d_vid: int = 64
    d_obj: int = 64
    n_verbs: int = 20
    n_roles: int = len(ROLES)
    n_events: int = 5
    vocab_size: int = 54

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``to_dict``; a config written by a different model
        version fails with the keys it lacks or does not know."""
        names = {f.name for f in fields(cls)}
        unknown, missing = sorted(set(d) - names), sorted(names - set(d))
        if unknown or missing:
            raise dm.CheckpointError(f"model config does not fit this model: "
                                     f"unknown keys {unknown}, missing keys {missing}")
        try:
            return cls(**d)
        except ConfigError as e:
            raise dm.CheckpointError(f"checkpoint model config: {e}") from e


def box_position_features(sample: VideoSample) -> np.ndarray:
    """(T*M, 5) array of (cx, cy, w, h, area), all normalized to [0, 1]."""
    x1, y1, x2, y2 = sample.boxes.reshape(-1, 4).T
    w = (x2 - x1) / sample.width
    h = (y2 - y1) / sample.height
    return np.stack([(x1 + x2) / (2 * sample.width), (y1 + y2) / (2 * sample.height),
                     w, h, w * h], axis=1).astype(np.float32)


def proposal_event_owners(sample: VideoSample) -> np.ndarray:
    """Earliest owning event index for every proposal (for its PE)."""
    frame_owners = [sample.schedule.owner_event(t) for t in range(sample.schedule.n_frames)]
    return np.repeat(np.array(frame_owners, dtype=np.int64), sample.n_slots)


@dataclass
class SampleInputs:
    """Constant per-video arrays, precomputed once and reused across epochs."""

    object_features: np.ndarray  # (T*M, D_obj), possibly degraded
    event_features: np.ndarray   # (5, D_vid)
    box_positions: np.ndarray    # (T*M, 5)
    owners: np.ndarray           # (T*M,)


def prepare_inputs(sample: VideoSample, degrade_objects: bool = False) -> SampleInputs:
    obj = sample.object_features.reshape(-1, sample.object_features.shape[2]).astype(np.float32)
    evt = sample.event_features.astype(np.float32)
    owners = proposal_event_owners(sample)
    if degrade_objects:
        if obj.shape[1] != evt.shape[1]:
            raise ValueError("object degradation needs matching event/object feature dims")
        obj = evt[owners]
    return SampleInputs(
        object_features=obj,
        event_features=evt,
        box_positions=box_position_features(sample),
        owners=owners,
    )


class VideoObjectEncoder(dm.Module):
    """Transformer over object + event tokens with verb and role heads."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.d_model
        self.cfg = cfg
        self.obj_proj = dm.Linear(cfg.d_obj, d, rng)
        self.event_proj = dm.Linear(cfg.d_vid, d, rng)
        self.pe_event = dm.Embedding(cfg.n_events, d, rng)
        self.box_proj = dm.Linear(5, d, rng)
        self.layers = [dm.TransformerLayer(d, cfg.n_heads, rng) for _ in range(cfg.n_layers)]
        self.verb_in = dm.Linear(d, 2 * d, rng)
        self.verb_out = dm.Linear(2 * d, cfg.n_verbs, rng)
        self.role_in = dm.Linear(d, d, rng)
        self.role_out = dm.Linear(d, cfg.n_roles, rng)

    def embed_tokens(self, inputs: SampleInputs) -> dm.Tensor:
        """Project features and add positional terms; objects first, events last."""
        obj = self.obj_proj(dm.Tensor(inputs.object_features))
        obj = dm.add(obj, self.pe_event(inputs.owners))
        obj = dm.add(obj, self.box_proj(dm.Tensor(inputs.box_positions)))
        evt = self.event_proj(dm.Tensor(inputs.event_features))
        evt = dm.add(evt, self.pe_event(np.arange(len(inputs.event_features))))
        return dm.concat([obj, evt], axis=0)

    def encode(self, tokens: dm.Tensor, dropout_p: float = 0.0, rng=None):
        """Full self-attention over all tokens; split back into (o', e')."""
        x = tokens
        for layer in self.layers:
            x, _ = layer(x, dropout_p=dropout_p, rng=rng)
        n_events = self.cfg.n_events
        n_obj = x.shape[0] - n_events
        return dm.narrow(x, 0, 0, n_obj), dm.narrow(x, 0, n_obj, n_events)

    def predict_verbs(self, e_ctx: dm.Tensor) -> dm.Tensor:
        """Raw verb logits (n_events, n_verbs); argmax ties go to the lowest id."""
        return dm.ffn(e_ctx, self.verb_in, self.verb_out)

    def role_logits(self, e_ctx: dm.Tensor) -> dm.Tensor:
        return dm.ffn(e_ctx, self.role_in, self.role_out)

    def predict_roles(self, e_ctx: dm.Tensor):
        """Sigmoid role probabilities and the per-event role sets thresholded
        at ``cfg.theta_role``.

        The threshold is strict (probability must exceed theta), so an event
        may come back with an empty set; the caller decides any fallback.
        """
        theta = self.cfg.theta_role
        probs = dm.sigmoid(self.role_logits(e_ctx))
        sets = [sorted(np.flatnonzero(row > theta).tolist()) for row in probs.data]
        return probs, sets

    def forward(self, inputs: SampleInputs, dropout_p: float = 0.0, rng=None):
        tokens = self.embed_tokens(inputs)
        return self.encode(tokens, dropout_p=dropout_p, rng=rng)
