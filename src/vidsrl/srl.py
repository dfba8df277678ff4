"""Stages 2 and 3: role queries with event-aware masked cross-attention over
object proposals, autoregressive caption generation per role, and grounding
extracted from the final decoder layer's attention map.

All role queries of a video are decoded jointly (self-attention spans the
whole video). A role query is its role embedding plus its event's
positional embedding: the verb picks the role set but does not enter the
query. Each role's caption is then decoded from its own role vector: the
captioner runs on (n_roles, length, d), with one causal (length, length)
self mask shared by the roles. Each captioner layer conditions on the role
vector z by one ``Linear(z)`` added at every position. In training all
captions are teacher-forced in parallel; at inference, greedy decoding feeds
one token per role and step against cached keys and values, and prediction
records no autodiff graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import diffmath as dm
from .data_model import (
    BOS, EOS, ROLES, ROLE_IDS, DatasetError, FrameSchedule, VerbLexicon, VideoSample,
    Vocabulary, normalize_caption, roles_for_verb,
)
from .encoder import ModelConfig, VideoObjectEncoder, prepare_inputs

REGIMES = ("gt-roles", "pred-gt-map", "pred-pred")
FALLBACK_ROLE = ROLE_IDS["Arg0"]  # used when the multi-label head predicts nothing


@dataclass(frozen=True)
class RoleQuery:
    event: int
    role: int


@dataclass(frozen=True)
class GroundingPrediction:
    slot: int
    frame: int
    box: tuple[float, float, float, float]
    score: float


def role_query_index(role_sets) -> list[RoleQuery]:
    """One query per (event, role), ordered by event, then role id: the
    order of the role queries, the event mask's rows and the caption
    targets' rows alike."""
    return [RoleQuery(i, k) for i, roles in enumerate(role_sets) for k in sorted(roles)]


def build_role_queries(role_sets: list[list[int]], role_table: dm.Tensor,
                       pe_table: dm.Tensor):
    """q = role embedding + event positional embedding, in
    :func:`role_query_index` order."""
    index = role_query_index(role_sets)
    if not index:
        raise ValueError("no role queries (all role sets empty)")
    for q in index:
        if not (0 <= q.role < role_table.shape[0]):
            raise KeyError(f"unknown role id {q.role}")
    event_idx = np.array([q.event for q in index], dtype=np.int64)
    role_idx = np.array([q.role for q in index], dtype=np.int64)
    queries = dm.add(dm.gather_rows(role_table, role_idx), dm.gather_rows(pe_table, event_idx))
    return queries, index


def build_event_mask(queries: list[RoleQuery], schedule: FrameSchedule, n_slots: int) -> np.ndarray:
    """Boolean (n_queries, T*M) mask: a query may attend a proposal iff the
    proposal's frame lies inside the query's event."""
    n_frames = schedule.n_frames
    frame_allowed = np.zeros((len(schedule.per_event_frames), n_frames), dtype=bool)
    for i, frames in enumerate(schedule.per_event_frames):
        if not frames:
            raise ValueError(f"event {i} has no frames")
        frame_allowed[i, list(frames)] = True
    per_event = np.repeat(frame_allowed, n_slots, axis=1)  # (n_events, T*M)
    return per_event[[q.event for q in queries]]


class RoleObjectDecoder(dm.Module):
    """Transformer decoder: self-attention among role queries (unmasked),
    event-aware masked cross-attention to contextualised objects, FFN."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.role_embed = dm.Embedding(cfg.n_roles, cfg.d_model, rng)
        self.layers = [dm.TransformerLayer(cfg.d_model, cfg.n_heads, rng, cross=True)
                       for _ in range(cfg.n_layers)]

    def forward(self, queries: dm.Tensor, o_ctx: dm.Tensor, mask: np.ndarray,
                dropout_p: float = 0.0, rng=None):
        """Returns z and the per-layer head-averaged cross-attention weights,
        each (n_queries, T*M) and zero outside the query's event."""
        if mask.shape != (queries.shape[0], o_ctx.shape[0]):
            raise ValueError(f"event mask shape {mask.shape} does not match "
                             f"{queries.shape[0]} queries x {o_ctx.shape[0]} objects")
        x = queries
        all_weights = []
        for layer in self.layers:
            x, w = layer(x, memory=o_ctx, cross_mask=mask, dropout_p=dropout_p, rng=rng)
            all_weights.append(w)
        return x, all_weights



def extract_grounding(alpha_row: np.ndarray, allowed: np.ndarray,
                      sample: VideoSample) -> GroundingPrediction:
    """Highest-attention proposal restricted to the query's event.

    Proposals are ordered by (frame, slot), so numpy's first-max argmax
    implements the (frame, slot) lexicographic tie-break.
    """
    scores = np.where(allowed, alpha_row, -1.0)
    p = int(np.argmax(scores))
    frame, slot = divmod(p, sample.n_slots)
    return GroundingPrediction(slot=slot, frame=frame,
                               box=tuple(sample.boxes[frame, slot].tolist()),
                               score=float(alpha_row[p]))


# -- captioning (stage 3) ----------------------------------------------------


class CaptionDecoder(dm.Module):
    """Autoregressive transformer decoder conditioned on one role vector.

    Every role is its own sequence on a leading role axis. Self-attention is
    causal within a role's caption; each layer's cross sublayer is one
    d x d ``Linear`` of the role vector (``cross_proj``), added at every
    position.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d_model
        self.token_embed = dm.Embedding(cfg.vocab_size, d, rng)
        self.pos_embed = dm.Embedding(cfg.max_caption_len + 2, d, rng)
        self.layers = [dm.TransformerLayer(d, cfg.n_heads, rng, cross="linear")
                       for _ in range(cfg.n_layers)]
        self.out = dm.Linear(d, cfg.vocab_size, rng)

    def logits(self, token_ids: np.ndarray, z: dm.Tensor,
               dropout_p: float = 0.0, rng=None) -> dm.Tensor:
        """Next-token logits for (n_roles, length) input ids against the
        (n_roles, d) role vectors; returns (n_roles, length, vocab)."""
        n_roles, length = token_ids.shape
        if length > self.cfg.max_caption_len + 2:
            raise ValueError(f"caption length {length} exceeds the positional table")
        x = dm.add(self.token_embed(token_ids), self.pos_embed(np.arange(length)))
        causal = np.tril(np.ones((length, length), dtype=bool))
        for layer in self.layers:
            cross = dm.reshape(layer.cross_proj(z), (n_roles, 1, self.cfg.d_model))
            x, _ = layer(x, self_mask=causal, cross_out=cross, dropout_p=dropout_p, rng=rng)
        return self.out(x)

    def greedy(self, z: dm.Tensor, max_len: int | None = None) -> list[list[int]]:
        """Greedy decoding for every role in lockstep; returns token ids per
        role, truncated before the first EOS (BOS/EOS excluded).

        Decoding is incremental and records no graph: each step feeds only
        the newest token of every role, each layer caches the prefix's
        self-attention keys and values, the cross term is computed once per
        call, and only the newest position is projected to the vocabulary.
        """
        max_len = self.cfg.max_caption_len if max_len is None else max_len
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        if max_len > self.cfg.max_caption_len + 1:
            raise ValueError(f"caption length {max_len + 1} exceeds the positional table")
        n_roles = z.shape[0]
        token = np.full(n_roles, BOS, dtype=np.int64)
        done = np.zeros(n_roles, dtype=bool)
        steps = []
        with dm.no_grad():
            cross = [layer.cross_proj(z) for layer in self.layers]
            caches = [None] * len(self.layers)
            for t in range(max_len + 1):  # +1 gives room for the closing EOS
                x = dm.add(self.token_embed(token), self.pos_embed(np.full(n_roles, t)))
                for i, layer in enumerate(self.layers):
                    x, caches[i] = layer.step(x, caches[i], cross[i])
                token = self.out(x).data.argmax(axis=1)
                steps.append(token)
                done |= token == EOS
                if done.all():
                    break
        out = []
        for row in np.stack(steps, axis=1):
            ids = []
            for t in row:
                if t == EOS:
                    break
                ids.append(int(t))
            out.append(ids[:max_len])
        return out



# -- full model and inference -------------------------------------------------


@dataclass
class RolePrediction:
    role: int
    caption: str
    grounding: GroundingPrediction
    alpha: np.ndarray | None = None


@dataclass
class PredictionRecord:
    video_id: str
    event: int
    verb: int
    top5_verbs: list[int]
    roles: list[RolePrediction]


class SituationModel(dm.Module):
    """The three stages plus the lexicon and vocabulary they are bound to."""

    def __init__(self, cfg: ModelConfig, lexicon: VerbLexicon, vocab: Vocabulary,
                 rng: np.random.Generator):
        if cfg.n_verbs != len(lexicon):
            raise ValueError(f"config declares {cfg.n_verbs} verbs, lexicon has {len(lexicon)}")
        if cfg.vocab_size != len(vocab):
            raise ValueError(f"config declares vocab {cfg.vocab_size}, got {len(vocab)}")
        self.cfg = cfg
        self.lexicon = lexicon
        self.vocab = vocab
        self.encoder = VideoObjectEncoder(cfg, rng)
        self.role_decoder = RoleObjectDecoder(cfg, rng)
        self.captioner = CaptionDecoder(cfg, rng)

    def meta(self) -> dict:
        """What a checkpoint records beside the parameters to rebuild the model."""
        return {
            "config": self.cfg.to_dict(),
            "lexicon": self.lexicon.to_dict(),
            "vocab": self.vocab.to_dict(),
        }

    def save(self, path):
        dm.save_tensors(path, {name: p.data for name, p in self.named_parameters()}, self.meta())

    @classmethod
    def load(cls, path) -> "SituationModel":
        return cls.from_tensors(*dm.load_tensors(path))

    @classmethod
    def from_tensors(cls, arrays: dict, meta: dict) -> "SituationModel":
        """The model held by a loaded checkpoint's arrays and meta."""
        missing = [key for key in ("config", "lexicon", "vocab") if key not in meta]
        if missing:
            raise dm.CheckpointError(f"checkpoint meta lacks {', '.join(map(repr, missing))}")
        cfg = ModelConfig.from_dict(meta["config"])
        lexicon = VerbLexicon.from_dict(meta["lexicon"])
        vocab = Vocabulary.from_dict(meta["vocab"])
        model = cls(cfg, lexicon, vocab, np.random.default_rng(0))
        for name, p in model.named_parameters():
            if name not in arrays:
                raise dm.CheckpointError(f"checkpoint missing parameter {name!r}")
            if tuple(arrays[name].shape) != p.data.shape:
                raise dm.CheckpointError(f"checkpoint shape mismatch for {name!r}")
            p.data = arrays[name].astype(p.data.dtype)
        return model

    def check_data(self, samples: list[VideoSample], lexicon: VerbLexicon):
        """Raise CheckpointError unless every video's feature sizes and the
        dataset's verb lexicon are the ones this model was built for."""
        if lexicon != self.lexicon:
            raise dm.CheckpointError("the dataset's verb lexicon differs from the checkpoint's")
        for s in samples:
            for key, size in (("d_vid", s.event_features.shape[1]),
                              ("d_obj", s.object_features.shape[2])):
                expected = getattr(self.cfg, key)
                if size != expected:
                    raise dm.CheckpointError(f"video {s.id!r} has {key} {size}, "
                                             f"the checkpoint expects {expected}")

    # role-set selection per inference regime

    def role_sets_for(self, sample: VideoSample, regime: str,
                      verb_pred: np.ndarray | None = None,
                      pred_sets: list[list[int]] | None = None) -> list[list[int]]:
        if regime not in REGIMES:
            raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
        if regime == "gt-roles":
            return [sorted(ev.roles) for ev in sample.annotation.events]
        if regime == "pred-gt-map":
            return [sorted(roles_for_verb(self.lexicon, int(v))) for v in verb_pred]
        return [roles if roles else [FALLBACK_ROLE] for roles in pred_sets]

    def predict_situation(self, sample: VideoSample, regime: str = "gt-roles",
                          keep_alpha: bool = False) -> list[PredictionRecord]:
        """Run all three stages on one video and assemble per-event records.

        Runs under ``dm.no_grad()``: no autodiff graph is recorded.
        """
        with dm.no_grad():
            inputs = prepare_inputs(sample, degrade_objects=self.cfg.degrade_objects)
            o_ctx, e_ctx = self.encoder.forward(inputs)
            verb_logits = self.encoder.predict_verbs(e_ctx).data
            verb_pred = verb_logits.argmax(axis=1)
            top5 = np.argsort(-verb_logits, axis=1, kind="stable")[:, :5]
            _, pred_sets = self.encoder.predict_roles(e_ctx)

            role_sets = self.role_sets_for(sample, regime, verb_pred, pred_sets)
            queries, index = build_role_queries(
                role_sets, self.role_decoder.role_embed.table, self.encoder.pe_event.table)
            mask = build_event_mask(index, sample.schedule, sample.n_slots)
            z, weights = self.role_decoder.forward(queries, o_ctx, mask)
            alpha = weights[-1].data
            captions = self.captioner.greedy(z)

        per_event: dict[int, list[RolePrediction]] = {i: [] for i in range(len(sample.events))}
        for qi, q in enumerate(index):
            grounding = extract_grounding(alpha[qi], mask[qi], sample)
            per_event[q.event].append(RolePrediction(
                role=q.role,
                caption=self.vocab.decode_caption(captions[qi]),
                grounding=grounding,
                alpha=alpha[qi].copy() if keep_alpha else None,
            ))
        return [
            PredictionRecord(
                video_id=sample.id, event=i,
                verb=int(verb_pred[i]), top5_verbs=[int(v) for v in top5[i]],
                roles=per_event[i],
            )
            for i in range(len(sample.events))
        ]


# -- prediction record serialization ------------------------------------------


def records_to_json(records: list[PredictionRecord], include_alpha: bool = False) -> dict:
    """One JSON object per video (events grouped under it)."""
    if not records:
        raise ValueError("no records for video")
    events = []
    for rec in sorted(records, key=lambda r: r.event):
        roles = []
        for rp in sorted(rec.roles, key=lambda r: r.role):
            entry = {
                "role": ROLES[rp.role],
                "caption": rp.caption,
                "grounding": {
                    "frame": rp.grounding.frame,
                    "box": [float(x) for x in rp.grounding.box],
                    "score": rp.grounding.score,
                },
            }
            if include_alpha and rp.alpha is not None:
                entry["alpha"] = [float(a) for a in rp.alpha]
            roles.append(entry)
        events.append({
            "event": rec.event,
            "verb": rec.verb,
            "top5_verbs": rec.top5_verbs,
            "roles": roles,
        })
    return {"video_id": records[0].video_id, "events": events}


def _role_id(name) -> int:
    if not isinstance(name, str) or name not in ROLE_IDS:
        raise DatasetError(f"unknown role {name!r}; expected one of {', '.join(ROLES)}")
    return ROLE_IDS[name]


def records_from_json(doc: dict) -> list[PredictionRecord]:
    out = []
    for ev in doc["events"]:
        roles = [
            RolePrediction(
                role=_role_id(r["role"]),
                caption=normalize_caption(r["caption"]),
                grounding=GroundingPrediction(
                    slot=-1,
                    frame=int(r["grounding"]["frame"]),
                    box=tuple(float(x) for x in r["grounding"]["box"]),
                    score=float(r["grounding"]["score"]),
                ),
                alpha=np.asarray(r["alpha"], dtype=np.float32) if "alpha" in r else None,
            )
            for r in ev["roles"]
        ]
        out.append(PredictionRecord(
            video_id=doc["video_id"], event=int(ev["event"]),
            verb=int(ev["verb"]), top5_verbs=[int(v) for v in ev["top5_verbs"]],
            roles=roles,
        ))
    return out


def write_predictions(path, per_video: list[list[PredictionRecord]], include_alpha: bool = False):
    with open(path, "w") as f:
        for records in per_video:
            f.write(json.dumps(records_to_json(records, include_alpha), sort_keys=True))
            f.write("\n")


def read_predictions(path) -> list[list[PredictionRecord]]:
    """Inverse of :func:`write_predictions`; a line that is not JSON, lacks
    a key or names an unknown role raises DatasetError naming the path and
    line number."""
    out = []
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(records_from_json(json.loads(line)))
            except json.JSONDecodeError as e:
                raise DatasetError(f"{path}:{line_no}: malformed JSON: {e}") from e
            except KeyError as e:
                raise DatasetError(f"{path}:{line_no}: prediction record lacks {e}") from e
            except DatasetError as e:
                raise DatasetError(f"{path}:{line_no}: {e}") from e
    return out
