"""Stages 2 and 3: role queries with event-aware masked cross-attention over
object proposals, autoregressive caption generation per role, and grounding
extracted from the final decoder layer's attention map.

All role queries of a video are decoded jointly (self-attention spans the
whole video). In training, all captions are teacher-forced in parallel by
concatenating one block per role: a block-diagonal causal self mask keeps the
blocks independent, and a one-hot cross mask gives each block its own role
vector as a length-1 memory. At inference, greedy decoding feeds one token
per role and step against cached keys and values, and prediction records no
autodiff graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import diffmath as dm
from .data_model import (
    BOS, EOS, ROLES, ROLE_IDS, FrameSchedule, VerbLexicon, VideoSample,
    Vocabulary, normalize_caption, roles_for_verb,
)
from .encoder import ModelConfig, VideoObjectEncoder, prepare_inputs

REGIMES = ("gt-roles", "pred-gt-map", "pred-pred")
FALLBACK_ROLE = ROLE_IDS["Arg0"]  # used when the multi-label head predicts nothing


@dataclass(frozen=True)
class RoleQuery:
    event: int
    role: int


@dataclass
class DecoderOutput:
    """Per-query role vector plus the final-layer head-averaged attention."""

    queries: list[RoleQuery]
    z: np.ndarray       # (n_queries, d)
    alpha: np.ndarray   # (n_queries, T*M); zero outside the query's event


@dataclass(frozen=True)
class GroundingPrediction:
    slot: int
    frame: int
    box: tuple[float, float, float, float]
    score: float


def build_role_queries(role_sets: list[list[int]], event_context: dm.Tensor,
                       role_table: dm.Tensor, pe_table: dm.Tensor):
    """q = role embedding + per-event context vector + event positional embedding.

    ``event_context`` is normally the contextualised event embeddings e'; an
    ablation may pass any other (n_events, d) matrix such as learned verb
    embeddings. Queries are ordered by (event, role id).
    """
    index = [RoleQuery(i, k) for i, roles in enumerate(role_sets) for k in sorted(roles)]
    if not index:
        raise ValueError("no role queries (all role sets empty)")
    for q in index:
        if not (0 <= q.role < role_table.shape[0]):
            raise KeyError(f"unknown role id {q.role}")
    event_idx = np.array([q.event for q in index], dtype=np.int64)
    role_idx = np.array([q.role for q in index], dtype=np.int64)
    queries = dm.add(
        dm.add(dm.gather_rows(role_table, role_idx), dm.gather_rows(event_context, event_idx)),
        dm.gather_rows(pe_table, event_idx),
    )
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


class RoleObjectDecoder:
    """Transformer decoder: self-attention among role queries (unmasked),
    event-aware masked cross-attention to contextualised objects, FFN."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.role_embed = dm.Embedding(cfg.n_roles, cfg.d_model, rng)
        self.layers = [dm.TransformerLayer(cfg.d_model, cfg.n_heads, rng, cross=True)
                       for _ in range(cfg.n_layers)]

    def forward(self, queries: dm.Tensor, o_ctx: dm.Tensor, mask: np.ndarray,
                dropout_p: float = 0.0, rng=None):
        """Returns (z, per-layer cross-attention weights, final weights)."""
        if mask.shape != (queries.shape[0], o_ctx.shape[0]):
            raise ValueError(f"event mask shape {mask.shape} does not match "
                             f"{queries.shape[0]} queries x {o_ctx.shape[0]} objects")
        x = queries
        all_weights = []
        for layer in self.layers:
            x, w = layer(x, memory=o_ctx, cross_mask=mask, dropout_p=dropout_p, rng=rng)
            all_weights.append(w)
        return x, all_weights, all_weights[-1]

    def named_parameters(self, prefix: str = "role_decoder"):
        yield from self.role_embed.named_parameters(f"{prefix}.role_embed")
        for i, layer in enumerate(self.layers):
            yield from layer.named_parameters(f"{prefix}.layers.{i}")


def decode_roles(decoder: RoleObjectDecoder, queries: dm.Tensor, index: list[RoleQuery],
                 o_ctx: dm.Tensor, mask: np.ndarray) -> DecoderOutput:
    z, _, final_w = decoder.forward(queries, o_ctx, mask)
    return DecoderOutput(queries=index, z=z.data.copy(), alpha=final_w.data.copy())


def extract_grounding(alpha_row: np.ndarray, allowed: np.ndarray,
                      sample: VideoSample) -> GroundingPrediction:
    """Highest-attention proposal restricted to the query's event.

    Proposals are ordered by (frame, slot), so numpy's first-max argmax
    implements the (frame, slot) lexicographic tie-break.
    """
    scores = np.where(allowed, alpha_row, -1.0)
    p = int(np.argmax(scores))
    prop = sample.proposals[p]
    return GroundingPrediction(slot=prop.slot, frame=prop.frame_index,
                               box=prop.box, score=float(alpha_row[p]))


# -- captioning (stage 3) ----------------------------------------------------


_BLOCK_MASK_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _block_masks(n_blocks: int, length: int):
    """Self mask (block-diagonal causal) and cross mask (one memory per block).

    Cached by shape; callers must treat the returned arrays as read-only.
    """
    key = (n_blocks, length)
    if key not in _BLOCK_MASK_CACHE:
        causal = np.tril(np.ones((length, length), dtype=bool))
        self_mask = np.zeros((n_blocks * length, n_blocks * length), dtype=bool)
        cross_mask = np.zeros((n_blocks * length, n_blocks), dtype=bool)
        for r in range(n_blocks):
            s = r * length
            self_mask[s:s + length, s:s + length] = causal
            cross_mask[s:s + length, r] = True
        _BLOCK_MASK_CACHE[key] = (self_mask, cross_mask)
    return _BLOCK_MASK_CACHE[key]


class CaptionDecoder:
    """Autoregressive transformer decoder conditioned on one role vector.

    Each caption position cross-attends to a single key, its own role
    vector, so the cross-attention softmax is exactly 1 and the sublayer's
    output is exactly ``wo(wv(z))`` for that role, whatever ``wq``/``wk``
    hold (they never receive a gradient). ``greedy`` relies on this
    identity: it computes that output once per call and layer instead of
    attending at every step.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d_model
        self.token_embed = dm.Embedding(cfg.vocab_size, d, rng)
        self.pos_embed = dm.Embedding(cfg.max_caption_len + 2, d, rng)
        self.layers = [dm.TransformerLayer(d, cfg.n_heads, rng, cross=True)
                       for _ in range(cfg.n_layers)]
        self.out = dm.Linear(d, cfg.vocab_size, rng)

    def logits(self, token_ids: np.ndarray, z: dm.Tensor,
               dropout_p: float = 0.0, rng=None) -> dm.Tensor:
        """Next-token logits for (n_blocks, length) input ids against the
        (n_blocks, d) role memory; returns (n_blocks, length, vocab)."""
        n_blocks, length = token_ids.shape
        if length > self.cfg.max_caption_len + 2:
            raise ValueError(f"caption length {length} exceeds the positional table")
        flat = token_ids.reshape(-1)
        x = dm.add(self.token_embed(flat),
                   self.pos_embed(np.tile(np.arange(length), n_blocks)))
        self_mask, cross_mask = _block_masks(n_blocks, length)
        for layer in self.layers:
            x, _ = layer(x, memory=z, self_mask=self_mask, cross_mask=cross_mask,
                         dropout_p=dropout_p, rng=rng)
        return dm.reshape(self.out(x), (n_blocks, length, self.cfg.vocab_size))

    def greedy(self, z: dm.Tensor, max_len: int | None = None) -> list[list[int]]:
        """Greedy decoding for every role in lockstep; returns token ids per
        role, truncated before the first EOS (BOS/EOS excluded).

        Decoding is incremental and records no graph: each step feeds only
        the newest token of every role, each layer caches the prefix's
        self-attention keys and values, the cross-attention output is the
        constant of the class docstring, and only the newest position is
        projected to the vocabulary.
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
            cross = [layer.cross_attn.wo(layer.cross_attn.wv(z)) for layer in self.layers]
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

    def named_parameters(self, prefix: str = "captioner"):
        yield from self.token_embed.named_parameters(f"{prefix}.token_embed")
        yield from self.pos_embed.named_parameters(f"{prefix}.pos_embed")
        for i, layer in enumerate(self.layers):
            yield from layer.named_parameters(f"{prefix}.layers.{i}")
        yield from self.out.named_parameters(f"{prefix}.out")


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


class SituationModel:
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

    # parameter plumbing

    def named_parameters(self):
        yield from self.encoder.named_parameters("encoder")
        yield from self.role_decoder.named_parameters("role_decoder")
        yield from self.captioner.named_parameters("captioner")

    def parameters(self) -> list[dm.Tensor]:
        return [p for _, p in self.named_parameters()]

    def save(self, path):
        arrays = {name: p.data for name, p in self.named_parameters()}
        meta = {
            "config": self.cfg.to_dict(),
            "lexicon": self.lexicon.to_dict(),
            "vocab": self.vocab.to_dict(),
        }
        dm.save_tensors(path, arrays, meta)

    @classmethod
    def load(cls, path) -> "SituationModel":
        arrays, meta = dm.load_tensors(path)
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
                              ("d_obj", s.proposals[0].feature.shape[0])):
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
                role_sets, e_ctx, self.role_decoder.role_embed.table, self.encoder.pe_event.table)
            mask = build_event_mask(index, sample.schedule, sample.n_slots)
            output = decode_roles(self.role_decoder, queries, index, o_ctx, mask)

            captions = self.captioner.greedy(dm.Tensor(output.z))

        per_event: dict[int, list[RolePrediction]] = {i: [] for i in range(len(sample.events))}
        for qi, q in enumerate(index):
            grounding = extract_grounding(output.alpha[qi], mask[qi], sample)
            per_event[q.event].append(RolePrediction(
                role=q.role,
                caption=self.vocab.decode_caption(captions[qi]),
                grounding=grounding,
                alpha=output.alpha[qi].copy() if keep_alpha else None,
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


def records_from_json(doc: dict) -> list[PredictionRecord]:
    out = []
    for ev in doc["events"]:
        roles = [
            RolePrediction(
                role=ROLE_IDS[r["role"]],
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
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(records_from_json(json.loads(line)))
    return out
