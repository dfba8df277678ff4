"""End-to-end optimization: the three-part loss (verb CE + role BCE +
caption CE), long-tail verb-loss variants, batching, Adam, checkpointing.

The per-video loss sums the three components; gradients are accumulated
per sample in a fixed order and averaged across the batch, so results do
not depend on how a batch is traversed.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import diffmath as dm
from .data_model import (
    BOS, EOS, PAD, VerbLexicon, VideoSample, Vocabulary, build_vocabulary,
    caption_corpus,
)
from .encoder import ArchConfig, ConfigError, ModelConfig, prepare_inputs
from .metrics import evaluate
from .srl import (
    RoleQuery, SituationModel, build_event_mask, build_role_queries, role_query_index,
)

VERB_LOSS_MODES = ("plain", "reweighted", "focal", "balanced-sampling")


@dataclass
class TrainConfig(ArchConfig):
    """The architecture plus the optimisation settings; fps and the
    proposals per frame come from the dataset, not from the config."""

    lr: float = 1e-4
    batch_size: int = 16
    epochs: int = 100
    seed: int = 0
    verb_loss_mode: str = "plain"
    focal_gamma: float = 2.0
    dropout: float = 0.1
    eval_every: int = 25
    vocab_min_count: int = 1

    _AT_LEAST_ONE = ArchConfig._AT_LEAST_ONE + ("batch_size", "eval_every")

    def __post_init__(self):
        super().__post_init__()
        if self.verb_loss_mode not in VERB_LOSS_MODES:
            raise ConfigError(f"verb_loss_mode must be one of {VERB_LOSS_MODES}, "
                              f"got {self.verb_loss_mode!r}")
        if self.verb_loss_mode == "focal" and self.focal_gamma <= 0:
            raise ConfigError(f"focal_gamma must be > 0, got {self.focal_gamma}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a boolean: {text!r}")
    return word in ("1", "true", "yes")


# Exact config file surface: every TrainConfig field, parsed by its declared type
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}
CONFIG_KEYS = {f.name: _PARSERS[f.type] for f in fields(TrainConfig)}


def config_values(text: str) -> dict:
    """The value of every config key: the defaults, updated by flat
    ``key = value`` lines ('#' starts a comment). Not yet validated, so that
    later overrides can still change a value; build a TrainConfig from it."""
    values = TrainConfig().to_dict()
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        apply_override(values, key, value)
    return values


def parse_config_text(text: str) -> TrainConfig:
    """The validated config of flat ``key = value`` lines; see :func:`config_values`."""
    return TrainConfig(**config_values(text))


def apply_override(values: dict, key: str, value: str):
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}; valid keys: "
                          + ", ".join(sorted(CONFIG_KEYS)))
    try:
        values[key] = CONFIG_KEYS[key](value)
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from e


def load_config(path) -> TrainConfig:
    with open(path) as f:
        return parse_config_text(f.read())


def config_defaults_help() -> str:
    defaults = TrainConfig().to_dict()
    return ", ".join(f"{key} (default {defaults[key]})" for key in sorted(CONFIG_KEYS))


# -- losses -----------------------------------------------------------------


def _target_logp(logits: dm.Tensor, targets: np.ndarray) -> dm.Tensor:
    """log_softmax over the last axis, read at the target id of every row;
    flat, of size ``targets.size``."""
    flat = dm.reshape(dm.log_softmax(logits), (-1,))
    return dm.gather_rows(flat, np.arange(targets.size) * logits.shape[-1] + targets.ravel())


def verb_loss(logits: dm.Tensor, gt_verbs: list[int], mode: str = "plain",
              gamma: float = 2.0, class_weights: np.ndarray | None = None) -> dm.Tensor:
    """Cross-entropy over events against the primary ground-truth verb.

    plain: mean CE. reweighted: CE weighted by per-class weights (normalized
    by the total weight, so uniform weights reduce to plain). focal:
    (1 - p)^gamma * CE, mean over events. balanced-sampling keeps the loss
    plain (the imbalance handling happens in the sampler).
    """
    n_events, n_verbs = logits.shape
    gt = np.asarray(gt_verbs)
    if gt.min() < 0 or gt.max() >= n_verbs:
        raise ValueError(f"ground-truth verb outside lexicon of size {n_verbs}")
    picked = _target_logp(logits, gt)
    ce = -picked
    if mode in ("plain", "balanced-sampling"):
        return dm.tensor_mean(ce)
    if mode == "focal":
        focus = dm.power(1.0 - dm.exp(picked), gamma)
        return dm.tensor_mean(dm.mul(focus, ce))
    if mode == "reweighted":
        if class_weights is None:
            raise ValueError("reweighted mode needs class weights")
        w = np.asarray(class_weights, dtype=logits.data.dtype)[gt]
        return dm.tensor_sum(dm.mul(ce, w)) / float(w.sum())
    raise ValueError(f"unknown verb loss mode {mode!r}")


def role_loss(role_logits: dm.Tensor, gt_role_sets: list[set[int]]) -> dm.Tensor:
    """Mean binary cross-entropy over every (event, role) decision."""
    n_events, n_roles = role_logits.shape
    targets = np.zeros((n_events, n_roles), dtype=role_logits.data.dtype)
    for i, roles in enumerate(gt_role_sets):
        for r in roles:
            targets[i, r] = 1.0
    return dm.tensor_mean(dm.bce_with_logits(role_logits, targets))


def caption_loss(decoder_logits: dm.Tensor, reference_tokens: np.ndarray) -> dm.Tensor:
    """Teacher-forced caption loss: sum over roles of the mean per-token CE.

    ``reference_tokens`` is the (n_roles, length) target matrix (reference
    shifted left, closed by EOS, padded with PAD); PAD positions weigh 0.
    """
    n_roles, length, _ = decoder_logits.shape
    if reference_tokens.shape != (n_roles, length):
        raise ValueError(f"targets {reference_tokens.shape} do not match logits "
                         f"{decoder_logits.shape}")
    real = reference_tokens != PAD
    per_role = real.sum(axis=1)
    if (per_role == 0).any():
        raise ValueError("caption target with no real tokens")
    weights = (real / per_role[:, None]).astype(np.float32).ravel()
    return -dm.tensor_sum(dm.mul(_target_logp(decoder_logits, reference_tokens), weights))


def verb_class_frequencies(samples: list[VideoSample], n_verbs: int) -> np.ndarray:
    counts = np.zeros(n_verbs, dtype=np.int64)
    for s in samples:
        for ev in s.annotation.events:
            counts[ev.primary_verb] += 1
    return counts


def inverse_frequency_weights(samples: list[VideoSample], n_verbs: int) -> np.ndarray:
    counts = verb_class_frequencies(samples, n_verbs)
    return 1.0 / np.maximum(counts, 1)


def balanced_sample_weights(samples: list[VideoSample], n_verbs: int) -> np.ndarray:
    """Per-video sampling weight: mean inverse class frequency of the video's
    event verbs, normalized to sum to 1."""
    inv = inverse_frequency_weights(samples, n_verbs)
    w = np.array([np.mean([inv[ev.primary_verb] for ev in s.annotation.events])
                  for s in samples])
    return w / w.sum()


# -- teacher forcing ----------------------------------------------------------


def caption_targets(sample: VideoSample, index: list[RoleQuery], vocab: Vocabulary,
                    max_len: int):
    """(inputs, targets) for the role queries ``index`` of a video, one row
    per query: the query's first reference caption.

    Inputs are BOS + reference, targets are reference + EOS, both padded to
    the longest caption in the video. References longer than max_len are
    truncated with a warning.
    """
    rows_in, rows_tgt = [], []
    for q in index:
        ids = vocab.encode(sample.annotation.events[q.event].roles[q.role][0])
        if len(ids) > max_len:
            warnings.warn(f"{sample.id}: caption for event {q.event} role {q.role} "
                          f"truncated to {max_len} tokens")
            ids = ids[:max_len]
        rows_in.append([BOS] + ids)
        rows_tgt.append(ids + [EOS])
    length = max(len(r) for r in rows_in)
    inputs = np.full((len(rows_in), length), PAD, dtype=np.int64)
    targets = np.full((len(rows_in), length), PAD, dtype=np.int64)
    for r, (ri, rt) in enumerate(zip(rows_in, rows_tgt)):
        inputs[r, : len(ri)] = ri
        targets[r, : len(rt)] = rt
    return inputs, targets


@dataclass
class CompiledSample:
    """Per-video constants reused across epochs."""

    sample: VideoSample
    inputs: object            # encoder SampleInputs
    gt_verbs: list[int]
    gt_role_sets: list[set[int]]
    role_sets_sorted: list[list[int]]
    event_mask: np.ndarray
    cap_inputs: np.ndarray
    cap_targets: np.ndarray


def compile_sample(sample: VideoSample, vocab: Vocabulary, cfg: ModelConfig) -> CompiledSample:
    role_sets = [sorted(ev.roles) for ev in sample.annotation.events]
    index = role_query_index(role_sets)
    mask = build_event_mask(index, sample.schedule, sample.n_slots)
    cap_in, cap_tgt = caption_targets(sample, index, vocab, cfg.max_caption_len)
    return CompiledSample(
        sample=sample,
        inputs=prepare_inputs(sample, degrade_objects=cfg.degrade_objects),
        gt_verbs=[ev.primary_verb for ev in sample.annotation.events],
        gt_role_sets=[set(ev.roles) for ev in sample.annotation.events],
        role_sets_sorted=role_sets,
        event_mask=mask,
        cap_inputs=cap_in,
        cap_targets=cap_tgt,
    )


def video_loss(model: SituationModel, compiled: CompiledSample, train_cfg: TrainConfig,
               class_weights: np.ndarray | None = None, rng=None):
    """Forward pass over all three stages; returns (total, components dict).
    The total is the unweighted sum (caption + role) + verb."""
    dropout_p = train_cfg.dropout if rng is not None else 0.0
    o_ctx, e_ctx = model.encoder.forward(compiled.inputs, dropout_p=dropout_p, rng=rng)
    verb_logits = model.encoder.predict_verbs(e_ctx)
    role_logits = model.encoder.role_logits(e_ctx)

    queries, index = build_role_queries(
        compiled.role_sets_sorted, model.role_decoder.role_embed.table,
        model.encoder.pe_event.table)
    z, _ = model.role_decoder.forward(queries, o_ctx, compiled.event_mask,
                                      dropout_p=dropout_p, rng=rng)
    cap_logits = model.captioner.logits(compiled.cap_inputs, z,
                                        dropout_p=dropout_p, rng=rng)

    components = {
        "verb": verb_loss(verb_logits, compiled.gt_verbs, mode=train_cfg.verb_loss_mode,
                          gamma=train_cfg.focal_gamma, class_weights=class_weights),
        "role": role_loss(role_logits, compiled.gt_role_sets),
        "caption": caption_loss(cap_logits, compiled.cap_targets),
    }
    total = dm.add(dm.add(components["caption"], components["role"]), components["verb"])
    return total, components


# -- optimizer ----------------------------------------------------------------


class Adam:
    def __init__(self, named_params: list[tuple[str, dm.Tensor]], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.named_params = named_params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in named_params}

    def step(self):
        self.t += 1
        b1c = 1 - self.beta1 ** self.t
        b2c = 1 - self.beta2 ** self.t
        for name, p in self.named_params:
            if p.grad is None:
                continue
            g, m, v = p.grad, self.m[name], self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * (g * g)
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def zero_grad(self):
        for _, p in self.named_params:
            p.grad = None


# -- train loop ----------------------------------------------------------------


@dataclass
class TrainState:
    model: SituationModel
    optimizer: Adam
    epoch: int = 0
    step: int = 0

    def save(self, path):
        arrays = {name: p.data for name, p in self.model.named_parameters()}
        for name in self.optimizer.m:
            arrays[f"optim.m.{name}"] = self.optimizer.m[name]
            arrays[f"optim.v.{name}"] = self.optimizer.v[name]
        meta = {
            **self.model.meta(),
            "epoch": self.epoch,
            "step": self.step,
            "optim_t": self.optimizer.t,
            "lr": self.optimizer.lr,
        }
        dm.save_tensors(path, arrays, meta)

    @classmethod
    def load(cls, path) -> "TrainState":
        """Inverse of :meth:`save`. A model-only checkpoint, or any file
        without the optimizer state, raises CheckpointError naming what it lacks."""
        arrays, meta = dm.load_tensors(path)
        model = SituationModel.from_tensors(arrays, meta)
        names = [name for name, _ in model.named_parameters()]
        missing = [key for key in ("lr", "optim_t", "epoch", "step") if key not in meta]
        for kind in ("m", "v"):
            absent = [f"optim.{kind}.{name}" for name in names
                      if f"optim.{kind}.{name}" not in arrays]
            missing += [f"optim.{kind}.*"] if len(absent) == len(names) else absent
        if missing:
            raise dm.CheckpointError(f"{path} is not a training state: it lacks "
                                     f"{', '.join(missing)}")
        opt = Adam(list(model.named_parameters()), lr=meta["lr"])
        opt.t = meta["optim_t"]
        for name, _ in model.named_parameters():
            opt.m[name] = arrays[f"optim.m.{name}"].copy()
            opt.v[name] = arrays[f"optim.v.{name}"].copy()
        return cls(model=model, optimizer=opt, epoch=meta["epoch"], step=meta["step"])


def model_config_for(train_cfg: TrainConfig, samples: list[VideoSample],
                     lexicon: VerbLexicon, vocab: Vocabulary) -> ModelConfig:
    """The training architecture plus the sizes read from the data."""
    first = samples[0]
    return ModelConfig(
        **{f.name: getattr(train_cfg, f.name) for f in fields(ArchConfig)},
        d_vid=first.event_features.shape[1],
        d_obj=first.object_features.shape[2],
        n_verbs=len(lexicon),
        n_events=len(first.events),
        vocab_size=len(vocab),
    )


def train(train_samples: list[VideoSample], lexicon: VerbLexicon, cfg: TrainConfig,
          out_dir, val_samples: list[VideoSample] | None = None,
          log_fn=None) -> TrainState:
    """Optimize the full model; writes checkpoints and a metric log.

    Writes one JSON object per epoch to metrics.jsonl, best-verb / best-cider
    checkpoints whenever a validation pass improves on those metrics, and
    checkpoint_last.bin plus train_state.bin once, after the last epoch.
    """
    if not train_samples:
        raise ValueError("empty training set")
    os.makedirs(out_dir, exist_ok=True)
    vocab = build_vocabulary(caption_corpus(train_samples), min_count=cfg.vocab_min_count)
    model_cfg = model_config_for(cfg, train_samples, lexicon, vocab)

    ss = np.random.SeedSequence(cfg.seed)
    init_seed, shuffle_seed, dropout_seed = ss.spawn(3)
    model = SituationModel(model_cfg, lexicon, vocab, np.random.default_rng(init_seed))
    named = list(model.named_parameters())
    optimizer = Adam(named, lr=cfg.lr)
    state = TrainState(model=model, optimizer=optimizer)

    compiled = [compile_sample(s, vocab, model_cfg) for s in train_samples]
    class_weights = None
    if cfg.verb_loss_mode == "reweighted":
        class_weights = inverse_frequency_weights(train_samples, len(lexicon))
    sample_weights = None
    if cfg.verb_loss_mode == "balanced-sampling":
        sample_weights = balanced_sample_weights(train_samples, len(lexicon))

    shuffle_rng = np.random.default_rng(shuffle_seed)
    dropout_rng = np.random.default_rng(dropout_seed) if cfg.dropout > 0 else None

    best_verb = -1.0
    best_cider = -np.inf
    log_path = os.path.join(out_dir, "metrics.jsonl")
    with open(log_path, "w") as log_file:
        for epoch in range(cfg.epochs):
            if sample_weights is not None:
                order = shuffle_rng.choice(len(compiled), size=len(compiled),
                                           replace=True, p=sample_weights)
            else:
                order = shuffle_rng.permutation(len(compiled))
            sums = {"verb": 0.0, "role": 0.0, "caption": 0.0, "total": 0.0}
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start: start + cfg.batch_size]
                optimizer.zero_grad()
                for idx in batch:
                    loss, parts = video_loss(model, compiled[int(idx)], cfg,
                                             class_weights=class_weights, rng=dropout_rng)
                    if not np.isfinite(loss.data):
                        dump = {"epoch": epoch, "step": state.step, "video": compiled[int(idx)].sample.id,
                                "components": {k: float(v.data) for k, v in parts.items()}}
                        with open(os.path.join(out_dir, "diagnostic_dump.json"), "w") as f:
                            json.dump(dump, f, indent=1, sort_keys=True)
                        raise RuntimeError(f"non-finite loss at epoch {epoch}: {dump}")
                    loss.backward()
                    sums["total"] += float(loss.data)
                    for k, v in parts.items():
                        sums[k] += float(v.data)
                inv = 1.0 / len(batch)
                for _, p in named:
                    if p.grad is not None:
                        p.grad *= inv
                optimizer.step()
                state.step += 1
            state.epoch = epoch + 1

            n = len(order)
            entry = {"epoch": epoch + 1,
                     "loss": sums["total"] / n,
                     "loss_verb": sums["verb"] / n,
                     "loss_role": sums["role"] / n,
                     "loss_caption": sums["caption"] / n}

            if val_samples and (epoch + 1) % cfg.eval_every == 0:
                report = evaluate(
                    [model.predict_situation(s, regime="gt-roles") for s in val_samples],
                    val_samples)
                entry["val_verb_acc1"] = report.verb["acc@1"]
                entry["val_cider"] = report.srl["cider"]
                entry.update({f"val_{k}": v for k, v in report.grounding.items()
                              if k.startswith("iou@0.5")})
                if report.verb["acc@1"] > best_verb:
                    best_verb = report.verb["acc@1"]
                    model.save(os.path.join(out_dir, "checkpoint_best_verb.bin"))
                if report.srl["cider"] > best_cider:
                    best_cider = report.srl["cider"]
                    model.save(os.path.join(out_dir, "checkpoint_best_cider.bin"))

            log_file.write(json.dumps(entry, sort_keys=True) + "\n")
            log_file.flush()
            if log_fn:
                log_fn(entry)

    optimizer.zero_grad()  # the last batch's gradients: nothing reads or saves them
    model.save(os.path.join(out_dir, "checkpoint_last.bin"))
    state.save(os.path.join(out_dir, "train_state.bin"))
    return state
