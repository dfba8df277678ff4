"""Deterministic synthetic dataset generator.

Structure is planted so that learning is verifiable end to end: each event's
feature vector is a verb prototype plus noise, and each ground-truth role is
realized as exactly one entity proposal whose feature encodes (role, noun,
attribute) prototypes in disjoint subspaces. Captions are short attribute +
noun templates, so on held-out videos the captioning head has to read object
features. A small training set can be memorised without them: each video's
event features carry noise of their own, which identifies the video. Secrets
record every planted (frame, slot, box, noun) so tests can check recovery.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .data_model import (
    EVENTS_PER_VIDEO, ROLES, VISUAL_ROLES, Event, EventAnnotation, GroundingDict,
    SituationAnnotation, VerbLexicon, VideoSample,
    annotation_to_dict, build_frame_schedule, write_feature_file,
)
from .encoder import ConfigError
from .srl import GroundingPrediction, PredictionRecord, RolePrediction

VERB_NAMES = (
    "carry", "chase", "climb", "cut", "dance", "drink", "drive", "eat", "fall",
    "hit", "hold", "jump", "kick", "lift", "open", "point", "pour", "pull",
    "push", "run", "sit", "speak", "throw", "walk", "wave", "write",
)
NOUN_NAMES = (
    "robot", "dog", "cat", "ball", "box", "cup", "chair", "car", "bird",
    "tree", "book", "door", "lamp", "phone", "table", "horse", "apple",
    "train", "boat", "clock", "drum", "fish", "glove", "hat", "kite", "mug",
    "pen", "shoe", "star", "wheel",
)
ATTR_NAMES = (
    "red", "blue", "green", "tall", "small", "shiny", "old", "young", "dark",
    "bright", "round", "flat", "heavy", "light", "fast", "slow", "wooden",
    "metal", "soft", "rough",
)
FILLER_NAMES = ("the", "a", "very")

FRAME_W, FRAME_H = 640.0, 360.0


@dataclass
class SynthConfig:
    n_videos: int = 50
    n_val: int = 0
    n_verbs: int = 20
    vocab_size: int = 50          # content words (nouns + attributes + fillers)
    d_vid: int = 64
    d_obj: int = 64
    n_slots: int = 15             # M proposals per frame
    fps: float = 1.0
    duration: float = 10.0
    noise: float = 0.1
    seed: int = 0
    border_plants: bool = False   # plant entities on shared border frames
    long_tail: bool = False       # Zipf verb frequencies instead of uniform

    def __post_init__(self):
        for key, least in (("n_videos", 0), ("n_val", 0), ("seed", 0), ("n_verbs", 1),
                           ("d_vid", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        for key in ("fps", "duration"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        if not self.noise >= 0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")
        if self.n_slots < 2:  # Arg0 and at least one more role entity per frame
            raise ConfigError(f"n_slots={self.n_slots} leaves no room for role entities per frame")
        if self.vocab_size < len(FILLER_NAMES) + 2:
            raise ConfigError(f"vocab size {self.vocab_size} too small "
                              f"(need >= {len(FILLER_NAMES) + 2})")
        if min(_subspace_dims(self.d_obj)[1:]) < 2:
            raise ConfigError(f"d_obj={self.d_obj} too small for subspace prototypes")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PlantedEntity:
    frame: int
    slot: int
    box: tuple[float, float, float, float]
    noun: str
    attr: str
    caption: str


@dataclass
class Secrets:
    """Planted ground truth: per video, per event, the verb and entities."""

    config: SynthConfig
    verbs: dict[str, list[int]]                             # video -> verb per event
    entities: dict[str, list[dict[int, PlantedEntity]]]      # video -> per event role -> plant

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "videos": {
                vid: {
                    "events": [
                        {
                            "verb": self.verbs[vid][i],
                            "entities": {
                                ROLES[k]: {
                                    "frame": e.frame, "slot": e.slot,
                                    "box": list(e.box), "noun": e.noun,
                                    "attr": e.attr, "caption": e.caption,
                                }
                                for k, e in sorted(ents.items())
                            },
                        }
                        for i, ents in enumerate(self.entities[vid])
                    ]
                }
                for vid in sorted(self.verbs)
            },
        }


@dataclass
class SynthResult:
    train: list[VideoSample]
    val: list[VideoSample]
    lexicon: VerbLexicon
    secrets: Secrets
    prototypes: object = None   # _Prototypes; kept in memory for sanity checks
    nouns: list[str] = field(default_factory=list)
    attrs: list[str] = field(default_factory=list)

    @property
    def all_samples(self) -> list[VideoSample]:
        return self.train + self.val


def _word_partition(vocab_size: int):
    n_fill = len(FILLER_NAMES)
    n_attr = max(1, round((vocab_size - n_fill) * 0.4))
    n_noun = vocab_size - n_fill - n_attr
    nouns = [NOUN_NAMES[i] if i < len(NOUN_NAMES) else f"noun{i}" for i in range(n_noun)]
    attrs = [ATTR_NAMES[i] if i < len(ATTR_NAMES) else f"attr{i}" for i in range(n_attr)]
    return nouns, attrs


def _caption(template: int, attr: str, noun: str) -> str:
    if template == 0:
        return f"{attr} {noun}"
    if template == 1:
        return f"the {attr} {noun}"
    return f"a very {attr} {noun}"


def _unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    m = rng.standard_normal((n, d))
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


def _subspace_dims(d_obj: int) -> tuple[int, int, int]:
    """Widths of the role, noun and attribute subspaces of the object space."""
    role_dim = max(2, d_obj // 4)
    rest = d_obj - role_dim
    return role_dim, (rest + 1) // 2, rest - (rest + 1) // 2


class _Prototypes:
    """Verb prototypes over the event space; role/noun/attribute prototypes in
    disjoint subspaces of the object space (nearest-prototype recoverable)."""

    def __init__(self, cfg: SynthConfig, nouns: list[str], attrs: list[str],
                 rng: np.random.Generator):
        self.role_dim, self.noun_dim, self.attr_dim = _subspace_dims(cfg.d_obj)
        self.verb = _unit_rows(rng, cfg.n_verbs, cfg.d_vid)
        self.role = _unit_rows(rng, len(ROLES), self.role_dim)
        self.noun = _unit_rows(rng, len(nouns), self.noun_dim)
        self.attr = _unit_rows(rng, len(attrs), self.attr_dim)

    def entity_feature(self, role: int, noun: int, attr: int) -> np.ndarray:
        f = np.zeros(self.role_dim + self.noun_dim + self.attr_dim, dtype=np.float32)
        f[: self.role_dim] = self.role[role]
        f[self.role_dim: self.role_dim + self.noun_dim] = self.noun[noun]
        f[self.role_dim + self.noun_dim:] = self.attr[attr]
        return f


def _build_lexicon(cfg: SynthConfig, rng: np.random.Generator) -> VerbLexicon:
    verbs = [VERB_NAMES[i] if i < len(VERB_NAMES) else f"verb{i}" for i in range(cfg.n_verbs)]
    max_extra = min(4, cfg.n_slots - 1, len(ROLES) - 1)
    role_map = {}
    others = [r for r in range(len(ROLES)) if r != 0]
    for v in range(cfg.n_verbs):
        n_extra = int(rng.integers(1, max_extra + 1))
        extra = rng.choice(others, size=n_extra, replace=False)
        role_map[v] = frozenset([0] + sorted(int(r) for r in extra))  # Arg0 always present
    return VerbLexicon(verbs=verbs, role_map=role_map)


def _planted_box(role: int, rng: np.random.Generator) -> tuple[float, float, float, float]:
    # role-indexed grid cell with a little jitter; position does not encode the noun
    col, row = role % 4, role // 4
    jx, jy, jw, jh = rng.uniform(-8, 8, 4)
    x1 = col * 160.0 + 20.0 + jx
    y1 = row * 120.0 + 15.0 + jy
    return (round(x1, 2), round(y1, 2), round(x1 + 120.0 + jw, 2), round(y1 + 80.0 + jh, 2))


def _distractor_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4) float64 array of x1, y1, x2, y2 distractor boxes, rounded to
    two decimals. One ``uniform`` call draws the same doubles, in the same
    order, as n scalar draws of x1, y1, w, h, box after box."""
    x1y1wh = rng.uniform([0, 0, 20, 20], [FRAME_W - 60, FRAME_H - 60, 55, 55], (n, 4))
    corners = x1y1wh[:, :2]
    return _round2(np.concatenate([corners, corners + x1y1wh[:, 2:]], axis=1))


def _round2(x: np.ndarray) -> np.ndarray:
    """``round(v, 2)`` of every element, bit for bit, for |v| below 1e7.

    There ``100 * v`` is off by less than 1e-6, so where it lies further than
    that from a half-integer, ``rint`` picks the integer k that Python's
    correctly rounded ``round`` picks, and ``k / 100`` is the double nearest
    k/100, which ``round`` returns too. Nearer a tie the exact decimal value
    decides (``np.round(0.005, 2)`` is 0.0 where ``round`` gives 0.01), so
    those elements take ``round`` itself.
    """
    scaled = 100.0 * x
    out = np.rint(scaled) / 100.0
    for i in np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6):
        out.flat[i] = round(float(x.flat[i]), 2)
    return out


def generate(cfg: SynthConfig) -> SynthResult:
    """Generate train and validation splits plus the lexicon and secrets.

    Each video's distractor boxes come from one ``uniform`` call over all
    its frames and slots, which draws the same numbers in the same order as
    one scalar draw per box coordinate, box after box."""
    ss = np.random.SeedSequence(cfg.seed)
    global_rng = np.random.default_rng(ss.spawn(1)[0])
    nouns, attrs = _word_partition(cfg.vocab_size)
    lexicon = _build_lexicon(cfg, global_rng)
    protos = _Prototypes(cfg, nouns, attrs, global_rng)
    if cfg.long_tail:
        weights = 1.0 / np.arange(1, cfg.n_verbs + 1)
        verb_probs = weights / weights.sum()
    else:
        verb_probs = None

    total = cfg.n_videos + cfg.n_val
    video_seeds = ss.spawn(total + 1)[1:]
    events_t = [(i * cfg.duration / EVENTS_PER_VIDEO, (i + 1) * cfg.duration / EVENTS_PER_VIDEO)
                for i in range(EVENTS_PER_VIDEO)]

    samples: list[VideoSample] = []
    secret_verbs: dict[str, list[int]] = {}
    secret_entities: dict[str, list[dict[int, PlantedEntity]]] = {}

    for vi in range(total):
        rng = np.random.default_rng(video_seeds[vi])
        vid = f"vid{vi:04d}"
        events = [Event(i, s, e) for i, (s, e) in enumerate(events_t)]
        schedule = build_frame_schedule(cfg.duration, events, cfg.fps)
        n_frames = schedule.n_frames

        if verb_probs is None:
            verbs = rng.integers(0, cfg.n_verbs, EVENTS_PER_VIDEO).tolist()
        else:
            verbs = rng.choice(cfg.n_verbs, size=EVENTS_PER_VIDEO, p=verb_probs).tolist()
        verbs = [int(v) for v in verbs]

        event_features = protos.verb[verbs] + cfg.noise * rng.standard_normal(
            (EVENTS_PER_VIDEO, cfg.d_vid)).astype(np.float32)
        event_features = event_features.astype(np.float32)

        object_features = (cfg.noise * rng.standard_normal(
            (n_frames, cfg.n_slots, cfg.d_obj))).astype(np.float32)
        boxes = _distractor_boxes(rng, n_frames * cfg.n_slots).reshape(n_frames, cfg.n_slots, 4)

        noun_perm = rng.permutation(len(nouns))
        attr_perm = rng.permutation(len(attrs))
        entity_counter = 0

        annotations = []
        plants: list[dict[int, PlantedEntity]] = []
        for i, v in enumerate(verbs):
            frames = schedule.frames_of_event(i)
            t_plant = frames[0] if cfg.border_plants else frames[len(frames) // 2]
            roles = sorted(lexicon.role_map[v])
            ev_plants: dict[int, PlantedEntity] = {}
            caps: dict[int, list[str]] = {}
            for slot, role in enumerate(roles):
                ni = int(noun_perm[entity_counter % len(nouns)])
                ai = int(attr_perm[entity_counter % len(attrs)])
                entity_counter += 1
                feat = protos.entity_feature(role, ni, ai)
                object_features[t_plant, slot] = feat + cfg.noise * rng.standard_normal(
                    cfg.d_obj).astype(np.float32)
                box = _planted_box(role, rng)
                boxes[t_plant, slot] = box
                caption = _caption((ni + ai) % 3, attrs[ai], nouns[ni])
                caps[role] = [caption]
                ev_plants[role] = PlantedEntity(frame=t_plant, slot=slot, box=box,
                                                noun=nouns[ni], attr=attrs[ai], caption=caption)
            annotations.append(EventAnnotation(verbs=[v], roles=caps))
            plants.append(ev_plants)

        grounding = None
        if vi >= cfg.n_videos:  # validation samples carry grounding annotations
            entries = {}
            for i, ev_plants in enumerate(plants):
                for role, plant in ev_plants.items():
                    if role in VISUAL_ROLES:
                        entries[(i, role)] = {plant.frame: plant.box}
            grounding = GroundingDict(entries=entries)

        samples.append(VideoSample(
            id=vid, duration=cfg.duration, fps=cfg.fps, events=events, schedule=schedule,
            event_features=event_features, object_features=object_features, boxes=boxes,
            width=FRAME_W, height=FRAME_H,
            annotation=SituationAnnotation(events=annotations, grounding=grounding),
        ))
        secret_verbs[vid] = verbs
        secret_entities[vid] = plants

    secrets = Secrets(config=cfg, verbs=secret_verbs, entities=secret_entities)
    return SynthResult(train=samples[: cfg.n_videos], val=samples[cfg.n_videos:],
                       lexicon=lexicon, secrets=secrets,
                       prototypes=protos, nouns=nouns, attrs=attrs)


# -- serialization --------------------------------------------------------------


def write_dataset(out_dir, result: SynthResult):
    """Write the dataset in the standard on-disk layout."""
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    if any(s.annotation.grounding for s in result.all_samples):
        os.makedirs(os.path.join(out_dir, "grounding"), exist_ok=True)

    result.lexicon.save(os.path.join(out_dir, "lexicon.json"))
    with open(os.path.join(out_dir, "secrets.json"), "w") as f:
        json.dump(result.secrets.to_dict(), f, indent=1, sort_keys=True)

    for split, split_samples in (("train", result.train), ("val", result.val)):
        manifest_path = os.path.join(out_dir, f"manifest_{split}.jsonl")
        with open(manifest_path, "w") as f:
            for s in split_samples:
                f.write(json.dumps(_write_sample(out_dir, s), sort_keys=True))
                f.write("\n")


def _write_sample(out_dir, sample: VideoSample) -> dict:
    vid = sample.id
    ev_path = f"features/{vid}.events.bin"
    obj_path = f"features/{vid}.objects.bin"
    boxes_path = f"features/{vid}.boxes.json"
    write_feature_file(os.path.join(out_dir, ev_path), sample.event_features)
    write_feature_file(os.path.join(out_dir, obj_path), sample.object_features)
    # json.dumps without indent takes the C encoder; json.dump(obj, f) never does
    with open(os.path.join(out_dir, boxes_path), "w") as f:
        f.write(json.dumps({"width": sample.width, "height": sample.height,
                            "boxes": sample.boxes.tolist()}, sort_keys=True))

    record = {
        "id": vid,
        "duration": sample.duration,
        "fps": sample.fps,
        "events": [[e.start_s, e.end_s] for e in sample.events],
        "event_features": ev_path,
        "object_features": obj_path,
        "boxes": boxes_path,
        "annotation": annotation_to_dict(sample.annotation),
    }
    if sample.annotation.grounding is not None:
        g_path = f"grounding/{vid}.json"
        with open(os.path.join(out_dir, g_path), "w") as f:
            f.write(json.dumps(sample.annotation.grounding.to_dict(), sort_keys=True))
        record["grounding"] = g_path
    return record


# -- oracle predictions ----------------------------------------------------------


def oracle_predict(sample: VideoSample, secrets: Secrets) -> list[PredictionRecord]:
    """Perfect predictions straight from the planted ground truth, for metric
    calibration (verb accuracy 1.0, grounding IoU 1.0, caption self-consensus)."""
    verbs = secrets.verbs[sample.id]
    plants = secrets.entities[sample.id]
    n_verbs = secrets.config.n_verbs
    records = []
    for i, ev in enumerate(sample.annotation.events):
        v = verbs[i]
        top5 = [v] + [u for u in range(n_verbs) if u != v][:4]
        roles = []
        for role in sorted(ev.roles):
            plant = plants[i][role]
            roles.append(RolePrediction(
                role=role,
                caption=plant.caption,
                grounding=GroundingPrediction(slot=plant.slot, frame=plant.frame,
                                              box=plant.box, score=1.0),
            ))
        records.append(PredictionRecord(video_id=sample.id, event=i, verb=v,
                                        top5_verbs=top5, roles=roles))
    return records


def load_secrets(path) -> Secrets:
    with open(path) as f:
        doc = json.load(f)
    cfg = SynthConfig(**doc["config"])
    verbs = {}
    entities = {}
    for vid, vdoc in doc["videos"].items():
        verbs[vid] = [ev["verb"] for ev in vdoc["events"]]
        entities[vid] = [
            {
                ROLES.index(rname): PlantedEntity(
                    frame=e["frame"], slot=e["slot"], box=tuple(e["box"]),
                    noun=e["noun"], attr=e["attr"], caption=e["caption"],
                )
                for rname, e in ev["entities"].items()
            }
            for ev in vdoc["events"]
        ]
    return Secrets(config=cfg, verbs=verbs, entities=entities)
