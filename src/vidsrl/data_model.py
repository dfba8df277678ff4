"""Domain types, dataset file formats, vocabulary, and the deterministic
frame/event schedule.

A video is a fixed protocol object: 5 events tiling its duration, frames
subsampled at a configurable rate (1 fps default), and M object proposals
per frame, held as (T, M, D) features and (T, M, 4) boxes. Events own the
frames inside their time span; border frames are shared by both adjacent
events.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

ROLES = ("Arg0", "Arg1", "Arg2", "Arg3", "Arg4",
         "AScn", "ADir", "APrp", "AMnr", "ALoc", "AGol")
ROLE_IDS = {name: i for i, name in enumerate(ROLES)}
VISUAL_ROLES = (0, 1, 2)  # Arg0, Arg1, Arg2 are the grounded roles
EVENTS_PER_VIDEO = 5

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

_TIME_EPS = 1e-6


class DatasetError(ValueError):
    """Raised for malformed dataset files or invariant violations."""


@dataclass(frozen=True)
class Event:
    index: int
    start_s: float
    end_s: float


@dataclass(frozen=True)
class FrameSchedule:
    """Subsampled frame timeline plus per-event frame membership."""

    frame_times: tuple[float, ...]
    per_event_frames: tuple[tuple[int, ...], ...]  # frame indices per event

    @property
    def n_frames(self) -> int:
        return len(self.frame_times)

    def frames_of_event(self, event_index: int) -> tuple[int, ...]:
        return self.per_event_frames[event_index]

    def owner_event(self, frame_index: int) -> int:
        """Earliest event containing the frame (border frames belong to two)."""
        for i, frames in enumerate(self.per_event_frames):
            if frame_index in frames:
                return i
        raise KeyError(f"frame {frame_index} outside every event")


@dataclass
class VerbLexicon:
    """Verb id/name table plus the deterministic verb -> role-set map."""

    verbs: list[str]
    role_map: dict[int, frozenset[int]]

    def __post_init__(self):
        for vid, roles in self.role_map.items():
            if not roles:
                raise DatasetError(f"verb {self.verbs[vid]!r} maps to an empty role set")
            bad = [r for r in roles if not (0 <= r < len(ROLES))]
            if bad:
                raise DatasetError(f"verb {self.verbs[vid]!r} maps to unknown role ids {bad}")

    def __len__(self) -> int:
        return len(self.verbs)

    def to_dict(self) -> dict:
        return {
            "verbs": list(self.verbs),
            "role_map": {self.verbs[v]: sorted(ROLES[r] for r in roles)
                         for v, roles in self.role_map.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerbLexicon":
        """Inverse of :meth:`to_dict`; raises DatasetError naming a missing
        key, an unknown verb or an unknown role."""
        if not isinstance(d, dict):
            raise DatasetError(f"lexicon is not a JSON object: {d!r}")
        missing = [key for key in ("verbs", "role_map") if key not in d]
        if missing:
            raise DatasetError(f"lexicon lacks {', '.join(map(repr, missing))}")
        if not isinstance(d["verbs"], list) or not isinstance(d["role_map"], dict):
            raise DatasetError("lexicon 'verbs' must be a list and 'role_map' an object")
        verbs = list(d["verbs"])
        role_map = {}
        for name, roles in d["role_map"].items():
            if name not in verbs:
                raise DatasetError(f"lexicon 'role_map' names unknown verb {name!r}")
            unknown = [r for r in roles if r not in ROLE_IDS]
            if unknown:
                raise DatasetError(f"lexicon 'role_map' gives verb {name!r} unknown roles {unknown}")
            role_map[verbs.index(name)] = frozenset(ROLE_IDS[r] for r in roles)
        return cls(verbs=verbs, role_map=role_map)

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "VerbLexicon":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def roles_for_verb(lexicon: VerbLexicon, verb: int) -> frozenset[int]:
    """The fixed role set attached to a verb."""
    if verb not in lexicon.role_map:
        raise KeyError(f"unknown verb id {verb}")
    return lexicon.role_map[verb]


@dataclass
class EventAnnotation:
    verbs: list[int]  # one or more ground-truth verbs; the first is primary
    roles: dict[int, list[str]]  # role id -> reference captions

    @property
    def primary_verb(self) -> int:
        return self.verbs[0]


@dataclass
class GroundingDict:
    """Per (event, role) map from frame index to an annotated box."""

    entries: dict[tuple[int, int], dict[int, tuple[float, float, float, float]]]

    def boxes_for(self, event: int, role: int) -> dict[int, tuple]:
        return self.entries.get((event, role), {})

    def to_dict(self) -> dict:
        return {
            f"{e}/{ROLES[r]}": {str(t): list(box) for t, box in sorted(frames.items())}
            for (e, r), frames in sorted(self.entries.items())
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GroundingDict":
        """Inverse of :meth:`to_dict`; raises DatasetError naming a key that
        is not ``event/role`` or names an unknown role, or a malformed entry."""
        if not isinstance(d, dict):
            raise DatasetError("is not a JSON object")
        entries = {}
        for key, frames in d.items():
            event_s, sep, role_s = key.partition("/")
            if not (sep and event_s.isdigit()):
                raise DatasetError(f"key {key!r} is not 'event/role'")
            if role_s not in ROLE_IDS:
                raise DatasetError(f"key {key!r} names unknown role {role_s!r}")
            try:
                entries[(int(event_s), ROLE_IDS[role_s])] = {
                    int(t): tuple(float(x) for x in box) for t, box in frames.items()
                }
            except (AttributeError, TypeError, ValueError) as e:
                raise DatasetError(f"entry {key!r} is malformed: {e}") from e
        return cls(entries=entries)


@dataclass
class SituationAnnotation:
    events: list[EventAnnotation]
    grounding: GroundingDict | None = None


@dataclass
class VideoSample:
    id: str
    duration: float
    fps: float
    events: list[Event]
    schedule: FrameSchedule
    event_features: np.ndarray  # (5, D_vid)
    object_features: np.ndarray  # (T, M, D_obj) float32
    boxes: np.ndarray  # (T, M, 4) float64: x1, y1, x2, y2 pixels
    width: float  # frame size in pixels
    height: float
    annotation: SituationAnnotation

    @property
    def n_slots(self) -> int:
        return self.object_features.shape[1]


# -- schedule ----------------------------------------------------------------


def make_events(duration: float, boundaries: list[tuple[float, float]]) -> list[Event]:
    return [Event(i, float(s), float(e)) for i, (s, e) in enumerate(boundaries)]


def build_frame_schedule(duration_s: float, events: list[Event], fps: float = 1.0) -> FrameSchedule:
    """Frames at ``1/fps`` spacing plus the per-event frame sets.

    A frame belongs to event i when its timestamp lies inside the closed
    interval [start, end]; border frames are shared by adjacent events.
    """
    if fps <= 0:
        raise DatasetError(f"fps must be positive, got {fps}")
    if not events:
        raise DatasetError("no events")
    ordered = sorted(events, key=lambda e: e.start_s)
    if abs(ordered[0].start_s) > _TIME_EPS or abs(ordered[-1].end_s - duration_s) > _TIME_EPS:
        raise DatasetError("events do not span [0, duration]")
    for a, b in zip(ordered, ordered[1:]):
        if abs(a.end_s - b.start_s) > _TIME_EPS:
            raise DatasetError(f"events {a.index} and {b.index} overlap or leave a gap")
    for e in ordered:
        if e.end_s <= e.start_s:
            raise DatasetError(f"event {e.index} has non-positive duration")

    n = int(math.floor(duration_s * fps + _TIME_EPS)) + 1
    times = tuple(j / fps for j in range(n))
    per_event = []
    for e in events:
        frames = tuple(j for j, t in enumerate(times)
                       if e.start_s - _TIME_EPS <= t <= e.end_s + _TIME_EPS)
        if not frames:
            raise DatasetError(f"event {e.index} contains no frames at fps={fps}")
        per_event.append(frames)
    return FrameSchedule(frame_times=times, per_event_frames=tuple(per_event))


# -- vocabulary --------------------------------------------------------------


def normalize_caption(text: str) -> str:
    return " ".join(text.lower().split())


class Vocabulary:
    """Word-level token table with reserved pad/bos/eos/unk ids 0..3.

    Token ids are assigned deterministically: count descending, then
    lexicographic. Unknown words encode to UNK.
    """

    def __init__(self, tokens: list[str]):
        self.tokens = list(RESERVED_TOKENS) + list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, text: str) -> list[int]:
        return [self.index.get(w, UNK) for w in normalize_caption(text).split()]

    def decode(self, ids: list[int]) -> str:
        return " ".join(self.tokens[i] for i in ids)

    def decode_caption(self, ids: list[int]) -> str:
        """Decode dropping reserved ids (pad/bos/eos/unk stay out of text)."""
        return " ".join(self.tokens[i] for i in ids if i >= len(RESERVED_TOKENS))

    def to_dict(self) -> dict:
        return {"tokens": self.tokens[len(RESERVED_TOKENS):]}

    @classmethod
    def from_dict(cls, d: dict) -> "Vocabulary":
        return cls(tokens=list(d["tokens"]))


def build_vocabulary(corpus: list[str], min_count: int = 1) -> Vocabulary:
    if not corpus:
        raise DatasetError("empty caption corpus")
    counts: dict[str, int] = {}
    for caption in corpus:
        for w in normalize_caption(caption).split():
            counts[w] = counts.get(w, 0) + 1
    kept = [w for w, c in counts.items() if c >= min_count]
    kept.sort(key=lambda w: (-counts[w], w))
    return Vocabulary(kept)


def caption_corpus(samples: list[VideoSample]) -> list[str]:
    """All reference captions across a dataset, in deterministic order."""
    out = []
    for s in samples:
        for ev in s.annotation.events:
            for role in sorted(ev.roles):
                out.extend(ev.roles[role])
    return out


# -- dataset files -----------------------------------------------------------


def write_feature_file(path, array: np.ndarray):
    """JSON header line + raw little-endian float32 payload, row-major."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    header = {"dtype": "f32le", "shape": list(arr.shape), "order": "row-major"}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(arr.tobytes())


def read_feature_file(path, context: str = "") -> np.ndarray:
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DatasetError(f"{context}: bad feature header in {path}: {e}") from e
        if not isinstance(header, dict):
            raise DatasetError(f"{context}: feature header in {path} is not a JSON object")
        if header.get("dtype") != "f32le":
            raise DatasetError(f"{context}: unsupported dtype {header.get('dtype')!r} in {path}")
        try:
            shape = tuple(int(x) for x in header["shape"])
        except KeyError as e:
            raise DatasetError(f"{context}: feature header in {path} lacks {e}") from e
        except (TypeError, ValueError) as e:
            raise DatasetError(f"{context}: feature header in {path} has a malformed "
                               f"shape: {e}") from e
        payload = f.read()
    expected = int(np.prod(shape)) * 4
    if len(payload) != expected:
        raise DatasetError(
            f"{context}: payload length {len(payload)} != expected {expected} bytes in {path}"
        )
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float32)


def _annotation_from_dict(d: dict) -> SituationAnnotation:
    """Inverse of :func:`annotation_to_dict`; raises DatasetError naming a
    missing key or an unknown role."""
    if not isinstance(d, dict) or not isinstance(d.get("events"), list):
        raise DatasetError("lacks an 'events' list")
    events = []
    for i, ev in enumerate(d["events"]):
        missing = [key for key in ("verbs", "roles") if not isinstance(ev, dict) or key not in ev]
        if missing:
            raise DatasetError(f"event {i} lacks {', '.join(map(repr, missing))}")
        unknown = [name for name in ev["roles"] if name not in ROLE_IDS]
        if unknown:
            raise DatasetError(f"event {i} names unknown roles {unknown}")
        roles = {ROLE_IDS[name]: list(caps) for name, caps in ev["roles"].items()}
        events.append(EventAnnotation(verbs=list(ev["verbs"]), roles=roles))
    return SituationAnnotation(events=events)


def annotation_to_dict(ann: SituationAnnotation) -> dict:
    return {
        "events": [
            {"verbs": list(ev.verbs),
             "roles": {ROLES[r]: list(caps) for r, caps in sorted(ev.roles.items())}}
            for ev in ann.events
        ]
    }


_RECORD_KEYS = ("duration", "events", "event_features", "object_features", "boxes",
                "annotation")


def load_sample(record: dict, base_dir: str) -> VideoSample:
    """Build a VideoSample from one manifest record; raises DatasetError."""
    if not isinstance(record, dict):
        raise DatasetError(f"manifest record is not a JSON object: {record!r}")
    vid = record.get("id", "<missing id>")
    missing = [key for key in _RECORD_KEYS if key not in record]
    if missing:
        raise DatasetError(f"{vid}: manifest record lacks {', '.join(map(repr, missing))}")

    def path_of(key):
        p = record[key]
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    duration = float(record["duration"])
    fps = float(record.get("fps", 1.0))
    events = make_events(duration, [tuple(b) for b in record["events"]])
    schedule = build_frame_schedule(duration, events, fps)

    event_features = read_feature_file(path_of("event_features"), context=vid)
    object_features = read_feature_file(path_of("object_features"), context=vid)
    if object_features.ndim != 3:
        raise DatasetError(f"{vid}: object features must be (T, M, D), got {object_features.shape}")
    boxes_path = path_of("boxes")
    try:
        with open(boxes_path) as f:
            boxes_doc = json.load(f)
        width, height = float(boxes_doc["width"]), float(boxes_doc["height"])
        boxes = np.asarray(boxes_doc["boxes"], dtype=np.float64)
    except KeyError as e:
        raise DatasetError(f"{vid}: boxes file {boxes_path} lacks {e}") from e
    except (TypeError, ValueError) as e:
        raise DatasetError(f"{vid}: boxes file {boxes_path} is malformed: {e}") from e
    expected = object_features.shape[:2] + (4,)
    if boxes.shape != expected:
        raise DatasetError(f"{vid}: boxes in {boxes_path} have shape {boxes.shape}, "
                           f"the object features need {expected}")

    try:
        annotation = _annotation_from_dict(record["annotation"])
    except DatasetError as e:
        raise DatasetError(f"{vid}: manifest annotation {e}") from e
    if "grounding" in record and record["grounding"]:
        grounding_path = path_of("grounding")
        try:
            with open(grounding_path) as f:
                annotation.grounding = GroundingDict.from_dict(json.load(f))
        except (DatasetError, ValueError) as e:  # ValueError covers malformed JSON
            raise DatasetError(f"{vid}: grounding file {grounding_path}: {e}") from e

    return VideoSample(
        id=vid, duration=duration, fps=fps, events=events, schedule=schedule,
        event_features=event_features, object_features=object_features, boxes=boxes,
        width=width, height=height, annotation=annotation,
    )


def load_dataset(manifest_path, validate: bool = True,
                 lexicon: VerbLexicon | None = None) -> list[VideoSample]:
    """Load a JSONL manifest into validated samples (one JSON object per line).
    A record that cannot be read raises DatasetError naming its line."""
    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    samples = []
    with open(manifest_path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetError(f"{manifest_path}:{line_no}: malformed JSON: {e}") from e
            try:
                samples.append(load_sample(record, base_dir))
            except DatasetError as e:
                raise DatasetError(f"{manifest_path}:{line_no}: {e}") from e
    if validate:
        errors = dataset_errors(samples, lexicon)
        if errors:
            raise DatasetError("dataset validation failed:\n  " + "\n  ".join(errors))
    return samples


def dataset_errors(samples: list[VideoSample], lexicon: VerbLexicon | None = None) -> list[str]:
    """Every problem of a loaded dataset: each video's (see
    :func:`validate_sample`), then feature sizes that differ between videos."""
    errors = [e for s in samples for e in validate_sample(s, lexicon)]
    dims = {(s.event_features.shape[1], s.object_features.shape[2]) for s in samples}
    if len(dims) > 1:
        errors.append(f"inconsistent feature dimensions across dataset: {sorted(dims)}")
    return errors


def validate_sample(sample: VideoSample, lexicon: VerbLexicon | None = None) -> list[str]:
    """Check every sample invariant; returns an itemized error list (empty = ok)."""
    errs = []
    vid = sample.id
    if len(sample.events) != EVENTS_PER_VIDEO:
        errs.append(f"{vid}: expected {EVENTS_PER_VIDEO} events, got {len(sample.events)}")
    try:
        build_frame_schedule(sample.duration, sample.events, sample.fps)
    except DatasetError as e:
        errs.append(f"{vid}: {e}")

    if sample.event_features.shape[0] != len(sample.events):
        errs.append(f"{vid}: event feature rows {sample.event_features.shape[0]} != "
                    f"{len(sample.events)} events")

    n_frames, n_slots = sample.object_features.shape[:2]
    if n_frames != sample.schedule.n_frames:
        errs.append(f"{vid}: object features have {n_frames} frames, "
                    f"the schedule has {sample.schedule.n_frames}")
    x1, y1, x2, y2 = np.moveaxis(sample.boxes, -1, 0)
    ok = ((0 <= x1) & (x1 < x2) & (x2 <= sample.width)
          & (0 <= y1) & (y1 < y2) & (y2 <= sample.height))
    for t, m in np.argwhere(~ok):
        errs.append(f"{vid}: proposal {t * n_slots + m} (frame {t}, slot {m}) has malformed box "
                    f"{sample.boxes[t, m].tolist()} for frame size {sample.width}x{sample.height}")

    ann = sample.annotation
    if len(ann.events) != len(sample.events):
        errs.append(f"{vid}: annotation covers {len(ann.events)} events, video has {len(sample.events)}")
    for i, ev in enumerate(ann.events):
        if not ev.verbs:
            errs.append(f"{vid}: event {i} has no ground-truth verb")
            continue
        for role, caps in ev.roles.items():
            if not caps:
                errs.append(f"{vid}: event {i} role {ROLES[role]} has no reference caption")
        if lexicon is not None:
            for v in ev.verbs:
                if v not in lexicon.role_map:
                    errs.append(f"{vid}: event {i} annotates unknown verb id {v}")
            if ev.verbs[0] in lexicon.role_map:
                allowed = lexicon.role_map[ev.verbs[0]]
                extra = sorted(set(ev.roles) - allowed)
                if extra:
                    errs.append(f"{vid}: event {i} roles {[ROLES[r] for r in extra]} "
                                f"not in the role map of verb {lexicon.verbs[ev.verbs[0]]!r}")

    if ann.grounding is not None:
        for (i, role), frames in ann.grounding.entries.items():
            if not (0 <= i < len(sample.events)):
                errs.append(f"{vid}: grounding entry for unknown event {i}")
                continue
            if role not in VISUAL_ROLES:
                errs.append(f"{vid}: grounding annotated for non-visual role {ROLES[role]}")
            allowed = set(sample.schedule.frames_of_event(i))
            bad = sorted(set(frames) - allowed)
            if bad:
                errs.append(f"{vid}: grounding frames {bad} outside event {i}")
    return errs


def load_dataset_dir(data_dir, split: str = "train", validate: bool = True):
    """Convenience loader for a generated dataset directory.

    Returns (samples, lexicon). Expects manifest_<split>.jsonl and lexicon.json.
    """
    lexicon = VerbLexicon.load(os.path.join(data_dir, "lexicon.json"))
    manifest = os.path.join(data_dir, f"manifest_{split}.jsonl")
    if not os.path.exists(manifest):
        raise DatasetError(f"missing manifest {manifest}")
    samples = load_dataset(manifest, validate=validate, lexicon=lexicon)
    return samples, lexicon
