"""Evaluation suite: grounding IoU@theta, verb Acc@K and macro Recall@K,
per-role precision/recall/F1, consensus caption scores (plain and
macro-averaged by verb or role), and ROUGE-L.

Caption consensus follows the clipped TF-IDF n-gram formulation (n = 1..4,
gaussian length penalty with sigma = 6). Per-pair scores live on a 0..10
scale; the aggregate report multiplies by 10 so numbers read on the
conventional 0..100 scale.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .data_model import ROLES, VISUAL_ROLES, DatasetError, VideoSample, normalize_caption
from .srl import PredictionRecord

CIDER_N = 4
CIDER_SIGMA = 6.0
ROUGE_BETA = 1.2
ROLE_GROUNDING_THETA = 0.5  # the theta of the per-role grounding entries
NO_VERBS = (-1,) * 5  # the ranked verbs of an event without a prediction


# -- boxes and grounding ---------------------------------------------------


def box_iou(a, b) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    area_a = max(0.0, ax2 - ax1) * max(0.0, ay2 - ay1)
    area_b = max(0.0, bx2 - bx1) * max(0.0, by2 - by1)
    if area_a == 0.0 or area_b == 0.0:
        warnings.warn(f"degenerate box in IoU: {a} vs {b}")
        return 0.0
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (area_a + area_b - inter)


def _role_iou(pred, frames) -> float | None:
    """IoU of a predicted grounding with the annotated box at its frame, or
    None when there is no prediction or its frame is not a key of ``frames``
    (a miss at every theta)."""
    if pred is None or pred.frame not in frames:
        return None
    return box_iou(pred.box, frames[pred.frame])


def _hit_share(ious: list[tuple[int, float | None]], theta: float, denom: int) -> float:
    """Share of an event's annotated roles whose IoU is strictly above theta."""
    return sum(1.0 for _, iou in ious if iou is not None and iou > theta) / denom


def grounding_score(preds: dict[tuple[int, int], object], sample: VideoSample,
                    theta: float, roles_eval: tuple[int, ...] = VISUAL_ROLES,
                    strict: bool = False):
    """Per-event grounding scores for one video at theta.

    A role hits iff its predicted frame is a key of the annotation
    dictionary AND the predicted box overlaps the annotated box at that
    frame by strictly more than theta. Events average over their annotated
    evaluated roles (strict mode instead normalizes by all ground-truth
    roles of the event). Returns (per-event score list, skipped event
    count); events with no annotated evaluated role are excluded.
    """
    gdict = sample.annotation.grounding
    scores = []
    skipped = 0
    for i, ev in enumerate(sample.annotation.events):
        ious = []
        for k in sorted(ev.roles):
            frames = {} if gdict is None or k not in roles_eval else gdict.boxes_for(i, k)
            if frames:
                ious.append((k, _role_iou(preds.get((i, k)), frames)))
        if not ious:
            skipped += 1
            continue
        scores.append(_hit_share(ious, theta, len(ev.roles) if strict else len(ious)))
    return scores, skipped


# -- verb metrics ------------------------------------------------------------


def _topk(logits: np.ndarray, k: int) -> np.ndarray:
    # stable sort on negated logits: ties resolve to the lowest verb id
    return np.argsort(-logits, axis=1, kind="stable")[:, :k]


def _ranked_accuracy(ranked, gt_verb_sets: list[set[int]]) -> float:
    """Share of events with a ground-truth verb among their ranked verb ids."""
    hits = [not set(gt).isdisjoint(row) for row, gt in zip(ranked, gt_verb_sets)]
    return float(np.mean(hits))


def _ranked_recall(ranked, gt_verb_sets: list[set[int]]) -> float:
    """Macro-averaged per-class recall of the ranked verb ids over classes
    appearing in ground truth, counted in one pass over the events."""
    events, got = Counter(), Counter()
    for row, gt in zip(ranked, gt_verb_sets):
        for c in gt:
            events[c] += 1
            if c in row:
                got[c] += 1
    return float(np.mean([got[c] / events[c] for c in sorted(events)]))


def verb_accuracy_at_k(pred_logits: np.ndarray, gt_verb_sets: list[set[int]], k: int) -> float:
    """Event counts as correct iff any of its ground-truth verbs appears in
    the top-k predictions; mean over events."""
    return _ranked_accuracy(_topk(np.asarray(pred_logits), k), gt_verb_sets)


def verb_recall_at_k(pred_logits: np.ndarray, gt_verb_sets: list[set[int]], k: int) -> float:
    """Macro-averaged per-class recall over classes appearing in ground truth."""
    return _ranked_recall(_topk(np.asarray(pred_logits), k), gt_verb_sets)


def role_prf(pred_role_sets: list[set[int]], gt_role_sets: list[set[int]]):
    """Per-role precision/recall/F1 over events plus the macro-F1 (the
    unweighted mean of F1 over roles present in ground truth); the counts
    come from one pass over the events."""
    tp, fp, fn = Counter(), Counter(), Counter()
    for p, g in zip(pred_role_sets, gt_role_sets):
        for r in p:
            if r in g:
                tp[r] += 1
            else:
                fp[r] += 1
        for r in g:
            if r not in p:
                fn[r] += 1
    per_role = {}
    for r in range(len(ROLES)):
        prec = tp[r] / (tp[r] + fp[r]) if tp[r] + fp[r] else 0.0
        rec = tp[r] / (tp[r] + fn[r]) if tp[r] + fn[r] else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_role[r] = (prec, rec, f1)
    present = set().union(*gt_role_sets)
    macro = float(np.mean([per_role[r][2] for r in sorted(present)])) if present else 0.0
    return per_role, macro


# -- caption consensus (clipped TF-IDF n-gram cosine) -------------------------

Item = tuple[str, tuple[str, ...]]  # (candidate, references)


def _tokenize(items: list[Item]) -> dict[str, list[str]]:
    """The normalized tokens of each distinct caption of ``items``."""
    return {caption: normalize_caption(caption).split()
            for caption in dict.fromkeys(chain.from_iterable((cand, *refs)
                                                             for cand, refs in items))}


def _caption_ngrams(tokens: list[str]) -> list[dict[tuple[str, ...], int]]:
    """Counts of the n-grams of a token list for n = 1..CIDER_N, each in
    first-occurrence order."""
    out = []
    for n in range(1, CIDER_N + 1):
        counts: dict[tuple[str, ...], int] = {}
        for i in range(len(tokens) - n + 1):
            gram = tuple(tokens[i:i + n])
            counts[gram] = counts.get(gram, 0) + 1
        out.append(counts)
    return out


def _doc_freq(items: list[Item], ngrams: dict[str, list[dict]]) -> dict[tuple, int]:
    """Document frequency of every n-gram over the reference corpus, one
    document per item: each distinct reference set is read once and counts
    as many documents as the items that share it."""
    df: dict[tuple, int] = {}
    for refs, m in Counter(refs for _, refs in items).items():
        seen = set()
        for ref in refs:
            seen.update(*ngrams[ref])
        for g in seen:
            df[g] = df.get(g, 0) + m
    return df


def _tfidf(counts_by_n: list[dict], idf: dict[tuple, float]):
    vecs, norms = [], []
    for counts in counts_by_n:
        vec = {}
        sq = 0.0  # squares summed in n-gram order
        for g, c in counts.items():
            v = vec[g] = c * idf[g]
            sq += v * v
        vecs.append(vec)
        norms.append(math.sqrt(sq))
    return vecs, norms


def _similarity_row(cand, ref) -> list[float]:
    """Length-penalised clipped TF-IDF cosine of a candidate and a reference
    for each n-gram size; each side is a (token count, vecs, norms) triple."""
    (c_len, c_vecs, c_norms), (r_len, r_vecs, r_norms) = cand, ref
    penalty = math.exp(-((c_len - r_len) ** 2) / (2 * CIDER_SIGMA ** 2))
    row = []
    for c_vec, r_vec, c_norm, r_norm in zip(c_vecs, r_vecs, c_norms, r_norms):
        denom = c_norm * r_norm
        if denom > 0:
            num = sum(min(c_vec[g], r_vec[g]) * r_vec[g] for g in c_vec if g in r_vec)
            row.append(penalty * (num / denom))
        else:
            row.append(0.0)  # a zero norm scores 0 at this size
    return row


def _consensus_scores(items: list[Item], tokens: dict[str, list[str]]) -> dict[Item, float]:
    """The score of each distinct item of the corpus ``items``; ``tokens``
    maps every caption of ``items`` to its normalized tokens."""
    if len(items) < 2:
        raise ValueError("consensus scoring needs a corpus of at least 2 items")
    ngrams = {caption: _caption_ngrams(toks) for caption, toks in tokens.items()}
    df = _doc_freq(items, ngrams)
    log_n = math.log(len(items))
    idf = {g: log_n - math.log(max(1.0, df.get(g, 0)))
           for g in set().union(*chain.from_iterable(ngrams.values()))}
    vectors = {caption: (len(tokens[caption]), *_tfidf(counts, idf))
               for caption, counts in ngrams.items()}
    rows: dict[tuple[str, str], list[float]] = {}
    scores = {}
    for item in dict.fromkeys(items):
        cand, refs = item
        totals = [0.0] * CIDER_N
        for ref in refs:
            row = rows.get((cand, ref))
            if row is None:
                row = rows[cand, ref] = _similarity_row(vectors[cand], vectors[ref])
            totals = [t + x for t, x in zip(totals, row)]
        # sum() adds the n-gram sizes left to right, the order of numpy's
        # mean over a 4-vector, so each score is bit-equal to it
        scores[item] = sum(totals) / CIDER_N / len(refs) * 10.0
    return scores


def cider_scores(candidates: list[str], references: list[list[str]]) -> list[float]:
    """Per-item consensus scores on the 0..10 scale.

    For each n-gram size the candidate/reference similarity is the clipped
    TF-IDF dot product over the norm product (0 when either norm is 0),
    damped by a gaussian penalty on the length difference. Scores average
    over n-gram sizes and over references, then scale by 10.

    Within one call each distinct caption is tokenised, counted and
    weighted once, the document frequencies are counted once per distinct
    reference set (times the items that share it), the idf is computed
    once per n-gram, each distinct (candidate, reference) pair is compared
    once and each distinct (candidate, references) item is scored once;
    every score equals the per-item definition bit for bit.
    """
    if len(candidates) != len(references):
        raise ValueError("candidates and references must align")
    items = [(cand, tuple(refs)) for cand, refs in zip(candidates, references)]
    scores = _consensus_scores(items, _tokenize(items))
    return [scores[item] for item in items]


def cider(candidates: list[str], references: list[list[str]]) -> float:
    """Corpus mean of per-item consensus scores (0..10 scale)."""
    return float(np.mean(cider_scores(candidates, references)))


def cider_grouped(candidates: list[str], references: list[list[str]],
                  group_keys: list) -> float:
    """Macro-average of per-group consensus over groups with at least one
    pair; document frequencies come from the full corpus."""
    if len(group_keys) != len(candidates):
        raise ValueError("group_keys must align with candidates")
    return _group_mean(cider_scores(candidates, references), group_keys)


def _group_mean(scores: list[float], group_keys: list) -> float:
    """Mean over groups of the mean per-item score inside each group."""
    groups: dict[object, list[float]] = {}
    for score, key in zip(scores, group_keys):
        groups.setdefault(key, []).append(score)
    return float(np.mean([float(np.mean(groups[key])) for key in sorted(groups)]))


def _lcs_len(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        row = [0]
        for j, y in enumerate(b):
            row.append(prev[j] + 1 if x == y else max(prev[j + 1], row[j]))
        prev = row
    return prev[-1]


def _rouge_l(cand: list[str], references: list[list[str]], beta: float) -> float:
    best = 0.0
    for ref in references:
        if not cand or not ref:
            continue
        lcs = _lcs_len(cand, ref)
        if lcs == 0:
            continue
        p = lcs / len(cand)
        r = lcs / len(ref)
        f = (1 + beta ** 2) * p * r / (r + beta ** 2 * p)
        best = max(best, f)
    return best


def rouge_l(candidate: str, references: list[str], beta: float = ROUGE_BETA) -> float:
    """Longest-common-subsequence F-measure, max over references."""
    return _rouge_l(normalize_caption(candidate).split(),
                    [normalize_caption(ref).split() for ref in references], beta)


# -- aggregate report ----------------------------------------------------------


@dataclass
class EvalReport:
    verb: dict[str, float]
    srl: dict[str, float]
    grounding: dict[str, float]
    roles: dict[str, object]

    def to_dict(self) -> dict:
        return {"verb": self.verb, "srl": self.srl,
                "grounding": self.grounding, "roles": self.roles}

    def table(self) -> str:
        lines = ["metric                 value", "-" * 30]
        for section in ("verb", "srl", "grounding"):
            for k, v in getattr(self, section).items():
                lines.append(f"{section + '/' + k:<22} {v:.4f}")
        lines.append(f"{'roles/macro_f1':<22} {self.roles['macro_f1']:.4f}")
        for name, (p, r, f1) in self.roles["per_role"].items():
            lines.append(f"{'roles/' + name:<22} P={p:.2f} R={r:.2f} F1={f1:.2f}")
        return "\n".join(lines)


def _records_by_event(records: list[PredictionRecord], sample: VideoSample) -> dict:
    """A video's records keyed by event; an event outside the video's
    events, or named twice, raises DatasetError naming the video."""
    n_events = len(sample.annotation.events)
    by_event = {}
    for rec in records:
        if not 0 <= rec.event < n_events:
            raise DatasetError(f"predictions for video {sample.id!r} name event {rec.event}; "
                               f"it has events 0..{n_events - 1}")
        if rec.event in by_event:
            raise DatasetError(f"predictions for video {sample.id!r} name event {rec.event} twice")
        by_event[rec.event] = rec
    return by_event


def evaluate(predictions: list[list[PredictionRecord]], samples: list[VideoSample],
             thetas: tuple[float, ...] = (0.3, 0.5),
             strict_grounding: bool = False) -> EvalReport:
    """Full report over aligned predictions and ground truth.

    Captions are scored over (event, role) pairs for roles present in the
    ground truth; a missing prediction contributes an empty caption.
    Grounding is averaged over annotated events at each theta; at theta
    0.5 it is also reported per visual role, as the share of that role's
    annotated (event, role) instances that hit (``iou@0.5/Arg0``, ...,
    present only for a role with at least one annotated instance).

    One pass over each video's events collects the caption items, the
    ranked verbs, the role sets and, for each annotated visual role, its
    IoU, which is computed once and thresholded at every theta. Each
    distinct caption is tokenised once for CIDEr and ROUGE-L alike, and
    each distinct item is scored once (see :func:`cider_scores`). The
    report is bit-equal to scoring every item and theta separately.

    Raises DatasetError when there are no prediction records, or naming the
    video when a prediction list names a video that is not among
    ``samples``, two lists name the same video, or a record names an event
    outside its video's events or one that another record names too.
    """
    if not any(predictions):
        raise DatasetError("no predictions to evaluate")
    by_id = {s.id: s for s in samples}
    seen: set[str] = set()

    gt_sets: list[set[int]] = []
    pred_rows: list[tuple[int, ...]] = []
    pred_role_sets: list[set[int]] = []
    gt_role_sets: list[set[int]] = []
    items: list[Item] = []
    verb_groups: list[int] = []
    role_groups: list[int] = []
    annotated: list[tuple[int, list[tuple[int, float | None]]]] = []  # (denominator, IoUs)
    skipped = 0

    for records in predictions:
        if not records:
            continue
        video_id = records[0].video_id
        sample = by_id.get(video_id)
        if sample is None:
            raise DatasetError(f"predictions name video {video_id!r}, which is not among "
                               f"the {len(samples)} videos evaluated")
        if video_id in seen:
            raise DatasetError(f"predictions name video {video_id!r} twice")
        seen.add(video_id)
        by_event = _records_by_event(records, sample)
        gdict = sample.annotation.grounding

        for i, ev in enumerate(sample.annotation.events):
            rec = by_event.get(i)
            rec_roles = {} if rec is None else {rp.role: rp for rp in rec.roles}
            gt_sets.append(set(ev.verbs))
            pred_rows.append(NO_VERBS if rec is None else tuple(rec.top5_verbs))
            pred_role_sets.append(set(rec_roles))
            gt_role_sets.append(set(ev.roles))
            ious = []
            for k in sorted(ev.roles):
                rp = rec_roles.get(k)
                items.append(("" if rp is None else rp.caption, tuple(ev.roles[k])))
                verb_groups.append(ev.primary_verb)
                role_groups.append(k)
                frames = {} if gdict is None or k not in VISUAL_ROLES else gdict.boxes_for(i, k)
                if frames:
                    ious.append((k, _role_iou(None if rp is None else rp.grounding, frames)))
            if ious:
                annotated.append((len(ev.roles) if strict_grounding else len(ious), ious))
            else:
                skipped += 1

    acc1 = _ranked_accuracy([row[:1] for row in pred_rows], gt_sets)
    acc5 = _ranked_accuracy(pred_rows, gt_sets)
    rec5 = _ranked_recall(pred_rows, gt_sets)

    tokens = _tokenize(items)
    by_item = _consensus_scores(items, tokens)  # scored once, grouped twice
    scores = [by_item[item] for item in items]
    rouge = {item: _rouge_l(tokens[item[0]], [tokens[ref] for ref in item[1]], ROUGE_BETA)
             for item in by_item}
    srl = {
        "cider": float(np.mean(scores)) * 10.0,
        "cider_vb": _group_mean(scores, verb_groups) * 10.0,
        "cider_arg": _group_mean(scores, role_groups) * 10.0,
        "rouge_l": float(np.mean([rouge[item] for item in items])),
    }
    grounding = {}
    for theta in thetas:
        vals = [_hit_share(ious, theta, denom) for denom, ious in annotated]
        grounding[f"iou@{theta}"] = float(np.mean(vals)) if vals else 0.0
    if ROLE_GROUNDING_THETA in thetas:
        role_hits: dict[int, list[bool]] = {}
        for _, ious in annotated:
            for k, iou in ious:
                role_hits.setdefault(k, []).append(iou is not None and iou > ROLE_GROUNDING_THETA)
        for k in sorted(role_hits):
            grounding[f"iou@{ROLE_GROUNDING_THETA}/{ROLES[k]}"] = float(np.mean(role_hits[k]))
    per_role, macro = role_prf(pred_role_sets, gt_role_sets)
    report = EvalReport(
        verb={"acc@1": acc1, "acc@5": acc5, "recall@5": rec5},
        srl=srl,
        grounding=grounding,
        roles={
            "per_role": {ROLES[r]: per_role[r] for r in sorted(per_role)},
            "macro_f1": macro,
            "skipped_grounding_events": skipped,
        },
    )
    for section in (report.verb, report.srl, report.grounding):
        for k, v in section.items():
            if not np.isfinite(v):
                raise ValueError(f"non-finite metric {k}: {v}")
    return report
