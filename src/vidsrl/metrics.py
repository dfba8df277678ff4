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

from .data_model import ROLES, VISUAL_ROLES, VideoSample, normalize_caption
from .srl import PredictionRecord

CIDER_N = 4
CIDER_SIGMA = 6.0
ROUGE_BETA = 1.2
ROLE_GROUNDING_THETA = 0.5  # the theta of the per-role grounding entries


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


def role_grounding_hits(preds: dict[tuple[int, int], object], sample: VideoSample,
                        theta: float, roles_eval: tuple[int, ...] = VISUAL_ROLES):
    """Per event of one video, a (role, hit) pair for each evaluated role
    that has an annotation, in role order.

    A role hits iff its predicted frame is a key of the annotation
    dictionary AND the predicted box overlaps the annotated box at that
    frame by strictly more than theta.
    """
    gdict = sample.annotation.grounding
    per_event = []
    for i, ev in enumerate(sample.annotation.events):
        hits = []
        for k in sorted(ev.roles):
            frames = {} if gdict is None or k not in roles_eval else gdict.boxes_for(i, k)
            if frames:
                pred = preds.get((i, k))
                hits.append((k, pred is not None and pred.frame in frames
                             and box_iou(pred.box, frames[pred.frame]) > theta))
        per_event.append(hits)
    return per_event


def event_grounding_scores(events, per_event_hits, strict: bool = False):
    """Per-event grounding scores from :func:`role_grounding_hits`.

    Events average over their annotated evaluated roles (strict mode instead
    normalizes by all ground-truth roles of the event). Returns (per-event
    score list, skipped event count); events with no annotated evaluated
    role are excluded.
    """
    scores = []
    skipped = 0
    for ev, hits in zip(events, per_event_hits):
        if not hits:
            skipped += 1
            continue
        denom = len(ev.roles) if strict else len(hits)
        scores.append(sum(1.0 for _, hit in hits if hit) / denom)
    return scores, skipped


def grounding_score(preds: dict[tuple[int, int], object], sample: VideoSample,
                    theta: float, roles_eval: tuple[int, ...] = VISUAL_ROLES,
                    strict: bool = False):
    """Per-event grounding scores for one video at theta; see
    :func:`role_grounding_hits` and :func:`event_grounding_scores`."""
    return event_grounding_scores(sample.annotation.events,
                                  role_grounding_hits(preds, sample, theta, roles_eval), strict)


# -- verb metrics ------------------------------------------------------------


def _topk(logits: np.ndarray, k: int) -> np.ndarray:
    # stable sort on negated logits: ties resolve to the lowest verb id
    return np.argsort(-logits, axis=1, kind="stable")[:, :k]


def _ranked_accuracy(ranked, gt_verb_sets: list[set[int]]) -> float:
    """Share of events with a ground-truth verb among their ranked verb ids."""
    hits = [bool(set(row.tolist()) & set(gt)) for row, gt in zip(ranked, gt_verb_sets)]
    return float(np.mean(hits))


def _ranked_recall(ranked, gt_verb_sets: list[set[int]]) -> float:
    """Macro-averaged per-class recall of the ranked verb ids over classes
    appearing in ground truth."""
    classes = sorted(set().union(*[set(g) for g in gt_verb_sets]))
    recalls = []
    for c in classes:
        events = [i for i, g in enumerate(gt_verb_sets) if c in g]
        got = sum(1 for i in events if c in ranked[i])
        recalls.append(got / len(events))
    return float(np.mean(recalls))


def verb_accuracy_at_k(pred_logits: np.ndarray, gt_verb_sets: list[set[int]], k: int) -> float:
    """Event counts as correct iff any of its ground-truth verbs appears in
    the top-k predictions; mean over events."""
    return _ranked_accuracy(_topk(np.asarray(pred_logits), k), gt_verb_sets)


def verb_recall_at_k(pred_logits: np.ndarray, gt_verb_sets: list[set[int]], k: int) -> float:
    """Macro-averaged per-class recall over classes appearing in ground truth."""
    return _ranked_recall(_topk(np.asarray(pred_logits), k), gt_verb_sets)


def role_prf(pred_role_sets: list[set[int]], gt_role_sets: list[set[int]]):
    """Per-role precision/recall/F1 over events plus the macro-F1 (the
    unweighted mean of F1 over roles present in ground truth)."""
    per_role = {}
    present = set().union(*[set(g) for g in gt_role_sets]) if gt_role_sets else set()
    for r in range(len(ROLES)):
        tp = sum(1 for p, g in zip(pred_role_sets, gt_role_sets) if r in p and r in g)
        fp = sum(1 for p, g in zip(pred_role_sets, gt_role_sets) if r in p and r not in g)
        fn = sum(1 for p, g in zip(pred_role_sets, gt_role_sets) if r not in p and r in g)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_role[r] = (prec, rec, f1)
    macro = float(np.mean([per_role[r][2] for r in sorted(present)])) if present else 0.0
    return per_role, macro


# -- caption consensus (clipped TF-IDF n-gram cosine) -------------------------


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _caption_ngrams(caption: str) -> tuple[int, list[Counter]]:
    """Token count and n-gram counts (n = 1..CIDER_N) of a normalized caption."""
    toks = normalize_caption(caption).split()
    return len(toks), [_ngram_counts(toks, n) for n in range(1, CIDER_N + 1)]


def _doc_freq(references: list[list[str]], ngrams: dict[str, tuple[int, list[Counter]]]):
    """Document frequency of every n-gram over the reference corpus, one
    document per item; ``ngrams`` maps each reference to its
    :func:`_caption_ngrams`."""
    df = Counter()
    for refs in references:
        seen = set()
        for ref in refs:
            for counts in ngrams[ref][1]:
                seen.update(counts.keys())
        df.update(seen)
    return df


def _tfidf(counts_by_n: list[Counter], df: Counter, log_n: float):
    vecs, norms = [], []
    for counts in counts_by_n:
        vec = {g: c * (log_n - math.log(max(1.0, df[g]))) for g, c in counts.items()}
        vecs.append(vec)
        norms.append(math.sqrt(sum(v * v for v in vec.values())))
    return vecs, norms


def _similarity_row(cand, ref) -> list[float]:
    """Length-penalised clipped TF-IDF cosine of a candidate and a reference
    for each n-gram size; each side is a (token count, vecs, norms) triple."""
    (c_len, c_vecs, c_norms), (r_len, r_vecs, r_norms) = cand, ref
    penalty = math.exp(-((c_len - r_len) ** 2) / (2 * CIDER_SIGMA ** 2))
    row = []
    for n in range(CIDER_N):
        num = sum(min(c_vecs[n][g], r_vecs[n][g]) * r_vecs[n][g]
                  for g in c_vecs[n] if g in r_vecs[n])
        denom = c_norms[n] * r_norms[n]
        row.append(penalty * (num / denom if denom > 0 else 0.0))
    return row


def cider_scores(candidates: list[str], references: list[list[str]]) -> list[float]:
    """Per-item consensus scores on the 0..10 scale.

    For each n-gram size the candidate/reference similarity is the clipped
    TF-IDF dot product over the norm product (0 when either norm is 0),
    damped by a gaussian penalty on the length difference. Scores average
    over n-gram sizes and over references, then scale by 10.

    Within one call each distinct caption is tokenised and weighted once,
    each distinct (candidate, reference) pair compared once and each
    distinct (candidate, references) item scored once; every score equals
    the per-item definition bit for bit.
    """
    if len(candidates) != len(references):
        raise ValueError("candidates and references must align")
    if len(candidates) < 2:
        raise ValueError("consensus scoring needs a corpus of at least 2 items")
    ngrams = {caption: _caption_ngrams(caption)
              for caption in dict.fromkeys(chain(candidates, chain.from_iterable(references)))}
    df = _doc_freq(references, ngrams)
    log_n = math.log(len(candidates))
    vectors = {caption: (n_tokens, *_tfidf(counts, df, log_n))
               for caption, (n_tokens, counts) in ngrams.items()}
    rows: dict[tuple[str, str], list[float]] = {}
    items: dict[tuple[str, tuple[str, ...]], float] = {}
    out = []
    for cand, refs in zip(candidates, references):
        item = (cand, tuple(refs))
        if item not in items:
            total = np.zeros(CIDER_N)
            for ref in refs:
                if (cand, ref) not in rows:
                    rows[cand, ref] = _similarity_row(vectors[cand], vectors[ref])
                total += rows[cand, ref]
            items[item] = float(total.mean() / len(refs) * 10.0)
        out.append(items[item])
    return out


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
    groups: dict[object, list[int]] = {}
    for i, key in enumerate(group_keys):
        groups.setdefault(key, []).append(i)
    means = [float(np.mean([scores[i] for i in groups[key]])) for key in sorted(groups)]
    return float(np.mean(means))


def _lcs_len(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        row = [0]
        for j, y in enumerate(b):
            row.append(prev[j] + 1 if x == y else max(prev[j + 1], row[j]))
        prev = row
    return prev[-1]


def rouge_l(candidate: str, references: list[str], beta: float = ROUGE_BETA) -> float:
    """Longest-common-subsequence F-measure, max over references."""
    cand = normalize_caption(candidate).split()
    best = 0.0
    for ref in references:
        ref_toks = normalize_caption(ref).split()
        if not cand or not ref_toks:
            continue
        lcs = _lcs_len(cand, ref_toks)
        if lcs == 0:
            continue
        p = lcs / len(cand)
        r = lcs / len(ref_toks)
        f = (1 + beta ** 2) * p * r / (r + beta ** 2 * p)
        best = max(best, f)
    return best


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
    """
    if not predictions or all(not recs for recs in predictions):
        raise ValueError("no predictions to evaluate")
    by_id = {s.id: s for s in samples}

    gt_sets: list[set[int]] = []
    pred_rows = []
    pred_role_sets: list[set[int]] = []
    gt_role_sets: list[set[int]] = []
    candidates: list[str] = []
    references: list[list[str]] = []
    verb_groups: list[int] = []
    role_groups: list[int] = []
    grounding_lists: dict[float, list[float]] = {t: [] for t in thetas}
    role_hits: dict[int, list[bool]] = {}
    skipped = 0

    for records in predictions:
        if not records:
            continue
        sample = by_id.get(records[0].video_id)
        if sample is None:
            raise ValueError(f"predictions reference unknown video {records[0].video_id!r}")
        by_event = {r.event: r for r in records}
        preds_ik = {}
        for rec in records:
            for rp in rec.roles:
                preds_ik[(rec.event, rp.role)] = rp.grounding

        for i, ev in enumerate(sample.annotation.events):
            rec = by_event.get(i)
            gt_sets.append(set(ev.verbs))
            row = np.full(5, -1, dtype=np.int64) if rec is None else np.asarray(rec.top5_verbs)
            pred_rows.append(row)
            rec_roles = {} if rec is None else {rp.role: rp for rp in rec.roles}
            pred_role_sets.append(set(rec_roles))
            gt_role_sets.append(set(ev.roles))
            for k in sorted(ev.roles):
                cand = rec_roles[k].caption if k in rec_roles else ""
                refs = ev.roles[k]
                candidates.append(cand)
                references.append(refs)
                verb_groups.append(ev.primary_verb)
                role_groups.append(k)

        sk = 0
        for theta in thetas:
            hits = role_grounding_hits(preds_ik, sample, theta)
            scores, sk = event_grounding_scores(sample.annotation.events, hits,
                                                strict=strict_grounding)
            grounding_lists[theta].extend(scores)
            if theta == ROLE_GROUNDING_THETA:
                for event_hits in hits:
                    for k, hit in event_hits:
                        role_hits.setdefault(k, []).append(hit)
        skipped += sk  # skip count is theta-independent

    acc1 = _ranked_accuracy([row[:1] for row in pred_rows], gt_sets)
    acc5 = _ranked_accuracy(pred_rows, gt_sets)
    rec5 = _ranked_recall(pred_rows, gt_sets)

    scores = cider_scores(candidates, references)  # scored once, grouped twice
    items = list(zip(candidates, map(tuple, references)))  # ROUGE-L once per distinct item
    rouge = {item: rouge_l(*item) for item in dict.fromkeys(items)}
    srl = {
        "cider": float(np.mean(scores)) * 10.0,
        "cider_vb": _group_mean(scores, verb_groups) * 10.0,
        "cider_arg": _group_mean(scores, role_groups) * 10.0,
        "rouge_l": float(np.mean([rouge[item] for item in items])),
    }
    grounding = {
        f"iou@{theta}": (float(np.mean(vals)) if vals else 0.0)
        for theta, vals in grounding_lists.items()
    }
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
