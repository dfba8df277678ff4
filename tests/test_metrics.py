"""Metric tests: every scoring function against an independently written
brute-force oracle, plus the worked arithmetic examples."""

import math
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsrl.data_model import ROLE_IDS, ROLES, VISUAL_ROLES, DatasetError, normalize_caption
from vidsrl.metrics import (
    EvalReport, box_iou, cider, cider_grouped, cider_scores, evaluate,
    grounding_score, role_prf, rouge_l, verb_accuracy_at_k, verb_recall_at_k,
)
from vidsrl.srl import GroundingPrediction, RolePrediction
from vidsrl.synth import SynthConfig, generate, oracle_predict


# -- box IoU ---------------------------------------------------------------


def test_iou_identical():
    assert box_iou((2, 3, 10, 12), (2, 3, 10, 12)) == pytest.approx(1.0)


def test_iou_disjoint():
    assert box_iou((0, 0, 5, 5), (10, 10, 20, 20)) == 0.0


def test_iou_one_third_example():
    # 50 intersection / 150 union by direct area arithmetic
    assert box_iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1 / 3, abs=1e-9)


def test_iou_degenerate_box_warns():
    with pytest.warns(UserWarning, match="degenerate"):
        assert box_iou((0, 0, 0, 10), (0, 0, 5, 5)) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.floats(0, 50) for _ in range(4)]),
       st.tuples(*[st.floats(0, 50) for _ in range(4)]))
def test_iou_symmetric_and_bounded(a, b):
    ax1, ay1, aw, ah = a
    bx1, by1, bw, bh = b
    box_a = (ax1, ay1, ax1 + aw + 1, ay1 + ah + 1)
    box_b = (bx1, by1, bx1 + bw + 1, by1 + bh + 1)
    iou = box_iou(box_a, box_b)
    assert 0.0 <= iou <= 1.0 + 1e-12
    assert iou == pytest.approx(box_iou(box_b, box_a))
    if iou == pytest.approx(1.0, abs=1e-12):
        assert box_a == pytest.approx(box_b)


# -- grounding score ----------------------------------------------------------


@pytest.fixture(scope="module")
def grounded_setup():
    result = generate(SynthConfig(n_videos=0, n_val=3, n_verbs=6, vocab_size=20,
                                  d_vid=8, d_obj=8, n_slots=5, seed=31))
    return result


def test_grounding_exact_match_scores_one(grounded_setup):
    sample = grounded_setup.val[0]
    preds = {}
    recs = oracle_predict(sample, grounded_setup.secrets)
    for rec in recs:
        for rp in rec.roles:
            preds[(rec.event, rp.role)] = rp.grounding
    scores, skipped = grounding_score(preds, sample, theta=0.5)
    assert scores and all(s == 1.0 for s in scores)


def test_grounding_wrong_frame_gates_to_zero(grounded_setup):
    sample = grounded_setup.val[0]
    recs = oracle_predict(sample, grounded_setup.secrets)
    preds = {}
    for rec in recs:
        for rp in rec.roles:
            g = rp.grounding
            # right box, but a frame that is not a key of the annotation dict
            wrong = type(g)(slot=g.slot, frame=g.frame + 1, box=g.box, score=g.score)
            preds[(rec.event, rp.role)] = wrong
    scores, _ = grounding_score(preds, sample, theta=0.1)
    assert all(s == 0.0 for s in scores)


def test_grounding_half_score_two_roles():
    # plug the two-term formula directly: one role passes, one misses
    from vidsrl.data_model import GroundingDict
    from vidsrl.srl import GroundingPrediction
    result = generate(SynthConfig(n_videos=1, n_verbs=2, vocab_size=16, d_vid=8,
                                  d_obj=8, n_slots=4, seed=32))
    sample = result.train[0]
    ev = sample.annotation.events[0]
    ev.roles = {0: ["a thing"], 1: ["other thing"]}
    for i in range(1, 5):
        sample.annotation.events[i].roles = {}
    sample.annotation.grounding = GroundingDict(entries={
        (0, 0): {1: (0.0, 0.0, 30.0, 30.0)},
        (0, 1): {1: (100.0, 100.0, 130.0, 130.0)},
    })
    preds = {
        # IoU 1/3 > theta 0.3 is false at theta=1/3... use strictly-greater check:
        (0, 0): GroundingPrediction(0, 1, (0.0, 0.0, 30.0, 30.0), 1.0),   # IoU 1.0 passes
        (0, 1): GroundingPrediction(1, 1, (200.0, 200.0, 230.0, 230.0), 1.0),  # disjoint
    }
    scores, skipped = grounding_score(preds, sample, theta=0.3)
    assert scores == [0.5]
    assert skipped == 4  # events without annotated roles leave the denominator


def test_grounding_strict_greater_than_theta():
    from vidsrl.data_model import GroundingDict
    from vidsrl.srl import GroundingPrediction
    result = generate(SynthConfig(n_videos=1, n_verbs=2, vocab_size=16, d_vid=8,
                                  d_obj=8, n_slots=4, seed=33))
    sample = result.train[0]
    sample.annotation.events[0].roles = {0: ["a thing"]}
    for i in range(1, 5):
        sample.annotation.events[i].roles = {}
    sample.annotation.grounding = GroundingDict(entries={(0, 0): {1: (0, 0, 10, 10)}})
    pred = {(0, 0): GroundingPrediction(0, 1, (5.0, 0.0, 15.0, 10.0), 1.0)}  # IoU = 1/3
    exactly, _ = grounding_score(pred, sample, theta=1 / 3)
    below, _ = grounding_score(pred, sample, theta=0.33)
    assert exactly == [0.0]  # overlap must be strictly greater than theta
    assert below == [1.0]


def test_grounding_monotone_in_theta(grounded_setup):
    sample = grounded_setup.val[1]
    recs = oracle_predict(sample, grounded_setup.secrets)
    preds = {(rec.event, rp.role): rp.grounding for rec in recs for rp in rec.roles}
    # jitter one box so some IoU lands strictly between the thresholds
    key = next(iter(preds))
    g = preds[key]
    x1, y1, x2, y2 = g.box
    preds[key] = type(g)(g.slot, g.frame, (x1 + (x2 - x1) * 0.35, y1, x2, y2), 1.0)
    lo, _ = grounding_score(preds, sample, theta=0.3)
    hi, _ = grounding_score(preds, sample, theta=0.5)
    assert np.mean(hi) <= np.mean(lo)


def test_grounding_strict_mode_normalizes_by_all_roles(grounded_setup):
    sample = grounded_setup.val[2]
    recs = oracle_predict(sample, grounded_setup.secrets)
    preds = {(rec.event, rp.role): rp.grounding for rec in recs for rp in rec.roles}
    loose, _ = grounding_score(preds, sample, theta=0.5, strict=False)
    strict, _ = grounding_score(preds, sample, theta=0.5, strict=True)
    assert all(s <= l for s, l in zip(strict, loose))
    gdict = sample.annotation.grounding
    kept = [ev for i, ev in enumerate(sample.annotation.events)
            if any(gdict.boxes_for(i, k) for k in ev.roles)]
    # perfect predictions: strict score = annotated roles / all GT roles per event
    for s_val, ev in zip(strict, kept):
        annotated = sum(1 for k in ev.roles if k in (0, 1, 2))
        assert s_val == pytest.approx(annotated / len(ev.roles))


# -- verb metrics -----------------------------------------------------------------


def test_verb_accuracy_top1():
    logits = np.array([[0.1, 5.0, 0.2], [3.0, 0.0, 0.0]])
    assert verb_accuracy_at_k(logits, [{1}, {2}], 1) == 0.5


def test_verb_accuracy_set_match_at_5():
    logits = np.zeros((1, 10))
    logits[0, [9, 8, 7, 6, 5]] = [5, 4, 3, 2, 1]
    assert verb_accuracy_at_k(logits, [{5, 1, 0}], 5) == 1.0
    assert verb_accuracy_at_k(logits, [{1, 0}], 5) == 0.0


def test_verb_accuracy_matches_enumeration_oracle():
    g = np.random.default_rng(40)
    logits = g.normal(size=(100, 12))
    gt = [set(g.choice(12, size=g.integers(1, 4), replace=False).tolist()) for _ in range(100)]
    for k in (1, 3, 5):
        # brute-force oracle: sort each row, intersect explicitly
        correct = 0
        for i in range(100):
            order = sorted(range(12), key=lambda c: (-logits[i, c], c))
            if set(order[:k]) & gt[i]:
                correct += 1
        assert verb_accuracy_at_k(logits, gt, k) == pytest.approx(correct / 100)
    accs = [verb_accuracy_at_k(logits, gt, k) for k in (1, 2, 3, 5, 8)]
    assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))  # monotone in k


def test_verb_recall_perfect_and_missing_class():
    logits = np.array([[9.0, 0, 0], [0, 9.0, 0], [9.0, 0, 0]])
    gt = [{0}, {1}, {0}]
    assert verb_recall_at_k(logits, gt, 1) == pytest.approx(1.0)
    gt = [{0}, {2}, {0}]  # class 2 never retrieved at k=1
    assert verb_recall_at_k(logits, gt, 1) == pytest.approx(0.5)


def test_verb_recall_hand_tally():
    logits = np.array([
        [3.0, 2.0, 1.0, 0.0, -1.0],
        [0.0, 3.0, 2.0, 1.0, -1.0],
        [1.0, 0.0, 3.0, 2.0, -1.0],
        [2.0, 1.0, 0.0, 3.0, -1.0],
    ])
    gt = [{0, 1}, {1}, {4}, {3, 4}]
    # classes present: 0, 1, 3, 4; at k=2: c0 hit 1/1, c1 hit 2/2, c3 hit 1/1, c4 0/2
    assert verb_recall_at_k(logits, gt, 2) == pytest.approx((1 + 1 + 1 + 0) / 4)


# -- role P/R/F1 ------------------------------------------------------------------


def test_role_prf_perfect():
    sets = [{0, 1}, {2}, {0, 5}]
    per_role, macro = role_prf(sets, sets)
    assert macro == pytest.approx(1.0)
    for r in (0, 1, 2, 5):
        assert per_role[r] == (1.0, 1.0, 1.0)


def test_role_prf_never_predicted():
    per_role, macro = role_prf([set(), set()], [{3}, {3}])
    assert per_role[3] == (0.0, 0.0, 0.0)
    assert macro == 0.0


def test_role_prf_matches_confusion_oracle():
    g = np.random.default_rng(41)
    pred = [set(g.choice(11, size=g.integers(0, 5), replace=False).tolist()) for _ in range(20)]
    gt = [set(g.choice(11, size=g.integers(1, 5), replace=False).tolist()) for _ in range(20)]
    per_role, macro = role_prf(pred, gt)
    f1s = []
    for r in range(11):
        tp = fp = fn = 0
        for p, t in zip(pred, gt):
            tp += (r in p) and (r in t)
            fp += (r in p) and (r not in t)
            fn += (r not in p) and (r in t)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert per_role[r] == pytest.approx((prec, rec, f1))
        if any(r in t for t in gt):
            f1s.append(f1)
    assert macro == pytest.approx(np.mean(f1s))


# -- caption consensus --------------------------------------------------------------


def test_cider_zero_without_overlap():
    scores = cider_scores(["red dog", "blue cat"], [["green bird"], ["tall tree"]])
    assert scores[0] == 0.0 and scores[1] == 0.0


def test_cider_identical_long_reference_scores_ten():
    # item A: candidate == its single 4-word reference; no overlap with item B
    cands = ["a very red robot", "small dog"]
    refs = [["a very red robot"], ["small dog"]]
    scores = cider_scores(cands, refs)
    assert scores[0] == pytest.approx(10.0, abs=1e-9)


def _cider_oracle(cands, refs_list):
    """Independent brute-force implementation of the clipped consensus metric."""
    def grams(toks, n):
        return Counter(tuple(toks[i:i + n]) for i in range(len(toks) - n + 1))

    N = len(cands)
    df = Counter()
    for refs in refs_list:
        seen = set()
        for ref in refs:
            toks = ref.lower().split()
            for n in (1, 2, 3, 4):
                for gkey in grams(toks, n):
                    seen.add(gkey)
        for gkey in seen:
            df[gkey] += 1

    out = []
    for cand, refs in zip(cands, refs_list):
        ctoks = cand.lower().split()
        item = 0.0
        for ref in refs:
            rtoks = ref.lower().split()
            pen = math.exp(-((len(ctoks) - len(rtoks)) ** 2) / 72.0)
            for n in (1, 2, 3, 4):
                cg, rg = grams(ctoks, n), grams(rtoks, n)
                cv = {g: c * (math.log(N) - math.log(max(1, df[g]))) for g, c in cg.items()}
                rv = {g: c * (math.log(N) - math.log(max(1, df[g]))) for g, c in rg.items()}
                num = sum(min(cv[g], rv[g]) * rv[g] for g in cv if g in rv)
                den = math.sqrt(sum(v * v for v in cv.values())) * \
                    math.sqrt(sum(v * v for v in rv.values()))
                item += pen * (num / den if den > 0 else 0.0)
        out.append(item / (4 * len(refs)) * 10.0)
    return out


def test_cider_matches_brute_force_oracle():
    cands = [
        "red robot walks home",
        "the blue cat",
        "a very tall tree stands",
        "small dog",
        "red robot",
    ]
    refs = [
        ["red robot walks home", "a red robot walking"],
        ["blue cat sits"],
        ["a very tall tree stands"],
        ["small dog runs", "the small dog"],
        ["blue cat sits"],
    ]
    ours = cider_scores(cands, refs)
    oracle = _cider_oracle(cands, refs)
    np.testing.assert_allclose(ours, oracle, atol=1e-6)
    assert cider(cands, refs) == pytest.approx(np.mean(oracle), abs=1e-6)


def oracle_cider_scores(candidates, references):
    """The per-item definition: document frequencies over each item's
    references, then every (candidate, reference) pair weighted and compared
    afresh, with the same operations in the same order as ``cider_scores``."""
    def grams(toks, n):
        return Counter(tuple(toks[i:i + n]) for i in range(len(toks) - n + 1))

    def tfidf(toks):
        vecs, norms = [], []
        for n in range(1, 5):
            vec = {g: c * (log_n - math.log(max(1.0, df[g]))) for g, c in grams(toks, n).items()}
            vecs.append(vec)
            norms.append(math.sqrt(sum(v * v for v in vec.values())))
        return vecs, norms

    df = Counter()
    for refs in references:
        seen = set()
        for ref in refs:
            toks = normalize_caption(ref).split()
            for n in range(1, 5):
                seen.update(grams(toks, n).keys())
        df.update(seen)
    log_n = math.log(len(candidates))
    out = []
    for cand, refs in zip(candidates, references):
        cand_toks = normalize_caption(cand).split()
        c_vecs, c_norms = tfidf(cand_toks)
        total = np.zeros(4)
        for ref in refs:
            ref_toks = normalize_caption(ref).split()
            r_vecs, r_norms = tfidf(ref_toks)
            penalty = math.exp(-((len(cand_toks) - len(ref_toks)) ** 2) / (2 * 6.0 ** 2))
            for n in range(4):
                num = sum(min(c_vecs[n][g], r_vecs[n][g]) * r_vecs[n][g]
                          for g in c_vecs[n] if g in r_vecs[n])
                denom = c_norms[n] * r_norms[n]
                total[n] += penalty * (num / denom if denom > 0 else 0.0)
        out.append(float(total.mean() / len(refs) * 10.0))
    return out


def oracle_rouge_l(candidate, references, beta=1.2):
    """ROUGE-L with the LCS from a full integer DP table, per reference."""
    cand = normalize_caption(candidate).split()
    best = 0.0
    for ref in references:
        ref_toks = normalize_caption(ref).split()
        if not cand or not ref_toks:
            continue
        dp = np.zeros((len(cand) + 1, len(ref_toks) + 1), dtype=np.int64)
        for i in range(1, len(cand) + 1):
            for j in range(1, len(ref_toks) + 1):
                if cand[i - 1] == ref_toks[j - 1]:
                    dp[i, j] = dp[i - 1, j - 1] + 1
                else:
                    dp[i, j] = max(dp[i - 1, j], dp[i, j - 1])
        lcs = int(dp[-1, -1])
        if lcs == 0:
            continue
        p, r = lcs / len(cand), lcs / len(ref_toks)
        best = max(best, (1 + beta ** 2) * p * r / (r + beta ** 2 * p))
    return best


def oracle_role_grounding_hits(preds, sample, theta):
    """Per event, a (role, hit) pair for each annotated visual role, with the
    IoU computed afresh for this theta."""
    gdict = sample.annotation.grounding
    per_event = []
    for i, ev in enumerate(sample.annotation.events):
        hits = []
        for k in sorted(ev.roles):
            frames = {} if gdict is None or k not in VISUAL_ROLES else gdict.boxes_for(i, k)
            if frames:
                pred = preds.get((i, k))
                hits.append((k, pred is not None and pred.frame in frames
                             and box_iou(pred.box, frames[pred.frame]) > theta))
        per_event.append(hits)
    return per_event


def oracle_evaluate(predictions, samples, thetas=(0.3, 0.5), strict_grounding=False):
    """The report built item by item and theta by theta: every IoU is
    recomputed at each theta, role counts are taken role by role, verb
    recall class by class over numpy rows, and captions are scored by the
    per-item oracles, with the operations of ``evaluate`` in its order."""
    by_id = {s.id: s for s in samples}
    gt_sets, pred_rows, pred_role_sets, gt_role_sets = [], [], [], []
    cands, refs, verb_groups, role_groups = [], [], [], []
    grounding_lists = {t: [] for t in thetas}
    role_hits = {}
    skipped = 0
    for records in predictions:
        if not records:
            continue
        sample = by_id[records[0].video_id]
        by_event = {r.event: r for r in records}
        preds_ik = {(rec.event, rp.role): rp.grounding for rec in records for rp in rec.roles}
        for i, ev in enumerate(sample.annotation.events):
            rec = by_event.get(i)
            gt_sets.append(set(ev.verbs))
            pred_rows.append(np.full(5, -1, dtype=np.int64) if rec is None
                             else np.asarray(rec.top5_verbs))
            rec_roles = {} if rec is None else {rp.role: rp for rp in rec.roles}
            pred_role_sets.append(set(rec_roles))
            gt_role_sets.append(set(ev.roles))
            for k in sorted(ev.roles):
                cands.append(rec_roles[k].caption if k in rec_roles else "")
                refs.append(ev.roles[k])
                verb_groups.append(ev.primary_verb)
                role_groups.append(k)
        sk = 0
        for theta in thetas:
            hits = oracle_role_grounding_hits(preds_ik, sample, theta)
            sk = 0
            for ev, event_hits in zip(sample.annotation.events, hits):
                if not event_hits:
                    sk += 1
                    continue
                denom = len(ev.roles) if strict_grounding else len(event_hits)
                grounding_lists[theta].append(sum(1.0 for _, hit in event_hits if hit) / denom)
            if theta == 0.5:
                for event_hits in hits:
                    for k, hit in event_hits:
                        role_hits.setdefault(k, []).append(hit)
        skipped += sk

    def accuracy(rows):
        return float(np.mean([bool(set(row.tolist()) & set(gt))
                              for row, gt in zip(rows, gt_sets)]))

    recalls = []
    for c in sorted(set().union(*gt_sets)):
        events = [i for i, g in enumerate(gt_sets) if c in g]
        recalls.append(sum(1 for i in events if c in pred_rows[i]) / len(events))

    def group_mean(scores, keys):
        groups = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        return float(np.mean([float(np.mean([scores[i] for i in groups[key]]))
                              for key in sorted(groups)]))

    scores = oracle_cider_scores(cands, refs)
    per_role = {}
    for r in range(len(ROLES)):
        pairs = list(zip(pred_role_sets, gt_role_sets))
        tp = sum(1 for p, g in pairs if r in p and r in g)
        fp = sum(1 for p, g in pairs if r in p and r not in g)
        fn = sum(1 for p, g in pairs if r not in p and r in g)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        per_role[r] = (prec, rec, 2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    present = sorted(set().union(*gt_role_sets))
    grounding = {f"iou@{theta}": float(np.mean(vals)) if vals else 0.0
                 for theta, vals in grounding_lists.items()}
    for k in sorted(role_hits):
        grounding[f"iou@0.5/{ROLES[k]}"] = float(np.mean(role_hits[k]))
    return {
        "verb": {"acc@1": accuracy([row[:1] for row in pred_rows]),
                 "acc@5": accuracy(pred_rows), "recall@5": float(np.mean(recalls))},
        "srl": {"cider": float(np.mean(scores)) * 10.0,
                "cider_vb": group_mean(scores, verb_groups) * 10.0,
                "cider_arg": group_mean(scores, role_groups) * 10.0,
                "rouge_l": float(np.mean([oracle_rouge_l(c, r) for c, r in zip(cands, refs)]))},
        "grounding": grounding,
        "roles": {"per_role": {ROLES[r]: per_role[r] for r in sorted(per_role)},
                  "macro_f1": (float(np.mean([per_role[r][2] for r in present]))
                               if present else 0.0),
                  "skipped_grounding_events": skipped},
    }


def test_scores_on_repeated_captions_equal_the_per_item_oracles_bit_for_bit():
    # candidates repeat (also ""), references repeat across items, items
    # repeat whole, and item 0's two references include a candidate of items 0 and 2
    cands = ["red robot walks home", "", "Red robot  walks home", "the blue cat", "",
             "blue cat sits", "the blue cat", "a red robot walking"]
    refs = [["red robot walks home", "a red robot walking"], ["blue cat sits"],
            ["a red robot walking"], ["blue cat sits", "the blue cat"], ["blue cat sits"],
            ["small dog"], ["blue cat sits", "the blue cat"], ["a red robot walking"]]
    assert cider_scores(cands, refs) == oracle_cider_scores(cands, refs)
    assert [rouge_l(c, r) for c, r in zip(cands, refs)] == \
        [oracle_rouge_l(c, r) for c, r in zip(cands, refs)]


def test_cider_invariant_to_corpus_order():
    cands = ["red robot", "blue cat", "tall tree"]
    refs = [["red robot"], ["blue cat here"], ["a tall tree"]]
    base = cider_scores(cands, refs)
    perm = [2, 0, 1]
    shuffled = cider_scores([cands[i] for i in perm], [refs[i] for i in perm])
    np.testing.assert_allclose([shuffled[perm.index(i)] for i in range(3)], base, atol=1e-12)


def test_cider_needs_corpus():
    with pytest.raises(ValueError, match="at least 2"):
        cider(["one"], [["one"]])


def test_cider_grouped_single_group_equals_plain():
    cands = ["red robot", "blue cat", "tall tree"]
    refs = [["red robot"], ["blue cat"], ["tall tree"]]
    assert cider_grouped(cands, refs, ["v"] * 3) == pytest.approx(cider(cands, refs))


def test_cider_grouped_macro_average():
    cands = ["a very red robot", "zzz qqq"]
    refs = [["a very red robot"], ["blue cat"]]
    # group A scores 10, group B scores 0 -> macro 5
    assert cider_grouped(cands, refs, ["A", "B"]) == pytest.approx(5.0, abs=1e-9)


def test_cider_grouped_matches_per_group_oracle():
    cands = ["red robot", "robot red", "blue cat", "cat blue", "tall tree", "tree rock"]
    refs = [["red robot"], ["red robot"], ["blue cat"], ["blue cat"],
            ["tall tree"], ["tall tree"]]
    keys = ["v0", "v0", "v1", "v1", "v2", "v2"]
    scores = cider_scores(cands, refs)
    expected = np.mean([np.mean(scores[0:2]), np.mean(scores[2:4]), np.mean(scores[4:6])])
    assert cider_grouped(cands, refs, keys) == pytest.approx(expected, abs=1e-12)


# -- ROUGE-L -------------------------------------------------------------------------


def test_rouge_identical():
    assert rouge_l("the cat sat", ["the cat sat"]) == pytest.approx(1.0)


def test_rouge_disjoint():
    assert rouge_l("red robot", ["blue cat"]) == 0.0


def test_rouge_lcs_example():
    # LCS("the cat sat", "the cat ran") = 2 -> P = R = 2/3 -> F = 2/3
    assert rouge_l("the cat sat", ["the cat ran"]) == pytest.approx(2 / 3, abs=1e-6)


def test_rouge_max_over_references():
    val = rouge_l("the cat sat", ["blue dog", "the cat sat"])
    assert val == pytest.approx(1.0)


def test_rouge_matches_dp_oracle():
    def lcs_oracle(a, b):
        best = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a)):
            for j in range(len(b)):
                best[i + 1][j + 1] = (best[i][j] + 1 if a[i] == b[j]
                                      else max(best[i][j + 1], best[i + 1][j]))
        return best[len(a)][len(b)]

    cand, ref = "a red robot walks to the door", "the red robot walked to a door"
    lcs = lcs_oracle(cand.split(), ref.split())
    p, r = lcs / 7, lcs / 7
    beta = 1.2
    expected = (1 + beta ** 2) * p * r / (r + beta ** 2 * p)
    assert rouge_l(cand, [ref]) == pytest.approx(expected, abs=1e-9)


# -- aggregate report ----------------------------------------------------------------


def test_evaluate_oracle_predictions_max_scores():
    result = generate(SynthConfig(n_videos=0, n_val=4, n_verbs=6, vocab_size=20,
                                  d_vid=8, d_obj=8, n_slots=5, seed=34))
    # lengthen every caption to 4+ words so all n-gram levels are populated
    for s in result.val:
        for i, ev in enumerate(s.annotation.events):
            for role in ev.roles:
                plant = result.secrets.entities[s.id][i][role]
                long_cap = f"one two {plant.attr} {plant.noun}"
                ev.roles[role] = [long_cap]
                plant.caption = long_cap
    preds = [oracle_predict(s, result.secrets) for s in result.val]
    report = evaluate(preds, result.val)
    assert report.verb["acc@1"] == 1.0
    assert report.verb["acc@5"] == 1.0
    assert report.verb["recall@5"] == 1.0
    assert report.srl["cider"] == pytest.approx(100.0, abs=1e-6)
    assert report.srl["rouge_l"] == pytest.approx(1.0)
    assert report.grounding["iou@0.3"] == 1.0
    assert report.grounding["iou@0.5"] == 1.0
    assert report.roles["macro_f1"] == pytest.approx(1.0)
    assert "roles/macro_f1" in report.table()


def test_per_role_grounding_is_the_hit_share_of_each_annotated_role():
    result = generate(SynthConfig(n_videos=0, n_val=6, n_verbs=6, vocab_size=20,
                                  d_vid=8, d_obj=8, n_slots=5, seed=36))
    preds = [oracle_predict(s, result.secrets) for s in result.val]
    counts = Counter(k for s in result.val for i, ev in enumerate(s.annotation.events)
                     for k in ev.roles
                     if k in VISUAL_ROLES and s.annotation.grounding.boxes_for(i, k))
    per_role = {key: v for key, v in evaluate(preds, result.val).grounding.items()
                if key.startswith("iou@0.5/")}
    assert len(counts) > 1
    assert per_role == {f"iou@0.5/{ROLES[k]}": 1.0 for k in counts}
    # one Arg0 box moved off its frame: that role alone loses one hit
    arg0 = next(rp for rec in preds[0] for rp in rec.roles if rp.role == ROLE_IDS["Arg0"])
    arg0.grounding = replace(arg0.grounding, frame=-1)
    report = evaluate(preds, result.val)
    assert report.grounding["iou@0.5/Arg0"] == pytest.approx(1 - 1 / counts[ROLE_IDS["Arg0"]])
    assert all(v == 1.0 for key, v in report.grounding.items()
               if key.startswith("iou@0.5/") and key != "iou@0.5/Arg0")


def caption_items(preds, samples):
    """Candidates, references, primary verbs and roles of every scored
    (event, role) item, in the order ``evaluate`` scores them."""
    cands, refs, verbs, role_keys = [], [], [], []
    for recs, sample in zip(preds, samples):
        by_event = {rec.event: {rp.role: rp.caption for rp in rec.roles} for rec in recs}
        for i, ev in enumerate(sample.annotation.events):
            for k in sorted(ev.roles):
                cands.append(by_event.get(i, {}).get(k, ""))
                refs.append(ev.roles[k])
                verbs.append(ev.primary_verb)
                role_keys.append(k)
    return cands, refs, verbs, role_keys


def test_evaluate_caption_scores_equal_a_report_built_from_the_per_item_oracles():
    result = generate(SynthConfig(n_videos=0, n_val=6, n_verbs=6, vocab_size=20,
                                  d_vid=8, d_obj=8, n_slots=5, seed=36))
    preds = [oracle_predict(s, result.secrets) for s in result.val]
    role_preds = [rp for recs in preds for rec in recs for rp in rec.roles]
    shared = role_preds[0].caption
    for j, rp in enumerate(role_preds[1:]):  # repeated and empty candidates
        rp.caption = ("", shared, rp.caption)[j % 3]
    preds[1][0].roles = preds[1][0].roles[1:]  # a missing prediction scores ""
    gt_roles = [ev.roles for s in result.val for ev in s.annotation.events]
    for j, roles in enumerate(gt_roles[::2]):  # references repeated across items
        k = min(roles)
        roles[k] = [shared, roles[k][0]] if j % 2 else [shared]

    cands, refs, verbs, role_keys = caption_items(preds, result.val)
    assert len(set(cands)) < len(cands) and "" in cands
    scores = oracle_cider_scores(cands, refs)

    def group_mean(keys):
        groups = {}
        for score, key in zip(scores, keys):
            groups.setdefault(key, []).append(score)
        return float(np.mean([float(np.mean(groups[key])) for key in sorted(groups)]))

    srl = {"cider": float(np.mean(scores)) * 10.0, "cider_vb": group_mean(verbs) * 10.0,
           "cider_arg": group_mean(role_keys) * 10.0,
           "rouge_l": float(np.mean([oracle_rouge_l(c, r) for c, r in zip(cands, refs)]))}
    report = evaluate(preds, result.val).to_dict()
    assert 0.0 < srl["cider"] and report["srl"] == srl


def awkward_predictions():
    """Oracle predictions and ground truth made awkward on purpose: a missing
    event, missing and extra roles, empty, partly right and lengthened
    captions, wrong verbs, boxes moved to land between the thetas, a
    degenerate predicted box, reference sets repeated across items and one
    two-reference item."""
    result = generate(SynthConfig(n_videos=0, n_val=8, n_verbs=6, vocab_size=20,
                                  d_vid=8, d_obj=8, n_slots=5, seed=37))
    samples = result.val
    preds = [oracle_predict(s, result.secrets) for s in samples]
    del preds[0][1]  # event 1 of video 0 has no prediction
    preds[1][0].roles = preds[1][0].roles[1:]  # its first role is missing
    spare = next(r for r in range(len(ROLES)) if r not in samples[2].annotation.events[0].roles)
    preds[2][0].roles.append(RolePrediction(spare, "the extra thing", GroundingPrediction(
        0, 0, (0.0, 0.0, 10.0, 10.0), 0.5)))
    role_preds = [rp for recs in preds for rec in recs for rp in rec.roles]
    captions = [rp.caption for rp in role_preds]
    for j, rp in enumerate(role_preds):
        if j % 5 == 1:
            rp.caption = ""
        elif j % 5 == 2:  # another role's caption: overlaps in some n-grams only
            rp.caption = captions[(j * 7) % len(captions)]
        elif j % 5 == 3:
            rp.caption = "the " + captions[j].split()[-1]
        elif j % 5 == 4:  # the reference and one more word: overlaps at every n
            rp.caption = captions[j] + " again"
        g = rp.grounding
        x1, y1, x2, y2 = g.box
        shift = (0.0, 0.2, 0.45, 0.7)[j % 4] * (x2 - x1)  # IoU 1, ~0.67, ~0.38, ~0.18
        rp.grounding = replace(g, box=(x1 + shift, y1, x2 + shift, y2))
    degenerate = next(rp for rp in role_preds if rp.role in VISUAL_ROLES and rp.caption)
    x1, y1, _, y2 = degenerate.grounding.box
    degenerate.grounding = replace(degenerate.grounding, box=(x1, y1, x1, y2))
    for j, rec in enumerate(rec for recs in preds for rec in recs):
        if j % 3 == 1:
            rec.top5_verbs = rec.top5_verbs[1:] + rec.top5_verbs[:1]  # right verb at rank 5
        elif j % 3 == 2:
            rec.top5_verbs = [v for v in range(6) if v not in rec.top5_verbs[:1]][:5]
    events = [ev for s in samples for ev in s.annotation.events]
    shared = events[0].roles[min(events[0].roles)]
    for ev in events[3::4]:  # the same reference list in several items
        ev.roles[min(ev.roles)] = shared
    ev = events[5]
    ev.roles[max(ev.roles)] = [captions[0], ev.roles[max(ev.roles)][0]]
    return preds, samples


@pytest.mark.parametrize("case, kwargs", [
    ("oracle", {}), ("awkward", {}), ("awkward", {"strict_grounding": True}),
    ("awkward", {"thetas": (0.3,)}),
])
def test_evaluate_report_equals_the_per_item_per_theta_oracle(grounded_setup, case, kwargs):
    if case == "oracle":
        samples = grounded_setup.val
        preds = [oracle_predict(s, grounded_setup.secrets) for s in samples]
        warns = nullcontext()
    else:
        preds, samples = awkward_predictions()
        warns = pytest.warns(UserWarning, match="degenerate")
    with warns:
        report = evaluate(preds, samples, **kwargs).to_dict()
        expected = oracle_evaluate(preds, samples, **kwargs)
    assert report == expected
    # a score off by an ulp can vanish in the report's means, so compare items too
    cands, refs, _, _ = caption_items(preds, samples)
    assert cider_scores(cands, refs) == oracle_cider_scores(cands, refs)
    per_role = [key for key in report["grounding"] if "/" in key]
    assert bool(per_role) == (0.5 in kwargs.get("thetas", (0.5,)))
    if case == "awkward":
        assert 0 < report["grounding"]["iou@0.3"] < 1 and 0 < report["verb"]["acc@1"] < 1
        assert 0 < report["srl"]["cider"] < 100 and 0 < report["srl"]["rouge_l"] < 1
    if case == "awkward" and not kwargs:
        assert report["grounding"]["iou@0.5"] < report["grounding"]["iou@0.3"]


def test_evaluate_names_the_video_of_a_bad_prediction_list(grounded_setup):
    samples = grounded_setup.val
    preds = [oracle_predict(s, grounded_setup.secrets) for s in samples]
    vid, n_events = samples[1].id, len(samples[1].annotation.events)
    with pytest.raises(DatasetError, match="no predictions"):
        evaluate([[], []], samples)
    with pytest.raises(DatasetError, match="video 'nope', which is not among the 3 videos"):
        evaluate(preds + [[replace(rec, video_id="nope") for rec in preds[0]]], samples)
    with pytest.raises(DatasetError, match=f"video '{vid}' twice"):
        evaluate(preds + [preds[1]], samples)
    for event in (n_events, -1):
        with pytest.raises(DatasetError, match=f"video '{vid}' name event {event}; "
                                               f"it has events 0..{n_events - 1}"):
            evaluate([preds[0], preds[1] + [replace(preds[1][0], event=event)]], samples)
    with pytest.raises(DatasetError, match=f"video '{vid}' name event 0 twice"):
        evaluate([preds[0], preds[1] + [preds[1][0]]], samples)


def test_evaluate_rejects_empty_predictions():
    result = generate(SynthConfig(n_videos=0, n_val=2, n_verbs=4, vocab_size=16,
                                  d_vid=8, d_obj=8, n_slots=4, seed=35))
    with pytest.raises(ValueError, match="no predictions"):
        evaluate([], result.val)
    with pytest.raises(ValueError, match="no predictions"):
        evaluate([[], []], result.val)


def test_evaluate_all_fields_finite_on_synthetic(grounded_setup):
    preds = [oracle_predict(s, grounded_setup.secrets) for s in grounded_setup.val]
    report = evaluate(preds, grounded_setup.val)
    doc = report.to_dict()
    for section in ("verb", "srl", "grounding"):
        for v in doc[section].values():
            assert np.isfinite(v)
    assert 0 <= report.verb["acc@1"] <= 1
    assert 0 <= report.grounding["iou@0.5"] <= 1
