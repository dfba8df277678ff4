"""Acceptance criteria 3, 4 and 6 over several init seeds, and criterion 2 over
several sampling seeds.

Criterion 4's margin is one event flip, so a change to the numerics can move
these gates by itself. For each init seed given (the ``seed`` key of
``configs/overfit_synth.cfg``, which seeds initialisation and shuffling), this
script trains the overfit config on the acceptance suite's 50 training videos
and prints one row:

- criterion 3: verb acc@1, role macro-F1 and exact caption match on the
  training videos (gates 0.95, 0.90, 0.90);
- criterion 4: IoU@0.5 on the 20 held-out videos, gt-roles (gate 0.80),
  then the same IoU per visual role (Arg0, Arg1, Arg2; "-" when the role has
  no annotated instance), which the gate does not read;
- criterion 6: held-out CIDEr, gt-roles against pred-pred (gate: not lower).

With ``--json FILE`` it also writes these rows as JSON, together with
criterion 2's float32 and float64 readings at sampling seeds 15, 16 and 17
(gates 1e-3 and 1e-5). Criterion 2 runs on its own micro model, whose init
seed (14) does not follow the sweep's, so the file holds those readings once.

The suite, config and metric helpers are the acceptance tests' own; the
criterion-2 micro model mirrors ``test_criterion_2_gradient_fidelity``. This
is a script, not a test, and it moves no gate: each seed trains for a few
minutes on one core. Usage:

    python3 tools/seed_sweep.py 7 8 9 10 11 [--json SWEEP.json]
"""

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import exact_caption_match_rate  # noqa: E402
from test_acceptance import OVERFIT_CONFIG, SUITE  # noqa: E402
from vidsrl import diffmath as dm  # noqa: E402
from vidsrl.data_model import build_vocabulary, caption_corpus  # noqa: E402
from vidsrl.metrics import evaluate  # noqa: E402
from vidsrl.srl import SituationModel  # noqa: E402
from vidsrl.synth import SynthConfig, generate  # noqa: E402
from vidsrl.training import (  # noqa: E402
    TrainConfig, compile_sample, load_config, model_config_for, train, video_loss,
)

ROW = ("{:>4}  {:>5} {:>5} {:>5} {:<4}  {:>5} {:<4} {:>5} {:>5} {:>5}  {:>6} {:>6} {:<4}"
       "  {:>4}")
GROUNDED = ("Arg0", "Arg1", "Arg2")
GRADIENT_SEEDS = (15, 16, 17)


def sweep_entry(suite, cfg) -> dict:
    """Criteria 3, 4 and 6 and per-role IoU@0.5 of one init seed."""
    with tempfile.TemporaryDirectory() as out:
        t0 = time.time()
        model = train(suite.train, suite.lexicon, cfg, out).model
        minutes = (time.time() - t0) / 60

    def report(samples, regime):
        return evaluate([model.predict_situation(s, regime=regime) for s in samples], samples)

    train_pp = report(suite.train, "pred-pred")
    acc1, f1 = float(train_pp.verb["acc@1"]), float(train_pp.roles["macro_f1"])
    em = float(exact_caption_match_rate(model, suite.train))
    val_gt, val_pp = report(suite.val, "gt-roles"), report(suite.val, "pred-pred")
    iou = float(val_gt.grounding["iou@0.5"])
    cider_gt, cider_pp = float(val_gt.srl["cider"]), float(val_pp.srl["cider"])
    per_role = {role: val_gt.grounding.get(f"iou@0.5/{role}") for role in GROUNDED}
    per_role = {role: None if v is None else float(v) for role, v in per_role.items()}
    return {
        "seed": cfg.seed,
        "criterion_3": {"acc@1": acc1, "macro_f1": f1, "exact_match": em,
                        "pass": acc1 >= 0.95 and f1 >= 0.90 and em >= 0.90},
        "criterion_4": {"iou@0.5": iou, "pass": iou >= 0.80},
        "iou@0.5_per_role": per_role,
        "criterion_6": {"cider_gt_roles": cider_gt, "cider_pred_pred": cider_pp,
                        "pass": cider_gt >= cider_pp},
        "train_minutes": minutes,
    }


def sweep_row(entry: dict) -> str:
    c3, c4, c6 = entry["criterion_3"], entry["criterion_4"], entry["criterion_6"]

    def mark(ok):
        return "pass" if ok else "FAIL"

    return ROW.format(entry["seed"], f"{c3['acc@1']:.3f}", f"{c3['macro_f1']:.3f}",
                      f"{c3['exact_match']:.3f}", mark(c3["pass"]),
                      f"{c4['iou@0.5']:.3f}", mark(c4["pass"]),
                      *("-" if v is None else f"{v:.2f}"
                        for v in entry["iou@0.5_per_role"].values()),
                      f"{c6['cider_gt_roles']:.2f}", f"{c6['cider_pred_pred']:.2f}",
                      mark(c6["pass"]), f"{entry['train_minutes']:.1f}")


def criterion_2_readings() -> dict:
    """Criterion 2's float32 (eps 1e-2) and float64 (eps 1e-4) relative errors
    on its micro model, at each sampling seed of ``GRADIENT_SEEDS``."""
    result = generate(SynthConfig(n_videos=1, n_verbs=3, vocab_size=8, d_vid=8, d_obj=8,
                                  n_slots=2, fps=0.5, seed=13))
    sample = result.train[0]
    vocab = build_vocabulary(caption_corpus([sample]), 1)
    tc = TrainConfig(d_model=8, n_heads=2, n_layers=1, dropout=0.0)
    cfg = model_config_for(tc, [sample], result.lexicon, vocab)
    model = SituationModel(cfg, result.lexicon, vocab, np.random.default_rng(14))
    compiled = compile_sample(sample, vocab, cfg)
    readings = {"float32": {}, "float64": {}}
    for seed in GRADIENT_SEEDS:
        for key, eps, wide in (("float32", 1e-2, False), ("float64", 1e-4, True)):
            readings[key][str(seed)] = float(dm.gradient_check(
                lambda: video_loss(model, compiled, tc)[0], model.parameters(), eps=eps,
                samples=200, rng=np.random.default_rng(seed), float64=wide))
    return readings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="init seeds to train")
    parser.add_argument("--json", metavar="FILE",
                        help="also write the rows and criterion 2's readings to FILE")
    args = parser.parse_args(argv)
    suite = generate(SUITE)
    base = load_config(os.path.join(ROOT, OVERFIT_CONFIG))
    print(ROW.format("seed", "acc@1", "mF1", "exact", "c3", "IoU", "c4", *GROUNDED,
                     "gt", "pp", "c6", "min"), flush=True)
    entries = []
    for seed in args.seeds:
        entries.append(sweep_entry(suite, replace(base, seed=seed)))
        print(sweep_row(entries[-1]), flush=True)
    if args.json:
        grad = criterion_2_readings()
        for key in grad:
            print(f"criterion 2 {key} at sampling seeds {', '.join(grad[key])}: "
                  + " / ".join(f"{v:.2e}" for v in grad[key].values()), flush=True)
        grad.update(model_init_seed=14, gates={"float32": 1e-3, "float64": 1e-5})
        doc = {"config": OVERFIT_CONFIG, "init_seeds": entries, "criterion_2": grad}
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
