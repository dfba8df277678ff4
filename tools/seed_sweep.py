"""Acceptance criteria 3, 4 and 6 over several init seeds.

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

The suite, config and metric helpers are the acceptance tests' own. This is a
script, not a test: each seed trains for a few minutes on one core. Usage:

    python3 tools/seed_sweep.py 7 8 9 10 11
"""

import argparse
import os
import sys
import tempfile
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import exact_caption_match_rate  # noqa: E402
from test_acceptance import OVERFIT_CONFIG, SUITE  # noqa: E402
from vidsrl.metrics import evaluate  # noqa: E402
from vidsrl.synth import generate  # noqa: E402
from vidsrl.training import load_config, train  # noqa: E402

ROW = ("{:>4}  {:>5} {:>5} {:>5} {:<4}  {:>5} {:<4} {:>5} {:>5} {:>5}  {:>6} {:>6} {:<4}"
       "  {:>4}")
GROUNDED = ("Arg0", "Arg1", "Arg2")


def sweep_row(suite, cfg) -> str:
    with tempfile.TemporaryDirectory() as out:
        t0 = time.time()
        model = train(suite.train, suite.lexicon, cfg, out).model
        minutes = (time.time() - t0) / 60

    def report(samples, regime):
        return evaluate([model.predict_situation(s, regime=regime) for s in samples], samples)

    train_pp = report(suite.train, "pred-pred")
    acc1, f1 = train_pp.verb["acc@1"], train_pp.roles["macro_f1"]
    em = exact_caption_match_rate(model, suite.train)
    val_gt, val_pp = report(suite.val, "gt-roles"), report(suite.val, "pred-pred")
    iou = val_gt.grounding["iou@0.5"]
    per_role = [val_gt.grounding.get(f"iou@0.5/{role}") for role in GROUNDED]
    cider_gt, cider_pp = val_gt.srl["cider"], val_pp.srl["cider"]

    def mark(ok):
        return "pass" if ok else "FAIL"

    return ROW.format(cfg.seed, f"{acc1:.3f}", f"{f1:.3f}", f"{em:.3f}",
                      mark(acc1 >= 0.95 and f1 >= 0.90 and em >= 0.90),
                      f"{iou:.3f}", mark(iou >= 0.80),
                      *("-" if v is None else f"{v:.2f}" for v in per_role),
                      f"{cider_gt:.2f}", f"{cider_pp:.2f}", mark(cider_gt >= cider_pp),
                      f"{minutes:.1f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="init seeds to train")
    args = parser.parse_args(argv)
    suite = generate(SUITE)
    base = load_config(os.path.join(ROOT, OVERFIT_CONFIG))
    print(ROW.format("seed", "acc@1", "mF1", "exact", "c3", "IoU", "c4", *GROUNDED,
                     "gt", "pp", "c6", "min"), flush=True)
    for seed in args.seeds:
        print(sweep_row(suite, replace(base, seed=seed)), flush=True)


if __name__ == "__main__":
    main()
