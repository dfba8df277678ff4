"""In-process A/B timer: training, prediction, evaluation and set-up speed of two vidsrl checkouts.

Separate benchmark runs of one commit spread by about +-15% on a small,
shared machine, which hides a gain of that size. This script imports
``src/vidsrl`` of two checkouts into one process, from copies in a temp dir,
under the package names ``vidsrl_a`` (A, the first checkout) and
``vidsrl_b`` (B); this works because the package uses relative imports.
Each pair then runs both sides back to back, in alternating order, so both
see the same machine state:

- train: one epoch of ``train()`` with the A checkout's
  ``configs/overfit_synth.cfg`` on the acceptance suite's 50 training
  videos, from a fresh model each time;
- predict: one ``pred-pred`` pass of ``predict_situation`` over the suite's
  20 held-out videos with one checkpoint, trained by A for
  ``PREDICT_EPOCHS`` epochs and read by each side's own
  ``SituationModel.load``. When B cannot read A's checkpoint (the two
  checkouts name their parameters differently), the script stops with one
  line naming the first missing parameter: time such a pair with
  alternating ``bench/run.py --workload predict`` runs of each checkout;
- evaluate: that side's own ``metrics.evaluate`` on the records its predict
  pass just made and the 20 held-out videos;
- setup: that side's own ``generate`` of the suite, ``write_dataset`` into
  a temp dir and ``load_dataset_dir`` of both splits.

Each side builds the suite with its own generator. After the warm-up both
sides' ``evaluate`` score A's records of the held-out videos; if the two
``EvalReport.to_dict()`` differ, the script names the first differing key
and exits non-zero, so a speed-up is never reported for a report that
changed. Per side and workload it prints the median and quartiles (train
in videos/s, predict in ms per video, evaluate and setup in ms per call)
and the pairs that side won. This is a measuring aid, not a gate. Usage,
from the root of a checkout:

    python3 tools/ab_speed.py A_CHECKOUT [B_CHECKOUT] [--pairs 10]

B defaults to the checkout holding this script. BLAS is pinned to one
thread, as in the benchmark.
"""

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before anything imports numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PREDICT_EPOCHS = 10  # training epochs of the model that the predict passes use


def import_side(checkout: str, name: str, tmp: str) -> dict:
    """The modules of ``checkout/src/vidsrl``, imported as package ``name``."""
    src = os.path.join(checkout, "src", "vidsrl")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        raise SystemExit(f"no vidsrl package under {checkout}/src")
    shutil.copytree(src, os.path.join(tmp, name), ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("synth", "training", "srl", "metrics", "data_model")}


class Side:
    def __init__(self, label: str, modules: dict, cfg_path: str, out: str):
        self.label, self.out = label, out
        self.synth, self.training, self.srl = modules["synth"], modules["training"], modules["srl"]
        self.metrics, self.data_model = modules["metrics"], modules["data_model"]
        self.suite = self.synth.SynthConfig(n_videos=50, n_val=20, n_verbs=20, vocab_size=50,
                                            d_vid=64, d_obj=64, n_slots=15, noise=0.1, seed=7)
        self.data = self.synth.generate(self.suite)
        self.cfg = replace(self.training.load_config(cfg_path), epochs=1)
        self.model = None
        self.records = None
        self.reset()

    def reset(self):
        self.rates = {"train": [], "predict": [], "evaluate": [], "setup": []}

    def train_epoch(self):
        videos = len(self.data.train)
        t0 = time.perf_counter()
        self.training.train(self.data.train, self.data.lexicon, self.cfg, self.out)
        self.rates["train"].append(videos / (time.perf_counter() - t0))

    def predict_pass(self):
        videos = len(self.data.val)
        t0 = time.perf_counter()
        self.records = [self.model.predict_situation(sample, regime="pred-pred")
                        for sample in self.data.val]
        self.rates["predict"].append(1e3 * (time.perf_counter() - t0) / videos)

    def evaluate_pass(self):
        t0 = time.perf_counter()
        self.metrics.evaluate(self.records, self.data.val)
        self.rates["evaluate"].append(1e3 * (time.perf_counter() - t0))

    def setup_pass(self):
        data_dir = self.out + "_data"
        t0 = time.perf_counter()
        self.synth.write_dataset(data_dir, self.synth.generate(self.suite))
        for split in ("train", "val"):
            self.data_model.load_dataset_dir(data_dir, split)
        self.rates["setup"].append(1e3 * (time.perf_counter() - t0))
        shutil.rmtree(data_dir)

    def run_all(self):
        self.train_epoch()
        self.predict_pass()
        self.evaluate_pass()
        self.setup_pass()


def first_difference(a: dict, b: dict, prefix: str = ""):
    """The first key, as a ``/``-joined path, at which two nested report
    dicts differ, with both values; None when they are equal."""
    for key in dict.fromkeys([*a, *b]):
        name = f"{prefix}{key}"
        va, vb = a.get(key, "<missing>"), b.get(key, "<missing>")
        if isinstance(va, dict) and isinstance(vb, dict):
            found = first_difference(va, vb, name + "/")
            if found is not None:
                return found
        elif va != vb:
            return name, va, vb
    return None


def summary(side: Side, other: Side, workload: str, unit: str, higher: bool) -> str:
    mine, theirs = side.rates[workload], other.rates[workload]
    q1, med, q3 = statistics.quantiles(mine, n=4, method="inclusive")
    wins = sum((a > b) == higher and a != b for a, b in zip(mine, theirs))
    return (f"{workload:<8} {side.label}  median {med:8.2f} {unit:<9} "
            f"quartiles [{q1:.2f}-{q3:.2f}]  won {wins}/{len(mine)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="checkout A (for example a clone of the parent commit)")
    parser.add_argument("b", nargs="?", default=ROOT, help="checkout B (default: this one)")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        cfg_path = os.path.join(args.a, "configs", "overfit_synth.cfg")
        sides = [Side(label, import_side(checkout, f"vidsrl_{label.lower()}", tmp), cfg_path,
                      os.path.join(tmp, f"run_{label}"))
                 for label, checkout in (("A", args.a), ("B", args.b))]
        ckpt_dir = os.path.join(tmp, "predict_model")
        a = sides[0]
        a.training.train(a.data.train, a.data.lexicon,
                         replace(a.cfg, epochs=PREDICT_EPOCHS), ckpt_dir)
        for side in sides:
            try:
                side.model = side.srl.SituationModel.load(
                    os.path.join(ckpt_dir, "checkpoint_last.bin"))
            except side.srl.dm.CheckpointError as e:
                raise SystemExit(f"{side.label} cannot read A's checkpoint: {e}; compare "
                                 "prediction with alternating bench/run.py runs of each "
                                 "checkout") from None
            side.run_all()  # warm-up, not counted
            side.reset()
        reports = [side.metrics.evaluate(a.records, a.data.val).to_dict() for side in sides]
        diff = first_difference(*reports)
        if diff is not None:
            key, va, vb = diff
            raise SystemExit(f"evaluate reports differ at {key}: A {va!r}, B {vb!r}")
        for i in range(args.pairs):
            for side in (sides if i % 2 == 0 else sides[::-1]):
                side.run_all()
        for workload, unit, higher in (("train", "videos/s", True), ("predict", "ms/video", False),
                                       ("evaluate", "ms/call", False), ("setup", "ms/call", False)):
            for side, other in (sides, sides[::-1]):
                print(summary(side, other, workload, unit, higher))


if __name__ == "__main__":
    main()
