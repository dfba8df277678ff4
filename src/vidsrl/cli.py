"""Command-line entry points: synth, train, predict, eval, ground, validate.

All commands are config-first with key=value overrides, write files only,
and are idempotent given identical inputs and seeds. Exit codes: 0 success,
1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from .data_model import (
    ROLES, DatasetError, dataset_errors, load_dataset_dir,
)
from .diffmath import CheckpointError
from .metrics import evaluate
from .srl import REGIMES, SituationModel, read_predictions, write_predictions
from .synth import SynthConfig, generate, write_dataset
from .training import (
    ConfigError, TrainConfig, apply_override, config_defaults_help, config_values, train,
)


def _add_overrides(parser):
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (see --help for the key list)")
    parser.add_argument("--config", default=None, help="flat key=value config file")


def _resolve_config(args) -> TrainConfig:
    """The config file's values with the ``--set`` overrides applied, validated
    once, so that an override can replace an out-of-range file value."""
    text = ""
    if args.config:
        with open(args.config) as f:
            text = f.read()
    values = config_values(text)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        apply_override(values, key.strip(), value.strip())
    return TrainConfig(**values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vidsrl",
        description="Verb classification, role captioning and weakly-supervised "
                    "grounding for multi-event videos.",
        epilog="Config keys: " + config_defaults_help(),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-videos", type=int, default=50)
    p.add_argument("--n-val", type=int, default=0)
    p.add_argument("--n-verbs", type=int, default=20)
    p.add_argument("--vocab-size", type=int, default=50)
    p.add_argument("--d-vid", type=int, default=64)
    p.add_argument("--d-obj", type=int, default=64)
    p.add_argument("--m", type=int, default=15, help="object proposals per frame")
    p.add_argument("--fps", type=float, default=1.0)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--border-plants", action="store_true")
    p.add_argument("--long-tail", action="store_true")

    p = sub.add_parser("validate", help="lint a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="train", choices=("train", "val"))

    p = sub.add_parser("train", help="train the full model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_overrides(p)

    p = sub.add_parser("predict", help="write prediction records for a split")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val", choices=("train", "val"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--regime", default="gt-roles", choices=REGIMES)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-alpha", action="store_true",
                   help="include the dense attention map per role")

    p = sub.add_parser("eval", help="evaluate a prediction file")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val", choices=("train", "val"))
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.add_argument("--strict-grounding", action="store_true")

    p = sub.add_parser("ground", help="extract per-role grounding rows as CSV")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True)

    return parser


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        n_videos=args.n_videos, n_val=args.n_val, n_verbs=args.n_verbs,
        vocab_size=args.vocab_size, d_vid=args.d_vid, d_obj=args.d_obj,
        n_slots=args.m, fps=args.fps, duration=args.duration,
        noise=args.noise, seed=args.seed,
        border_plants=args.border_plants, long_tail=args.long_tail,
    )
    result = generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    write_dataset(args.out, result)
    print(f"wrote {len(result.train)} train / {len(result.val)} val videos to {args.out}")
    return 0


def cmd_validate(args) -> int:
    samples, lexicon = load_dataset_dir(args.data, split=args.split, validate=False)
    errors = dataset_errors(samples, lexicon)
    if errors:
        print(f"{len(errors)} problem(s) found:")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"{len(samples)} videos validated, no problems found")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    train_samples, lexicon = load_dataset_dir(args.data, split="train")
    val_path = os.path.join(args.data, "manifest_val.jsonl")
    val_samples = None
    if os.path.exists(val_path):
        val_samples, _ = load_dataset_dir(args.data, split="val")
    train(train_samples, lexicon, cfg, args.out, val_samples=val_samples,
          log_fn=lambda e: print(json.dumps(e, sort_keys=True)))
    print(f"checkpoints and metrics written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    samples, lexicon = load_dataset_dir(args.data, split=args.split)
    model = SituationModel.load(args.checkpoint)
    model.check_data(samples, lexicon)
    per_video, ms = [], []
    for s in samples:
        start = time.perf_counter()
        per_video.append(model.predict_situation(s, regime=args.regime,
                                                 keep_alpha=args.dump_alpha))
        ms.append((time.perf_counter() - start) * 1e3)
    write_predictions(args.out, per_video, include_alpha=args.dump_alpha)
    print(f"wrote predictions for {len(per_video)} videos to {args.out}")
    steps = [_decode_steps(records, model.cfg.max_caption_len) for records in per_video]
    print(f"predict: {len(per_video)} videos, {np.median(ms):.2f} ms/video p50, "
          f"{np.percentile(ms, 90):.2f} ms p90, {np.mean(steps):.2f} decode steps/video")
    return 0


def _decode_steps(records, max_caption_len: int) -> int:
    """Greedy steps one video took: its longest caption's token count + 1
    for the closing EOS, capped at ``max_caption_len + 1``. Reserved tokens
    are not in the caption text, so a caption that holds one undercounts."""
    longest = max((len(rp.caption.split()) for rec in records for rp in rec.roles), default=0)
    return min(longest, max_caption_len) + 1


def cmd_eval(args) -> int:
    samples, _ = load_dataset_dir(args.data, split=args.split)
    predictions = read_predictions(args.predictions)
    try:
        report = evaluate(predictions, samples, strict_grounding=args.strict_grounding)
    except DatasetError as e:
        raise DatasetError(f"{args.predictions}: {e}") from e
    print(report.table())
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report.to_dict(), f, indent=1, sort_keys=True)
        print(f"report written to {args.out}")
    return 0


def cmd_ground(args) -> int:
    predictions = read_predictions(args.predictions)
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["video", "event", "role", "frame", "x1", "y1", "x2", "y2", "score"])
        for records in predictions:
            for rec in records:
                for rp in rec.roles:
                    g = rp.grounding
                    writer.writerow([rec.video_id, rec.event, ROLES[rp.role], g.frame,
                                     *[f"{x:.2f}" for x in g.box], f"{g.score:.6f}"])
    print(f"grounding rows written to {args.out}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "validate": cmd_validate,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "ground": cmd_ground,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    try:
        return _COMMANDS[args.command](args)
    except (DatasetError, ConfigError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
