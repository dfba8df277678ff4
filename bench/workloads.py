"""The three benchmark workloads and their correctness checks.

Every workload runs one process and one thread as a closed loop: each
training call, video or evaluation starts only after the previous one has
ended. Every workload trains on the acceptance suite's 50 training videos;
the workload seed draws the held-out videos from a pool of the same
synthetic world. The program sees them only as a dataset directory written
with ``write_dataset`` and read back with ``load_dataset_dir``.

Phases of a run:

* setup: generate, write, load and compile the dataset, ``setup_reps``
  times (``setup_s`` is the median); ``predict`` also trains its model here.
* run: the measured closed loop, ``--seconds`` long.
* tail (``train``, ``train-val``): prediction passes and evaluations with
  the model the loop trained, so that every workload reports every
  end-to-end metric.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

from tracing import END, NAME, PARENT, START

WORKLOADS = ("train", "predict", "train-val")
CONFIG = os.path.join("configs", "overfit_synth.cfg")
WORLD_SEED = 7  # the acceptance suite's synthetic world
REGIME = "pred-pred"
TAIL_SHARE = 1.0  # tail length as a share of --seconds


@dataclass(frozen=True)
class Sizes:
    n_train: int = 50           # the acceptance suite's training split
    n_heldout: int = 100        # distinct held-out videos per prediction pass
    n_val: int = 10             # validation videos in train-val
    pool_heldout: int = 200     # pool the seed draws the held-out videos from
    # Epochs per train() call. Ten epochs is the shortest training after
    # which greedy captions end at EOS with the references' length, so the
    # model every workload predicts with decodes like a trained one.
    epochs: int = 10
    setup_reps: int = 3
    reload_videos: int = 3      # videos compared after a checkpoint reload
    # Caption-length and quality checks hold for the model ``epochs``
    # trains at full size; a tiny model has not learnt captions yet.
    check_captions: bool = True


FULL = Sizes()
TINY = Sizes(n_train=4, n_heldout=3, n_val=2, pool_heldout=5, epochs=2,
             setup_reps=2, reload_videos=1, check_captions=False)


@dataclass
class Dataset:
    train: list
    heldout: list
    lexicon: object
    compiled: list


@dataclass
class Run:
    """Counters, checks and timings of one benchmark run."""

    vs: dict                      # vidsrl modules by name
    root: str
    work: str
    seed: int
    sizes: Sizes
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    violations: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, n: int, what: str):
        self.failed += n
        self.violations.append(what)

    def check(self, ok: bool, what: str):
        if not ok:
            self.violations.append(what)

    def train_config(self, eval_every: int | None = None):
        """The overfit profile with ``sizes.epochs`` epochs."""
        training = self.vs["training"]
        values = training.load_config(os.path.join(self.root, CONFIG)).to_dict()
        values["epochs"] = self.sizes.epochs
        if eval_every is not None:
            values["eval_every"] = eval_every
        return training.TrainConfig(**values)

    def span(self, name: str):
        return self.tracer.span(name)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed calls are +inf and sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# -- setup ---------------------------------------------------------------------


def draw_dataset(run: Run):
    """The workload's videos: the suite's training split and a seeded draw
    of held-out videos.

    The world (lexicon, prototypes, vocabulary) and the training videos are
    the acceptance suite's, generated with its seed, so every seed trains
    the same model. Which videos a ten-epoch model was trained on decides
    whether its captions take three or four tokens, and that moves every
    prediction cost by a decode step. ``--seed`` picks the held-out videos
    that are predicted, validated and evaluated.
    """
    import numpy as np

    synth = run.vs["synth"]
    sizes = run.sizes
    pool = synth.generate(synth.SynthConfig(n_videos=sizes.n_train, n_val=sizes.pool_heldout,
                                            seed=WORLD_SEED))
    rng = np.random.default_rng(run.seed)
    heldout = [pool.val[i] for i in sorted(rng.choice(sizes.pool_heldout, sizes.n_heldout,
                                                      replace=False))]
    ids = {s.id for s in pool.train + heldout}
    secrets = synth.Secrets(config=pool.secrets.config,
                            verbs={k: v for k, v in pool.secrets.verbs.items() if k in ids},
                            entities={k: v for k, v in pool.secrets.entities.items() if k in ids})
    return synth.SynthResult(train=pool.train, val=heldout, lexicon=pool.lexicon, secrets=secrets)


def setup_data(run: Run, cfg, rep: int) -> tuple[Dataset, float]:
    vs = run.vs
    synth, data_model, training = vs["synth"], vs["data_model"], vs["training"]
    out = os.path.join(run.work, f"data{rep}")
    t0 = time.perf_counter()
    synth.write_dataset(out, draw_dataset(run))
    train_samples, lexicon = data_model.load_dataset_dir(out, "train")
    heldout, _ = data_model.load_dataset_dir(out, "val")
    vocab = data_model.build_vocabulary(data_model.caption_corpus(train_samples),
                                        min_count=cfg.vocab_min_count)
    model_cfg = training.model_config_for(cfg, train_samples, lexicon, vocab)
    compiled = [training.compile_sample(s, vocab, model_cfg) for s in train_samples]
    elapsed = time.perf_counter() - t0
    return Dataset(train_samples, heldout, lexicon, compiled), elapsed


def setup(run: Run, cfg) -> tuple[Dataset, list[float]]:
    times = []
    data = None
    with run.span("setup.data"):
        for rep in range(run.sizes.setup_reps):
            shutil.rmtree(os.path.join(run.work, f"data{rep - 1}"), ignore_errors=True)
            data, elapsed = setup_data(run, cfg, rep)
            times.append(elapsed)
    return data, times


# -- training ------------------------------------------------------------------


def train_once(run: Run, data: Dataset, cfg, out: str, val=None):
    """One train() call.

    Returns {"seconds", "epoch_seconds", "losses", "state"}, or None when
    train() raised. Epoch times are taken at each ``log_fn`` call, so an
    epoch includes its validation pass and checkpoint writes.
    """
    training = run.vs["training"]
    steps = cfg.epochs * math.ceil(len(data.train) / cfg.batch_size)
    run.attempted += steps
    if val:
        run.attempted += cfg.epochs // cfg.eval_every * (len(val) + 1)
    losses, stamps = [], []

    def log(entry):
        stamps.append(time.perf_counter())
        losses.append(entry["loss"])

    t0 = time.perf_counter()
    try:
        state = training.train(data.train, data.lexicon, cfg, out, val_samples=val, log_fn=log)
    except Exception as e:  # a failed call is counted and reported, not fatal
        run.fail(steps, f"train() raised {e!r}")
        return None
    elapsed = time.perf_counter() - t0
    run.check(len(losses) == cfg.epochs, f"train() logged {len(losses)} of {cfg.epochs} epochs")
    run.check(all(math.isfinite(x) for x in losses), f"non-finite epoch loss {losses}")
    run.check(len(losses) < 2 or losses[-1] < losses[0],
              f"last epoch loss {losses[-1]:.4f} not below first {losses[0]:.4f}")
    run.check(state.step == steps, f"train() took {state.step} steps, expected {steps}")
    return {"seconds": elapsed, "epoch_seconds": [b - a for a, b in zip([t0] + stamps, stamps)],
            "epoch_videos": len(data.train), "videos": cfg.epochs * len(data.train),
            "losses": losses, "state": state}


def training_loop(run: Run, data: Dataset, cfg, seconds: float, out: str, val=None) -> list:
    """train() calls back to back until ``seconds`` have passed (at least one)."""
    calls = []
    deadline = time.perf_counter() + seconds
    while True:
        call = train_once(run, data, cfg, out, val)
        if call is None:
            break
        call["checkpoint"] = sha256_file(os.path.join(out, "checkpoint_last.bin"))
        calls.append(call)
        if time.perf_counter() >= deadline:
            break
    digests = {c["checkpoint"] for c in calls}
    run.check(len(digests) <= 1, f"repeated train() calls gave {len(digests)} checkpoints")
    return calls


def per_video_ms(calls: list) -> float:
    return 1e3 * sum(c["seconds"] for c in calls) / max(1, sum(c["videos"] for c in calls))


# -- prediction ----------------------------------------------------------------


def check_records(run: Run, sample, records, n_verbs: int):
    n_events = len(sample.events)
    run.check(len(records) == n_events,
              f"{sample.id}: {len(records)} records for {n_events} events")
    run.check(sorted(r.event for r in records) == list(range(n_events)),
              f"{sample.id}: event indices {[r.event for r in records]}")
    for rec in records:
        run.check(0 <= rec.verb < n_verbs and all(0 <= v < n_verbs for v in rec.top5_verbs),
                  f"{sample.id} event {rec.event}: verb outside the lexicon")
        frames = sample.schedule.frames_of_event(rec.event)
        for rp in rec.roles:
            run.check(rp.grounding.frame in frames,
                      f"{sample.id} event {rec.event}: grounding frame "
                      f"{rp.grounding.frame} outside {frames}")


def predict_pass(run: Run, model, samples, n_verbs: int):
    """Predict every sample once; returns (latencies in ms, records per video)."""
    latencies, predictions = [], []
    for sample in samples:
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            records = model.predict_situation(sample, regime=REGIME)
        except Exception as e:  # counted as a miss in the latency percentiles
            latencies.append(math.inf)
            run.fail(1, f"{sample.id}: predict_situation raised {e!r}")
            continue
        latencies.append((time.perf_counter() - t0) * 1e3)
        predictions.append(records)
        check_records(run, sample, records, n_verbs)
    return latencies, predictions


def evaluate_once(run: Run, predictions, samples):
    """One evaluate() call; returns (seconds, report) or (None, None) on failure."""
    run.attempted += 1
    t0 = time.perf_counter()
    try:
        report = run.vs["metrics"].evaluate(predictions, samples)
    except Exception as e:
        run.fail(1, f"evaluate raised {e!r}")
        return None, None
    return time.perf_counter() - t0, report


def predictions_json(run: Run, predictions) -> str:
    records_to_json = run.vs["srl"].records_to_json
    return "".join(json.dumps(records_to_json(r), sort_keys=True) + "\n" for r in predictions)


def load_checked(run: Run, trained_model, checkpoint: str, samples):
    """Reload ``checkpoint`` as a user would and require byte-identical predictions."""
    loaded = run.vs["srl"].SituationModel.load(checkpoint)
    probe = samples[: run.sizes.reload_videos]
    before = predictions_json(run, [trained_model.predict_situation(s, regime=REGIME)
                                    for s in probe])
    after = predictions_json(run, [loaded.predict_situation(s, regime=REGIME) for s in probe])
    run.check(before == after, "reloaded checkpoint predicts different JSON")
    return loaded


def quality_checks(run: Run, data: Dataset, predictions, max_len: int):
    """Captions must end at EOS and match the references' length; grounding
    and captioning must not have collapsed."""
    from vidsrl.data_model import PAD

    ref_lengths = [int((row != PAD).sum()) - 1 for c in data.compiled for row in c.cap_targets]
    ref_steps = [int((c.cap_targets != PAD).sum(axis=1).max()) for c in data.compiled]
    lengths, steps = [], []
    for records in predictions:
        video = [len(rp.caption.split()) for rec in records for rp in rec.roles]
        lengths.extend(video)
        steps.append(min(max_len, max(video, default=0)) + 1)
    mean_len, ref_len = statistics.fmean(lengths), statistics.fmean(ref_lengths)
    mean_steps, ref_mean_steps = statistics.fmean(steps), statistics.fmean(ref_steps)
    run.info["captions"] = {"mean_tokens": mean_len, "ref_mean_tokens": ref_len,
                            "mean_decode_steps": mean_steps,
                            "ref_mean_decode_steps": ref_mean_steps}
    # After ten epochs a model may still favour one caption template (two,
    # three or four tokens), so the mean must lie in the references' range,
    # not at their mean.
    run.check(max(lengths) < max_len, "a caption ran to max_caption_len without EOS")
    run.check(min(ref_lengths) <= mean_len <= max(ref_lengths),
              f"mean caption length {mean_len:.2f} outside the references' "
              f"{min(ref_lengths)}-{max(ref_lengths)} tokens")
    run.check(mean_steps <= ref_mean_steps + 0.5,
              f"mean decode steps {mean_steps:.2f} vs reference {ref_mean_steps:.2f}")
    quality = run.info["quality"]
    run.check(quality["val_iou_0.5"] > 0 and quality["val_cider"] > 0,
              f"grounding or captioning collapsed: {quality}")


def prediction_phase(run: Run, model, data: Dataset, seconds: float) -> dict:
    """Passes over the held-out videos, each followed by one evaluate, until
    ``seconds`` have passed (at least one pass)."""
    n_verbs = len(data.lexicon)
    passes, eval_s = [], []
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        latencies, predictions = predict_pass(run, model, data.heldout, n_verbs)
        passes.append(latencies)
        elapsed, report = evaluate_once(run, predictions, data.heldout)
        if elapsed is not None:
            eval_s.append(elapsed)
        text = predictions_json(run, predictions)
        if first is None:
            first = (text, predictions, report)
        elif text != first[0]:
            run.violations.append("a repeated prediction pass gave different predictions")
        if time.perf_counter() >= deadline:
            break
    text, predictions, report = first
    run.info["predictions_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    if report is not None:
        run.info["quality"] = {"val_iou_0.5": report.grounding["iou@0.5"],
                               "val_cider": report.srl["cider"],
                               "verb_acc1": report.verb["acc@1"],
                               "role_macro_f1": report.roles["macro_f1"]}
        if run.sizes.check_captions:
            quality_checks(run, data, predictions, model.cfg.max_caption_len)
    return {"passes": passes, "eval_s": eval_s}


# -- workloads -----------------------------------------------------------------


def _summary(run: Run, setup_times, calls, pred, window_ms: float) -> dict:
    """End-to-end metrics as {name: (value, unit, samples)}.

    Rates are taken per epoch and evaluation times per call, and each figure
    is the median of those; each video's latency is its median over the
    passes, and the percentiles are taken over the videos. A burst of load
    from another process then moves one epoch, pass or call rather than the
    figure. A failed prediction is +inf; if it decides a percentile, the
    run's window is reported instead.
    """
    rates = [c["epoch_videos"] / t for c in calls for t in c["epoch_seconds"]]
    passes = pred["passes"]
    run.info["epoch_s"] = [t for c in calls for t in c["epoch_seconds"]]
    run.info["pass_p50_ms"] = [percentile(p, 50) for p in passes]
    run.info["pass_p90_ms"] = [percentile(p, 90) for p in passes]
    run.info["eval_s"] = pred["eval_s"]

    per_video = [statistics.median(video) if all(map(math.isfinite, video)) else math.inf
                 for video in zip(*passes)]

    def pct(q):
        value = percentile(per_video, q)
        return (value if math.isfinite(value) else window_ms), "ms", sum(map(len, passes))

    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "train_videos_per_s": (statistics.median(rates), "videos/s", len(rates)),
        "final_loss": (calls[-1]["losses"][-1], "nats", 1),
        "predict_ms_p50": pct(50),
        "predict_ms_p90": pct(90),
        "eval_s": (statistics.median(pred["eval_s"]), "s", len(pred["eval_s"])),
    }


def _measured(run: Run, seconds: float, trace: bool, loop, unit_ms):
    """Run the measured loop; in a traced run, half untraced and half traced.

    Returns the loop result (the traced half's in a traced run).
    ``unit_ms`` maps a loop result to ms per video, for the tracing overhead.
    """
    gc.collect()  # garbage left by setup is not charged to the measured loop
    if not trace:
        return loop(seconds)
    tracer = run.tracer
    tracer.enabled = False
    plain = loop(seconds / 2)
    tracer.reset_counts()
    tracer.enabled = True
    with tracer.span("run"):
        traced = loop(seconds / 2)
    tracer.enabled = False
    run.info["trace_overhead_pct"] = 100.0 * (unit_ms(traced) / unit_ms(plain) - 1.0)
    return traced


def train_workload(run: Run, seconds: float, trace: bool, validate: bool) -> dict:
    cfg = run.train_config(eval_every=1 if validate else None)
    data, setup_times = setup(run, cfg)
    val = data.heldout[: run.sizes.n_val] if validate else None
    out = os.path.join(run.work, "train")
    calls = _measured(run, seconds, trace,
                      lambda s: training_loop(run, data, cfg, s, out, val), per_video_ms)
    if not calls:
        return {}
    gc.collect()
    ckpt = os.path.join(out, "checkpoint_last.bin")
    run.info["checkpoint_sha256"] = calls[-1]["checkpoint"]
    model = load_checked(run, calls[-1].pop("state").model, ckpt, data.heldout)
    pred = prediction_phase(run, model, data, seconds * TAIL_SHARE)
    return _summary(run, setup_times, calls, pred, seconds * 1e3)


def predict_workload(run: Run, seconds: float, trace: bool) -> dict:
    cfg = run.train_config()
    data, setup_times = setup(run, cfg)
    out = os.path.join(run.work, "predict-model")
    with run.span("setup.train"):
        t0 = time.perf_counter()
        call = train_once(run, data, cfg, out)
        if call is None:
            return {}
        ckpt = os.path.join(out, "checkpoint_last.bin")
        model = load_checked(run, call.pop("state").model, ckpt, data.heldout)
        model_setup_s = time.perf_counter() - t0
    run.info["checkpoint_sha256"] = sha256_file(ckpt)
    pred = _measured(run, seconds, trace, lambda s: prediction_phase(run, model, data, s),
                     lambda p: statistics.fmean(x for lat in p["passes"] for x in lat))
    setup_total = [t + model_setup_s for t in setup_times]
    return _summary(run, setup_total, [call], pred, seconds * 1e3)


def run_workload(run: Run, name: str, seconds: float, trace: bool) -> dict:
    if name == "predict":
        return predict_workload(run, seconds, trace)
    return train_workload(run, seconds, trace, validate=(name == "train-val"))


# -- per-layer metrics from the traced half ------------------------------------


PER_LAYER_UNITS = {
    "diffmath.backward_ms": "ms", "diffmath.graph_nodes": "count",
    "diffmath.matmul_calls": "count", "diffmath.matmul_gflop": "GFLOP",
    "diffmath.save_ms": "ms",
    "python.gc_ms": "ms", "python.gc_collected": "count",
    "encoder.forward_ms": "ms", "srl.role_decoder_ms": "ms",
    "srl.caption_logits_ms": "ms", "srl.greedy_ms": "ms", "srl.decode_steps": "count",
    "srl.decode_step_ms": "ms", "srl.roles": "count", "srl.predict_self_ms": "ms",
    "training.video_loss_self_ms": "ms", "training.adam_ms": "ms", "training.steps": "count",
    "training.compile_ms": "ms", "metrics.evaluate_ms": "ms",
    "metrics.val_iou_0.5": "score", "metrics.val_cider": "score",
    "synth.generate_ms": "ms", "data_model.load_ms": "ms",
    "trace.overhead_pct": "%", "trace.unattributed_pct": "%",
}


def per_layer(run: Run) -> dict:
    """Per-layer metrics as {name: (value, unit, samples)}; see README.md.

    Layer metrics come from the spans of the traced half of the measured
    loop; the set-up layers (generate, load, compile) from every span.
    """
    tracer = run.tracer
    spans = tracer.spans
    own = tracer.self_times()
    root = next(i for i, s in enumerate(spans) if s[NAME] == "run")

    def group(indices):
        out: dict[str, list[int]] = {}
        for i in indices:
            out.setdefault(spans[i][NAME], []).append(i)
        return out

    in_run = group(tracer.descendants_of(root))
    everywhere = group(range(len(spans)))

    def dur(i):
        return (spans[i][END] - spans[i][START]) * 1e3

    def mean(values):
        return (statistics.fmean(values) if values else 0.0), len(values)

    def mean_ms(name, self_time=False):
        return mean([own[i] * 1e3 if self_time else dur(i) for i in in_run.get(name, [])])

    def per(total, n):
        return (total / n if n else 0.0), n

    greedy = set(in_run.get("srl.greedy", []))
    logits = in_run.get("srl.caption_logits", [])
    steps = [i for i in logits if spans[i][PARENT] in greedy]
    forced = [i for i in logits if spans[i][PARENT] not in greedy]
    n_train_videos = len(in_run.get("training.video_loss", []))
    n_videos = n_train_videos + len(in_run.get("srl.predict_situation", []))
    n_setups = len(everywhere.get("synth.generate", []))
    n_generated = n_setups * (run.sizes.n_train + run.sizes.pool_heldout)
    n_loaded = n_setups * (run.sizes.n_train + run.sizes.n_heldout)
    counts = tracer.counts
    quality = run.info["quality"]
    out = {
        "diffmath.backward_ms": mean_ms("diffmath.backward"),
        "diffmath.graph_nodes": per(counts.get("diffmath.graph_nodes", 0.0),
                                    len(in_run.get("diffmath.backward", []))),
        "diffmath.matmul_calls": per(counts.get("diffmath.matmul_calls", 0.0), n_videos),
        "diffmath.matmul_gflop": per(counts.get("diffmath.matmul_flop", 0.0) / 1e9, n_videos),
        "diffmath.save_ms": per(sum(dur(i) for i in in_run.get("diffmath.save_tensors", [])),
                                n_train_videos),
        "python.gc_ms": per(tracer.gc_ms, n_videos),
        "python.gc_collected": per(float(tracer.gc_collected), n_videos),
        "encoder.forward_ms": mean_ms("encoder.forward"),
        "srl.role_decoder_ms": mean_ms("srl.role_decoder"),
        "srl.caption_logits_ms": mean([dur(i) for i in forced]),
        "srl.greedy_ms": mean_ms("srl.greedy"),
        "srl.decode_steps": per(float(len(steps)), len(greedy)),
        "srl.decode_step_ms": mean([dur(i) for i in steps]),
        "srl.roles": per(counts.get("srl.greedy_roles", 0.0), len(greedy)),
        "srl.predict_self_ms": mean_ms("srl.predict_situation", self_time=True),
        "training.video_loss_self_ms": mean_ms("training.video_loss", self_time=True),
        "training.adam_ms": mean_ms("training.adam_step"),
        "training.steps": (float(len(in_run.get("training.adam_step", []))), 1),
        "training.compile_ms": mean([dur(i) for i in everywhere.get("training.compile_sample", [])]),
        "metrics.evaluate_ms": mean_ms("metrics.evaluate"),
        "metrics.val_iou_0.5": (quality["val_iou_0.5"], 1),
        "metrics.val_cider": (quality["val_cider"], 1),
        "synth.generate_ms": per(sum(dur(i) for i in everywhere.get("synth.generate", [])),
                                 n_generated),
        "data_model.load_ms": per(sum(dur(i) for i in everywhere.get("data_model.load_dataset_dir", [])),
                                  n_loaded),
        "trace.overhead_pct": (run.info["trace_overhead_pct"], 2),
        "trace.unattributed_pct": (100.0 * own[root] / (dur(root) / 1e3), 1),
    }
    return {name: (value, PER_LAYER_UNITS[name], n) for name, (value, n) in out.items()}
