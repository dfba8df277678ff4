"""Losses against plug-in oracles, long-tail variants, config parsing, and
the training loop (smoke, determinism, loss bookkeeping)."""

import gc
import json
import math
import os

import numpy as np
import pytest

from vidsrl import diffmath as dm
from vidsrl.data_model import EOS, PAD, ROLES, VISUAL_ROLES, build_vocabulary, caption_corpus
from vidsrl.srl import SituationModel, build_event_mask, build_role_queries, role_query_index
from vidsrl.synth import SynthConfig, generate
from vidsrl.training import (
    Adam, ConfigError, TrainConfig, TrainState, balanced_sample_weights,
    caption_loss, caption_targets, compile_sample, load_config,
    model_config_for, parse_config_text, role_loss, train,
    verb_loss, video_loss,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def t(x, grad=False):
    return dm.Tensor(np.asarray(x, dtype=np.float32), requires_grad=grad)


# -- verb loss -----------------------------------------------------------------


def test_verb_loss_confident_correct_goes_to_zero():
    logits = np.full((5, 20), -1e4, dtype=np.float32)
    gt = [3, 1, 0, 19, 7]
    for i, v in enumerate(gt):
        logits[i, v] = 1e4
    assert verb_loss(t(logits), gt).item() == pytest.approx(0.0, abs=1e-6)


def test_verb_loss_uniform_is_log_v():
    loss = verb_loss(t(np.zeros((5, 20))), [0, 5, 10, 15, 19])
    assert loss.item() == pytest.approx(math.log(20), abs=1e-5)  # ~2.9957


def test_focal_loss_plug_in_value():
    # p_correct = 0.9 over two classes: logit difference ln(9)
    logits = np.array([[math.log(0.9), math.log(0.1)]], dtype=np.float32)
    loss = verb_loss(t(logits), [0], mode="focal", gamma=2.0)
    expected = 0.01 * (-math.log(0.9))  # 0.001054 by direct arithmetic
    assert expected == pytest.approx(0.001054, abs=1e-6)
    assert loss.item() == pytest.approx(expected, rel=1e-4)


def test_focal_gamma_zero_equals_plain():
    logits = rng(1).normal(size=(5, 12)).astype(np.float32)
    gt = [0, 4, 7, 11, 2]
    plain = verb_loss(t(logits), gt).item()
    focal0 = verb_loss(t(logits), gt, mode="focal", gamma=0.0).item()
    assert focal0 == pytest.approx(plain, abs=1e-6)


def test_reweighted_equals_plain_under_uniform_frequencies():
    logits = rng(2).normal(size=(5, 8)).astype(np.float32)
    gt = [1, 3, 5, 7, 0]
    plain = verb_loss(t(logits), gt).item()
    rw = verb_loss(t(logits), gt, mode="reweighted",
                   class_weights=np.full(8, 0.125)).item()
    assert rw == pytest.approx(plain, abs=1e-6)


def test_reweighted_matches_weighted_oracle():
    logits = rng(3).normal(size=(5, 6)).astype(np.float32)
    gt = [0, 0, 1, 2, 5]
    w = np.array([2.0, 1.0, 0.5, 1.0, 1.0, 4.0])
    loss = verb_loss(t(logits), gt, mode="reweighted", class_weights=w).item()
    # scalar oracle
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    ces = [-math.log(p[i, v]) for i, v in enumerate(gt)]
    ws = [w[v] for v in gt]
    assert loss == pytest.approx(sum(c * wi for c, wi in zip(ces, ws)) / sum(ws), rel=1e-5)


def test_verb_loss_rejects_out_of_lexicon():
    with pytest.raises(ValueError, match="outside lexicon"):
        verb_loss(t(np.zeros((5, 4))), [0, 1, 2, 3, 4])


# -- role loss ------------------------------------------------------------------


def test_role_loss_saturated_correct():
    logits = np.full((5, 11), -50.0, dtype=np.float32)
    gt = [{0, 2}, {1}, {3, 4}, {0}, {10}]
    for i, roles in enumerate(gt):
        for r in roles:
            logits[i, r] = 50.0
    assert role_loss(t(logits), gt).item() == pytest.approx(0.0, abs=1e-6)


def test_role_loss_zero_logits_is_log2():
    gt = [{0}, {1, 2}, set(), {5}, {9, 10}]
    loss = role_loss(t(np.zeros((5, 11))), gt)
    assert loss.item() == pytest.approx(math.log(2), abs=1e-6)  # ~0.6931


def test_role_loss_matches_elementwise_oracle():
    logits = rng(4).normal(size=(5, 11)).astype(np.float32)
    gt = [{0, 3}, {1}, {2, 4, 6}, set(), {10}]
    loss = role_loss(t(logits), gt).item()
    total = 0.0
    for i in range(5):
        for r in range(11):
            y = 1.0 if r in gt[i] else 0.0
            p = 1.0 / (1.0 + math.exp(-logits[i, r]))
            total += -(y * math.log(p) + (1 - y) * math.log(1 - p))
    assert loss == pytest.approx(total / 55, rel=1e-5)


# -- caption loss ----------------------------------------------------------------


def test_caption_loss_perfect_logits():
    targets = np.array([[5, 6, EOS, PAD]])
    logits = np.full((1, 4, 10), -1e4, dtype=np.float32)
    for l, tok in enumerate([5, 6, EOS]):
        logits[0, l, tok] = 1e4
    assert caption_loss(t(logits), targets).item() == pytest.approx(0.0, abs=1e-6)


def test_caption_loss_uniform_is_log_vocab():
    targets = np.array([[4, EOS]])
    loss = caption_loss(t(np.zeros((1, 2, 54))), targets)
    assert loss.item() == pytest.approx(math.log(54), abs=1e-5)


def test_caption_loss_matches_token_loop_oracle():
    vocab = 12
    logits = rng(5).normal(size=(2, 5, vocab)).astype(np.float32)
    targets = np.array([[4, 7, EOS, PAD, PAD], [5, 6, 8, 9, EOS]])
    loss = caption_loss(t(logits), targets).item()
    total = 0.0
    for r in range(2):
        toks = [x for x in targets[r] if x != PAD]
        ce = 0.0
        for l, tok in enumerate(toks):
            row = logits[r, l]
            e = np.exp(row - row.max())
            ce += -math.log(e[tok] / e.sum())
        total += ce / len(toks)
    assert loss == pytest.approx(total, rel=1e-5)


def test_caption_targets_teacher_forcing_layout():
    result = generate(SynthConfig(n_videos=1, n_verbs=4, vocab_size=15,
                                  d_vid=8, d_obj=8, n_slots=6, seed=8))
    sample = result.train[0]
    vocab = build_vocabulary(caption_corpus([sample]), 1)
    index = role_query_index([sorted(ev.roles) for ev in sample.annotation.events])
    inputs, targets = caption_targets(sample, index, vocab, max_len=15)
    assert inputs.shape == targets.shape
    n_roles = sum(len(ev.roles) for ev in sample.annotation.events)
    assert len(inputs) == n_roles
    from vidsrl.data_model import BOS
    assert np.all(inputs[:, 0] == BOS)
    # target row = input row shifted left, closed with EOS
    for r in range(n_roles):
        real = [x for x in targets[r] if x != PAD]
        assert real[-1] == EOS
        np.testing.assert_array_equal(inputs[r, 1:len(real)], real[:-1])


def test_caption_targets_truncation_warns():
    result = generate(SynthConfig(n_videos=1, n_verbs=4, vocab_size=15,
                                  d_vid=8, d_obj=8, n_slots=6, seed=8))
    sample = result.train[0]
    first_role = sorted(sample.annotation.events[0].roles)[0]
    sample.annotation.events[0].roles[first_role] = ["one two three four five six"]
    vocab = build_vocabulary(caption_corpus([sample]), 1)
    index = role_query_index([sorted(ev.roles) for ev in sample.annotation.events])
    with pytest.warns(UserWarning, match="truncated"):
        inputs, targets = caption_targets(sample, index, vocab, max_len=3)
    assert inputs.shape[1] == 4  # BOS + 3 tokens


def test_caption_row_holds_the_reference_of_its_query():
    result = generate(SynthConfig(n_videos=1, n_verbs=4, vocab_size=15,
                                  d_vid=8, d_obj=8, n_slots=6, seed=8))
    sample = result.train[0]
    for ev in sample.annotation.events:  # role ids out of order in every event
        ev.roles = dict(sorted(ev.roles.items(), reverse=True))
    vocab = build_vocabulary(caption_corpus([sample]), 1)
    tc = TrainConfig(d_model=8, n_heads=2, n_layers=1)
    cfg = model_config_for(tc, [sample], result.lexicon, vocab)
    compiled = compile_sample(sample, vocab, cfg)
    table = dm.Tensor(np.zeros((len(ROLES), 8), dtype=np.float32))
    _, index = build_role_queries(compiled.role_sets_sorted, table, table)
    assert len(index) == len(compiled.cap_targets) > len(sample.annotation.events)
    assert any(q.role > 0 for q in index)
    for r, q in enumerate(index):
        reference = sample.annotation.events[q.event].roles[q.role][0]
        row = [tok for tok in compiled.cap_targets[r] if tok != PAD]
        assert row == vocab.encode(reference) + [EOS]
        np.testing.assert_array_equal(
            compiled.event_mask[r], build_event_mask([q], sample.schedule, sample.n_slots)[0])


# -- dense one-hot oracle -------------------------------------------------------------
# The losses read one log-probability per row by index. These oracles take the
# same losses as sums against dense one-hot target tensors.


def onehot_verb_loss(logits, gt, mode="plain", gamma=2.0, class_weights=None):
    onehot = np.eye(logits.shape[1], dtype=logits.data.dtype)[gt]
    picked = dm.tensor_sum(dm.mul(dm.log_softmax(logits), onehot), axis=1)
    ce = -picked
    if mode == "focal":
        return dm.tensor_mean(dm.mul(dm.power(1.0 - dm.exp(picked), gamma), ce))
    if mode == "reweighted":
        w = np.asarray(class_weights, dtype=logits.data.dtype)[gt]
        return dm.tensor_sum(dm.mul(ce, w)) / float(w.sum())
    return dm.tensor_mean(ce)


def onehot_caption_loss(logits, targets):
    """Dense (roles, length, vocab) targets: 1/len at each real target, 0 at PAD."""
    real = targets != PAD
    scaled = (real / real.sum(axis=1)[:, None]).astype(np.float32)
    weights = np.zeros(logits.shape, dtype=np.float32)
    np.put_along_axis(weights, targets[:, :, None], scaled[:, :, None], axis=2)
    return -dm.tensor_sum(dm.mul(dm.log_softmax(logits), weights))


def loss_and_grad(loss_fn, data, *args, **kw):
    logits = dm.Tensor(data.copy(), requires_grad=True)
    loss = loss_fn(logits, *args, **kw)
    loss.backward()
    return loss.item(), logits.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["plain", "focal", "reweighted"])
def test_verb_loss_gradient_equals_dense_onehot_oracle(mode, dtype):
    g = rng(30)
    data = g.normal(size=(5, 9)).astype(dtype)
    gt = [0, 3, 3, 8, 5]
    kw = dict(mode=mode, gamma=2.0, class_weights=g.random(9) + 0.5)
    loss, grad = loss_and_grad(verb_loss, data, gt, **kw)
    oracle_loss, oracle_grad = loss_and_grad(onehot_verb_loss, data, gt, **kw)
    assert loss == oracle_loss
    assert np.array_equal(grad, oracle_grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_caption_loss_gradient_equals_dense_onehot_oracle(dtype):
    g = rng(31)
    vocab = 12
    data = g.normal(size=(4, 6, vocab)).astype(dtype)
    targets = np.full((4, 6), PAD)
    for r, n in enumerate([1, 3, 6, 4]):  # real tokens per role, EOS included
        targets[r, :n - 1] = g.integers(EOS + 1, vocab, size=n - 1)
        targets[r, n - 1] = EOS
    loss, grad = loss_and_grad(caption_loss, data, targets)
    oracle_loss, oracle_grad = loss_and_grad(onehot_caption_loss, data, targets)
    # the values differ only by summation order (6·4 against 6·4·12 terms)
    assert loss == pytest.approx(oracle_loss, rel=1e-6)
    assert np.array_equal(grad, oracle_grad)
    assert (grad[targets == PAD] == 0).all()


# -- total loss --------------------------------------------------------------------


def test_total_loss_gradient_micro_model():
    result = generate(SynthConfig(n_videos=1, n_verbs=3, vocab_size=8, d_vid=8,
                                  d_obj=8, n_slots=2, fps=0.5, seed=13))
    sample = result.train[0]
    vocab = build_vocabulary(caption_corpus([sample]), 1)
    tc = TrainConfig(d_model=8, n_heads=2, n_layers=1, dropout=0.0)
    cfg = model_config_for(tc, [sample], result.lexicon, vocab)
    model = SituationModel(cfg, result.lexicon, vocab, rng(14))
    compiled = compile_sample(sample, vocab, cfg)
    params = model.parameters()
    err = dm.gradient_check(lambda: video_loss(model, compiled, tc)[0],
                            params, eps=1e-2, samples=120, rng=rng(15))
    assert err < 1e-3


# -- balanced sampling ----------------------------------------------------------------


def test_balanced_weights_uniform_when_balanced():
    result = generate(SynthConfig(n_videos=8, n_verbs=2, vocab_size=12, d_vid=8,
                                  d_obj=8, n_slots=6, seed=3))
    # force a perfectly balanced verb assignment
    for i, s in enumerate(result.train):
        for j, ev in enumerate(s.annotation.events):
            ev.verbs = [(i + j) % 2]
    w = balanced_sample_weights(result.train, 2)
    np.testing.assert_allclose(w, 1.0 / 8, atol=1e-12)
    assert w.sum() == pytest.approx(1.0)


def test_balanced_weights_rare_verb_max():
    result = generate(SynthConfig(n_videos=6, n_verbs=3, vocab_size=12, d_vid=8,
                                  d_obj=8, n_slots=6, seed=4))
    for s in result.train:
        for ev in s.annotation.events:
            ev.verbs = [0]
    result.train[2].annotation.events[1].verbs = [2]  # unique rarest verb
    w = balanced_sample_weights(result.train, 3)
    assert np.argmax(w) == 2


def test_balanced_weights_match_frequency_oracle():
    result = generate(SynthConfig(n_videos=10, n_verbs=5, vocab_size=12, d_vid=8,
                                  d_obj=8, n_slots=6, seed=5))
    w = balanced_sample_weights(result.train, 5)
    counts = np.zeros(5)
    for s in result.train:
        for ev in s.annotation.events:
            counts[ev.primary_verb] += 1
    expected = np.array([np.mean([1.0 / counts[ev.primary_verb]
                                  for ev in s.annotation.events])
                         for s in result.train])
    expected /= expected.sum()
    np.testing.assert_allclose(w, expected, atol=1e-9)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


# -- config ----------------------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    text = """
    # overfit profile
    lr = 0.001
    batch_size = 4
    epochs = 10
    verb_loss_mode = focal
    focal_gamma = 1.5
    degrade_objects = true
    """
    cfg = parse_config_text(text)
    assert cfg.lr == pytest.approx(1e-3)
    assert cfg.batch_size == 4 and cfg.epochs == 10
    assert cfg.verb_loss_mode == "focal" and cfg.focal_gamma == 1.5
    assert cfg.degrade_objects is True
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert load_config(path) == cfg


def test_config_unknown_key_lists_valid_keys():
    with pytest.raises(ConfigError, match="valid keys.*batch_size"):
        parse_config_text("warmup = 5")
    for key in ("fps", "M"):  # frame rate and proposals per frame come from the data
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config_text(f"{key} = 1")


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("lr = fast")
    with pytest.raises(ConfigError, match="verb_loss_mode"):
        parse_config_text("verb_loss_mode = magic")
    with pytest.raises(ConfigError, match="focal_gamma"):
        parse_config_text("verb_loss_mode = focal\nfocal_gamma = -1")


@pytest.mark.parametrize("text, value", [("1", True), ("true", True), ("Yes", True),
                                         ("TRUE", True), ("0", False), ("false", False),
                                         ("No", False), ("FALSE", False)])
def test_config_boolean_words(text, value):
    assert parse_config_text(f"degrade_objects = {text}").degrade_objects is value


@pytest.mark.parametrize("text", ["ture", "2", "on", "y"])
def test_config_rejects_a_word_that_is_not_a_boolean(text):
    with pytest.raises(ConfigError, match=f"bad value for 'degrade_objects': '{text}'"):
        parse_config_text(f"degrade_objects = {text}")


@pytest.mark.parametrize("theta", [0.0, 1.0, 1.5, -0.2])
def test_config_rejects_theta_role_outside_the_open_unit_interval(theta):
    with pytest.raises(ConfigError, match=r"theta_role must be in \(0, 1\)"):
        parse_config_text(f"theta_role = {theta}")


# -- training loop -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_setup():
    result = generate(SynthConfig(n_videos=4, n_val=2, n_verbs=4, vocab_size=16,
                                  d_vid=12, d_obj=12, n_slots=4, seed=6))
    cfg = TrainConfig(epochs=1, batch_size=2, d_model=12, n_heads=2, n_layers=1,
                      dropout=0.0, eval_every=1, seed=9)
    return result, cfg


def test_train_smoke_writes_checkpoint(tiny_setup, tmp_path):
    result, cfg = tiny_setup
    out = tmp_path / "run"
    state = train(result.train, result.lexicon, cfg, out, val_samples=result.val)
    assert (out / "checkpoint_last.bin").exists()
    assert (out / "train_state.bin").exists()
    entries = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert len(entries) == 1
    assert state.epoch == 1
    # validation grounding is logged per role that has an annotated instance
    annotated = {ROLES[k] for s in result.val for i, ev in enumerate(s.annotation.events)
                 for k in ev.roles if k in VISUAL_ROLES and s.annotation.grounding.boxes_for(i, k)}
    logged = {key.split("/")[1] for key in entries[0] if key.startswith("val_iou@0.5/")}
    assert annotated and logged == annotated
    assert all(0.0 <= entries[0][f"val_iou@0.5/{role}"] <= 1.0 for role in logged)


def test_train_returns_state_without_gradients(tiny_setup, tmp_path):
    result, cfg = tiny_setup
    state = train(result.train, result.lexicon, cfg, tmp_path / "run_grads")
    params = state.model.parameters()
    assert len(params) > 0 and all(p.grad is None for p in params)


def test_train_loss_equals_sum_of_components(tiny_setup, tmp_path):
    result, cfg = tiny_setup
    out = tmp_path / "run_sum"
    train(result.train, result.lexicon, cfg, out)
    for entry in map(json.loads, (out / "metrics.jsonl").read_text().splitlines()):
        total = entry["loss_verb"] + entry["loss_role"] + entry["loss_caption"]
        # the logged loss sums float32 totals, so it may differ from the sum
        # of its logged parts by float32 rounding
        assert entry["loss"] == pytest.approx(total, rel=2 * np.finfo(np.float32).eps)


def test_train_loss_decreases_moving_average(tmp_path):
    result = generate(SynthConfig(n_videos=6, n_verbs=4, vocab_size=16,
                                  d_vid=12, d_obj=12, n_slots=4, seed=16))
    cfg = TrainConfig(epochs=8, batch_size=3, d_model=16, n_heads=2, n_layers=1,
                      dropout=0.0, lr=3e-3, seed=1)
    out = tmp_path / "run_trend"
    train(result.train, result.lexicon, cfg, out)
    losses = [json.loads(l)["loss"] for l in (out / "metrics.jsonl").read_text().splitlines()]
    ma = np.convolve(losses, np.ones(3) / 3, mode="valid")
    for a, b in zip(ma[:3], ma[1:4]):  # first 5 epochs of smoothed loss
        assert b < a


def test_train_determinism_identical_checkpoints(tiny_setup, tmp_path):
    result, cfg = tiny_setup
    out1, out2 = tmp_path / "a", tmp_path / "b"
    train(result.train, result.lexicon, cfg, out1, val_samples=result.val)
    train(result.train, result.lexicon, cfg, out2, val_samples=result.val)
    for name in ("checkpoint_last.bin", "train_state.bin", "metrics.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_train_nonfinite_loss_aborts_with_dump(tiny_setup, tmp_path):
    result, _ = tiny_setup
    cfg = TrainConfig(epochs=1, batch_size=2, d_model=12, n_heads=2, n_layers=1,
                      dropout=0.0, seed=9, lr=1e30)
    out = tmp_path / "explode"
    with pytest.raises(RuntimeError, match="non-finite"):
        train(result.train, result.lexicon, cfg, out)
    assert (out / "diagnostic_dump.json").exists()


def test_train_state_round_trip(tiny_setup, tmp_path):
    result, cfg = tiny_setup
    out = tmp_path / "state"
    state = train(result.train, result.lexicon, cfg, out)
    loaded = TrainState.load(out / "train_state.bin")
    assert loaded.epoch == state.epoch and loaded.optimizer.t == state.optimizer.t
    for (name, p), (_, q) in zip(state.model.named_parameters(),
                                 loaded.model.named_parameters()):
        np.testing.assert_array_equal(p.data, q.data)
        np.testing.assert_array_equal(state.optimizer.m[name], loaded.optimizer.m[name])
        np.testing.assert_array_equal(state.optimizer.v[name], loaded.optimizer.v[name])
    path2 = tmp_path / "state2.bin"
    loaded.save(path2)
    assert (out / "train_state.bin").read_bytes() == path2.read_bytes()


def test_train_state_load_names_missing_optimizer_keys(tiny_setup, tmp_path):
    result, cfg = tiny_setup
    out = tmp_path / "state"
    train(result.train, result.lexicon, cfg, out)
    with pytest.raises(dm.CheckpointError,
                       match=r"lacks lr, optim_t, epoch, step, optim\.m\.\*, optim\.v\.\*"):
        TrainState.load(out / "checkpoint_last.bin")  # model only
    arrays, meta = dm.load_tensors(out / "train_state.bin")
    del meta["step"], arrays["optim.v.encoder.obj_proj.w"]
    dm.save_tensors(tmp_path / "partial.bin", arrays, meta)
    with pytest.raises(dm.CheckpointError, match=r"lacks step, optim\.v\.encoder\.obj_proj\.w$"):
        TrainState.load(tmp_path / "partial.bin")


def test_train_state_load_reads_the_file_once(tiny_setup, tmp_path, monkeypatch):
    result, cfg = tiny_setup
    out = tmp_path / "state"
    state = train(result.train, result.lexicon, cfg, out)
    reads = []
    load_tensors = dm.load_tensors
    monkeypatch.setattr(dm, "load_tensors", lambda path: reads.append(path) or load_tensors(path))
    loaded = TrainState.load(out / "train_state.bin")
    assert reads == [out / "train_state.bin"]
    for (_, p), (_, q) in zip(state.model.named_parameters(), loaded.model.named_parameters()):
        np.testing.assert_array_equal(p.data, q.data)


def test_training_graphs_leave_no_cyclic_garbage(tiny_setup):
    result, cfg = tiny_setup
    vocab = build_vocabulary(caption_corpus(result.train), 1)
    mcfg = model_config_for(cfg, result.train, result.lexicon, vocab)
    model = SituationModel(mcfg, result.lexicon, vocab, rng(3))
    compiled = [compile_sample(s, vocab, mcfg) for s in result.train[:3]]
    gc.collect()
    gc.disable()
    try:
        for c in compiled:
            loss, _ = video_loss(model, c, cfg)
            loss.backward()
        del loss
        collected = gc.collect()
    finally:
        gc.enable()
    assert collected == 0


def test_balanced_sampling_mode_runs(tiny_setup, tmp_path):
    result, _ = tiny_setup
    cfg = TrainConfig(epochs=2, batch_size=2, d_model=12, n_heads=2, n_layers=1,
                      dropout=0.0, seed=9, verb_loss_mode="balanced-sampling")
    train(result.train, result.lexicon, cfg, tmp_path / "bal")


def test_adam_matches_reference_step():
    p = dm.Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    p.grad = np.array([0.5, -0.5], dtype=np.float32)
    opt.step()
    # first step: m_hat = g, v_hat = g^2 -> update = lr * g / (|g| + eps)
    np.testing.assert_allclose(p.data, [1.0 - 0.1 * (0.5 / (0.5 + 1e-8)),
                                        2.0 + 0.1 * (0.5 / (0.5 + 1e-8))], rtol=1e-6)


def test_adam_in_place_moments_equal_the_out_of_place_update():
    g = np.random.default_rng(3)
    p = dm.Tensor(g.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
    opt = Adam([("p", p)], lr=0.01)
    data, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
    for t in range(1, 6):
        grad = g.normal(size=(4, 3)).astype(np.float32)
        p.grad = grad
        opt.step()
        m = 0.9 * m + (1 - 0.9) * grad
        v = 0.999 * v + (1 - 0.999) * (grad * grad)
        data -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_array_equal(opt.m["p"], m)
        np.testing.assert_array_equal(opt.v["p"], v)
        np.testing.assert_array_equal(p.data, data)
