"""Stage-1 encoder: token embedding, contextualisation, verb and role heads."""

import numpy as np
import pytest

from vidsrl import diffmath as dm
from vidsrl.encoder import (
    ConfigError, ModelConfig, SampleInputs, VideoObjectEncoder, box_position_features,
    prepare_inputs, proposal_event_owners,
)
from vidsrl.synth import SynthConfig, generate

from test_diffmath import oracle_layer_norm


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def full_sample():
    # default protocol dims: T=11 frames, M=15 proposals, 5 events
    result = generate(SynthConfig(n_videos=1, n_verbs=6, d_vid=16, d_obj=16,
                                  n_slots=15, seed=9))
    return result.train[0]


def small_cfg(**kw):
    defaults = dict(d_model=16, n_heads=2, n_layers=2,
                    d_vid=16, d_obj=16, n_verbs=6, vocab_size=20)
    defaults.update(kw)
    return ModelConfig(**defaults)


def test_model_config_dict_round_trip_names_keys_that_do_not_fit():
    cfg = small_cfg()
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    old = {**cfg.to_dict(), "share_event_pe": True}
    del old["d_obj"]
    with pytest.raises(dm.CheckpointError, match=r"unknown keys \['share_event_pe'\], "
                                                  r"missing keys \['d_obj'\]"):
        ModelConfig.from_dict(old)


@pytest.fixture(scope="module")
def encoder(full_sample):
    return VideoObjectEncoder(small_cfg(), rng(1))


def test_sequence_length_is_objects_plus_events(full_sample, encoder):
    inputs = prepare_inputs(full_sample)
    tokens = encoder.embed_tokens(inputs)
    assert tokens.shape == (11 * 15 + 5, 16)  # 165 objects + 5 events


def test_embed_is_additive(encoder):
    # zero feature and a fixed box: token must equal the sum of its parts
    box_feat = np.array([[0.5, 0.5, 0.2, 0.2, 0.04]], dtype=np.float32)
    inputs = SampleInputs(
        object_features=np.zeros((1, 16), dtype=np.float32),
        event_features=np.zeros((1, 16), dtype=np.float32),
        box_positions=box_feat,
        owners=np.array([0]),
    )
    tokens = encoder.embed_tokens(inputs).data
    expected_obj = (encoder.obj_proj(dm.Tensor(np.zeros((1, 16), np.float32))).data
                    + encoder.pe_event.table.data[0]
                    + encoder.box_proj(dm.Tensor(box_feat)).data)
    np.testing.assert_allclose(tokens[0], expected_obj[0], atol=1e-6)
    expected_evt = (encoder.event_proj(dm.Tensor(np.zeros((1, 16), np.float32))).data
                    + encoder.pe_event.table.data[0])
    np.testing.assert_allclose(tokens[1], expected_evt[0], atol=1e-6)


def test_identical_proposals_differ_by_event_pe(encoder):
    feat = rng(3).normal(size=16).astype(np.float32)
    box = np.array([0.3, 0.3, 0.1, 0.1, 0.01], dtype=np.float32)
    inputs = SampleInputs(
        object_features=np.stack([feat, feat]),
        event_features=np.zeros((3, 16), dtype=np.float32),
        box_positions=np.stack([box, box]),
        owners=np.array([0, 2]),
    )
    tokens = encoder.embed_tokens(inputs).data
    diff = tokens[0] - tokens[1]
    expected = encoder.pe_event.table.data[0] - encoder.pe_event.table.data[2]
    np.testing.assert_allclose(diff, expected, atol=1e-6)


def test_border_proposal_gets_earlier_event_pe(full_sample):
    owners = proposal_event_owners(full_sample)
    oracle = [full_sample.schedule.owner_event(p // 15) for p in range(165)]
    np.testing.assert_array_equal(owners, oracle)
    assert (owners.reshape(11, 15)[2] == 0).all()  # frame 2 is shared by events 0 and 1


def box_position_oracle(sample):
    """Per-proposal float64 arithmetic, each value then rounded to float32."""
    out = np.empty((sample.boxes.shape[0] * sample.n_slots, 5), dtype=np.float32)
    for i, box in enumerate(sample.boxes.reshape(-1, 4).tolist()):
        x1, y1, x2, y2 = box
        w = (x2 - x1) / sample.width
        h = (y2 - y1) / sample.height
        out[i] = ((x1 + x2) / (2 * sample.width), (y1 + y2) / (2 * sample.height), w, h, w * h)
    return out


def test_box_position_features_normalized(full_sample):
    feats = box_position_features(full_sample)
    assert feats.shape == (165, 5)
    assert np.all(feats >= 0) and np.all(feats <= 1)
    assert np.array_equal(feats, box_position_oracle(full_sample))


def test_encode_preserves_token_count(full_sample, encoder):
    inputs = prepare_inputs(full_sample)
    o_ctx, e_ctx = encoder.forward(inputs)
    assert o_ctx.shape == (165, 16)
    assert e_ctx.shape == (5, 16)


def test_encode_equivariant_under_object_permutation(full_sample, encoder):
    inputs = prepare_inputs(full_sample)
    o1, e1 = encoder.forward(inputs)
    perm = rng(4).permutation(len(inputs.object_features))
    permuted = SampleInputs(
        object_features=inputs.object_features[perm],
        event_features=inputs.event_features,
        box_positions=inputs.box_positions[perm],
        owners=inputs.owners[perm],
    )
    o2, e2 = encoder.forward(permuted)
    np.testing.assert_allclose(o2.data, o1.data[perm], atol=1e-6)
    np.testing.assert_allclose(e2.data, e1.data, atol=1e-6)


def test_single_layer_zero_ffn_matches_attention_oracle():
    cfg = small_cfg(n_layers=1)
    enc = VideoObjectEncoder(cfg, rng(5))
    layer = enc.layers[0]
    layer.ffn_out.w.data[:] = 0.0
    layer.ffn_out.b.data[:] = 0.0
    tokens = dm.Tensor(rng(6).normal(size=(12, 16)).astype(np.float32))
    o_ctx, e_ctx = enc.encode(tokens)
    attn, _ = layer.self_attn(tokens, tokens, None)
    h = oracle_layer_norm(dm.add(tokens, attn), layer.ln1.gain, layer.ln1.bias)
    expected = oracle_layer_norm(h, layer.ln2.gain, layer.ln2.bias).data
    np.testing.assert_allclose(np.vstack([o_ctx.data, e_ctx.data]), expected, atol=1e-6)


def test_predict_verbs_shape_and_tiebreak(encoder):
    e_ctx = dm.Tensor(rng(7).normal(size=(5, 16)).astype(np.float32))
    logits = encoder.predict_verbs(e_ctx)
    assert logits.shape == (5, 6)
    # zeroed MLP: all logits equal the output bias, argmax picks lowest id
    cfg = small_cfg()
    enc = VideoObjectEncoder(cfg, rng(8))
    enc.verb_out.w.data[:] = 0.0
    enc.verb_out.b.data[:] = 0.25
    logits = enc.predict_verbs(e_ctx).data
    np.testing.assert_allclose(logits, 0.25, atol=1e-7)
    assert np.argmax(logits, axis=1).tolist() == [0] * 5


def test_predict_roles_threshold_behaviour(encoder):
    cfg = small_cfg()
    enc = VideoObjectEncoder(cfg, rng(10))
    enc.role_out.w.data[:] = 0.0
    enc.role_out.b.data[:] = 0.0
    e_ctx = dm.Tensor(rng(11).normal(size=(5, 16)).astype(np.float32))
    probs, sets = enc.predict_roles(e_ctx)
    np.testing.assert_allclose(probs.data, 0.5, atol=1e-7)
    assert sets == [[]] * 5  # strictly greater than theta, so 0.5 stays out
    enc.role_out.b.data[3] = 10.0
    probs, sets = enc.predict_roles(e_ctx)
    assert probs.data[0, 3] > 0.9999
    assert sets == [[3]] * 5


def test_predict_roles_probabilities_in_open_interval(encoder):
    e_ctx = dm.Tensor(rng(12).normal(size=(5, 16)).astype(np.float32) * 10)
    probs, _ = encoder.predict_roles(e_ctx)
    assert np.all(probs.data > 0.0) and np.all(probs.data < 1.0)


def test_predict_roles_monotone_in_logit(encoder):
    cfg = small_cfg()
    enc = VideoObjectEncoder(cfg, rng(13))
    e_ctx = dm.Tensor(np.zeros((1, 16), dtype=np.float32))
    base = enc.predict_roles(e_ctx)[0].data[0, 2]
    enc.role_out.b.data[2] += 1.0
    higher = enc.predict_roles(e_ctx)[0].data[0, 2]
    assert higher > base


def test_predict_roles_rejects_bad_theta():
    # the model config checks the threshold where it is built, also when it
    # is read from a checkpoint, so predict_roles never sees a bad one
    for theta in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigError, match=r"theta_role must be in \(0, 1\)"):
            small_cfg(theta_role=theta)
        with pytest.raises(dm.CheckpointError, match="theta_role"):
            ModelConfig.from_dict({**small_cfg().to_dict(), "theta_role": theta})


def test_verb_logits_depend_on_every_object(full_sample, encoder):
    inputs = prepare_inputs(full_sample)
    _, e_ctx = encoder.forward(inputs)
    base = encoder.predict_verbs(e_ctx).data
    g = rng(14)
    for idx in g.choice(len(inputs.object_features), size=5, replace=False):
        bumped = SampleInputs(
            object_features=inputs.object_features.copy(),
            event_features=inputs.event_features,
            box_positions=inputs.box_positions,
            owners=inputs.owners,
        )
        bumped.object_features[idx] += 1.0
        _, e2 = encoder.forward(bumped)
        assert np.abs(encoder.predict_verbs(e2).data - base).max() > 0


def test_encode_is_pure(full_sample, encoder):
    inputs = prepare_inputs(full_sample)
    o1, e1 = encoder.forward(inputs)
    o2, e2 = encoder.forward(inputs)
    np.testing.assert_array_equal(o1.data, o2.data)
    np.testing.assert_array_equal(e1.data, e2.data)


def test_degraded_inputs_copy_event_features(full_sample):
    inputs = prepare_inputs(full_sample, degrade_objects=True)
    owners = proposal_event_owners(full_sample)
    np.testing.assert_array_equal(inputs.object_features,
                                  full_sample.event_features[owners])


def test_degraded_inputs_need_matching_dims():
    result = generate(SynthConfig(n_videos=1, n_verbs=4, d_vid=16, d_obj=32,
                                  n_slots=4, seed=3))
    with pytest.raises(ValueError, match="matching"):
        prepare_inputs(result.train[0], degrade_objects=True)
