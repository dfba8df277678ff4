"""Stages 2 and 3: role queries, event-aware masked decoding, grounding
extraction, caption generation, and the three inference regimes."""

import numpy as np
import pytest

from vidsrl import diffmath as dm
from vidsrl.data_model import (
    BOS, EOS, ROLE_IDS, build_frame_schedule, build_vocabulary, make_events,
    roles_for_verb,
)
from vidsrl.encoder import ModelConfig
from vidsrl.srl import (
    FALLBACK_ROLE, CaptionDecoder, RoleObjectDecoder, RoleQuery, SituationModel,
    _block_masks, build_event_mask, build_role_queries, decode_roles, extract_grounding,
    read_predictions, records_from_json, records_to_json,
    write_predictions,
)
from vidsrl.synth import SynthConfig, generate
from vidsrl.training import TrainConfig, compile_sample, model_config_for
from vidsrl.data_model import build_vocabulary, caption_corpus


def rng(seed=0):
    return np.random.default_rng(seed)


def small_cfg(**kw):
    defaults = dict(d_model=16, n_heads=2, n_layers=2,
                    d_vid=16, d_obj=16, n_verbs=6, vocab_size=20)
    defaults.update(kw)
    return ModelConfig(**defaults)


@pytest.fixture(scope="module")
def synth_result():
    return generate(SynthConfig(n_videos=2, n_val=1, n_verbs=6, vocab_size=20,
                                d_vid=16, d_obj=16, n_slots=6, seed=21))


@pytest.fixture(scope="module")
def model(synth_result):
    vocab = build_vocabulary(caption_corpus(synth_result.train), 1)
    cfg = small_cfg(vocab_size=len(vocab))
    return SituationModel(cfg, synth_result.lexicon, vocab, rng(2))


# -- role queries -----------------------------------------------------------------


def test_query_is_role_embedding_when_context_zero():
    role_table = dm.Tensor(rng(3).normal(size=(11, 8)).astype(np.float32))
    zeros = dm.Tensor(np.zeros((5, 8), dtype=np.float32))
    q, index = build_role_queries([[2], [], [], [], []], zeros, role_table, zeros)
    assert index == [RoleQuery(0, 2)]
    np.testing.assert_allclose(q.data[0], role_table.data[2], atol=1e-7)


def test_queries_ordered_by_event_then_role():
    role_table = dm.Tensor(np.zeros((11, 4), dtype=np.float32))
    ctx = dm.Tensor(np.zeros((5, 4), dtype=np.float32))
    q, index = build_role_queries([[1, 0]] * 5, ctx, role_table, ctx)
    assert q.shape == (10, 4)
    assert index == [RoleQuery(i, k) for i in range(5) for k in (0, 1)]


def test_query_context_can_be_verb_embeddings():
    # ablation path: replace event context with learned verb embeddings
    role_table = dm.Tensor(rng(4).normal(size=(11, 8)).astype(np.float32))
    pe = dm.Tensor(rng(5).normal(size=(5, 8)).astype(np.float32))
    e_ctx = dm.Tensor(rng(6).normal(size=(5, 8)).astype(np.float32))
    verb_emb = dm.Embedding(6, 8, rng(7))
    verbs = [0, 2, 1, 5, 3]
    verb_ctx = verb_emb(np.array(verbs))
    role_sets = [[0, 1]] * 5
    q_event, idx1 = build_role_queries(role_sets, e_ctx, role_table, pe)
    q_verb, idx2 = build_role_queries(role_sets, verb_ctx, role_table, pe)
    assert idx1 == idx2 and q_event.shape == q_verb.shape
    assert np.abs(q_event.data - q_verb.data).max() > 0


def test_query_unknown_role_rejected():
    t = dm.Tensor(np.zeros((11, 4), dtype=np.float32))
    with pytest.raises(KeyError, match="unknown role"):
        build_role_queries([[11], [], [], [], []], t, t, t)


# -- event mask --------------------------------------------------------------------


def default_schedule():
    events = make_events(10.0, [(2 * i, 2 * i + 2) for i in range(5)])
    return build_frame_schedule(10.0, events, fps=1.0)


def test_event_mask_allows_exactly_event_frames():
    sched = default_schedule()
    queries = [RoleQuery(0, 0), RoleQuery(3, 1)]
    mask = build_event_mask(queries, sched, n_slots=15)
    assert mask.shape == (2, 165)
    assert mask[0].sum() == 45  # frames {0,1,2} x 15 slots
    allowed_frames = {p // 15 for p in np.flatnonzero(mask[0])}
    assert allowed_frames == {0, 1, 2}
    assert {p // 15 for p in np.flatnonzero(mask[1])} == {6, 7, 8}


def test_event_mask_single_event_video_all_true():
    sched = build_frame_schedule(2.0, make_events(2.0, [(0, 2)]), fps=1.0)
    mask = build_event_mask([RoleQuery(0, 0)], sched, n_slots=4)
    assert mask.all()


def test_event_mask_border_frame_shared():
    sched = default_schedule()
    mask = build_event_mask([RoleQuery(0, 0), RoleQuery(1, 0)], sched, n_slots=3)
    border_cols = [2 * 3 + m for m in range(3)]  # frame 2 proposals
    assert mask[0, border_cols].all() and mask[1, border_cols].all()


# -- role-object decoding --------------------------------------------------------------


def test_decoder_masked_columns_zero_in_every_layer():
    cfg = small_cfg(n_layers=3)
    dec = RoleObjectDecoder(cfg, rng(8))
    queries = dm.Tensor(rng(9).normal(size=(4, 16)).astype(np.float32))
    objects = dm.Tensor(rng(10).normal(size=(20, 16)).astype(np.float32))
    mask = rng(11).random((4, 20)) > 0.5
    mask[:, 0] = True
    _, all_w, final = dec.forward(queries, objects, mask)
    assert len(all_w) == 3
    for w in all_w:
        assert np.all(w.data[~mask] == 0.0)
        np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_array_equal(final.data, all_w[-1].data)


def test_decoder_single_allowed_proposal_gets_all_attention():
    # one event, one frame, one slot: the attention has nowhere else to go
    sched = build_frame_schedule(0.5, make_events(0.5, [(0, 0.5)]), fps=1.0)
    assert sched.n_frames == 1
    cfg = small_cfg(n_layers=2)
    dec = RoleObjectDecoder(cfg, rng(12))
    mask = build_event_mask([RoleQuery(0, 0)], sched, n_slots=1)
    queries = dm.Tensor(rng(13).normal(size=(1, 16)).astype(np.float32))
    objects = dm.Tensor(rng(14).normal(size=(1, 16)).astype(np.float32))
    _, _, final = dec.forward(queries, objects, mask)
    np.testing.assert_array_equal(final.data, [[1.0]])


def test_out_of_event_perturbation_bit_identical_single_query():
    cfg = small_cfg(n_layers=2)
    dec = RoleObjectDecoder(cfg, rng(15))
    queries = dm.Tensor(rng(16).normal(size=(1, 16)).astype(np.float32))
    objects = rng(17).normal(size=(10, 16)).astype(np.float32)
    mask = np.zeros((1, 10), dtype=bool)
    mask[0, :4] = True
    z1, _, _ = dec.forward(queries, dm.Tensor(objects), mask)
    perturbed = objects.copy()
    perturbed[7] += 3.0  # masked for the only query
    z2, _, _ = dec.forward(queries, dm.Tensor(perturbed), mask)
    np.testing.assert_array_equal(z1.data, z2.data)


def test_decoder_mask_shape_check():
    cfg = small_cfg(n_layers=1)
    dec = RoleObjectDecoder(cfg, rng(18))
    with pytest.raises(ValueError, match="event mask shape"):
        dec.forward(dm.Tensor(np.zeros((2, 16), np.float32)),
                    dm.Tensor(np.zeros((5, 16), np.float32)),
                    np.ones((2, 4), dtype=bool))


# -- grounding extraction -----------------------------------------------------------------


def test_extract_grounding_unique_max(synth_result):
    sample = synth_result.train[0]
    n = len(sample.proposals)
    alpha = np.zeros(n)
    target = sample.proposal_index(7, 4)
    alpha[target] = 0.9
    allowed = np.ones(n, dtype=bool)
    g = extract_grounding(alpha, allowed, sample)
    assert (g.frame, g.slot) == (7, 4)
    assert g.box == sample.proposals[target].box
    assert g.score == pytest.approx(0.9)


def test_extract_grounding_tie_prefers_earlier_frame(synth_result):
    sample = synth_result.train[0]
    n = len(sample.proposals)
    alpha = np.zeros(n)
    alpha[sample.proposal_index(1, 3)] = 0.5
    alpha[sample.proposal_index(2, 3)] = 0.5
    g = extract_grounding(alpha, np.ones(n, dtype=bool), sample)
    assert (g.frame, g.slot) == (1, 3)


def test_extract_grounding_respects_allowed_set(synth_result):
    sample = synth_result.train[0]
    n = len(sample.proposals)
    alpha = np.zeros(n)
    alpha[sample.proposal_index(9, 0)] = 1.0  # outside the allowed set
    allowed = np.zeros(n, dtype=bool)
    inside = sample.proposal_index(1, 2)
    allowed[inside] = True
    g = extract_grounding(alpha, allowed, sample)
    assert (g.frame, g.slot) == (1, 2)


# -- caption generation ------------------------------------------------------------------


def test_caption_forced_eos_gives_empty(model):
    cap = CaptionDecoder(model.cfg, rng(19))
    cap.out.w.data[:] = 0.0
    cap.out.b.data[:] = 0.0
    cap.out.b.data[EOS] = 10.0
    assert cap.greedy(dm.Tensor(np.zeros((1, 16), dtype=np.float32))) == [[]]


def test_caption_greedy_deterministic(model):
    z = rng(20).normal(size=(3, 16)).astype(np.float32)
    a = model.captioner.greedy(dm.Tensor(z))
    b = model.captioner.greedy(dm.Tensor(z))
    assert a == b
    for ids in a:
        assert len(ids) <= model.cfg.max_caption_len
        assert all(0 <= t < len(model.vocab) for t in ids)


def test_caption_lockstep_equals_single_decoding(model):
    z = rng(22).normal(size=(4, 16)).astype(np.float32)
    batch = model.captioner.greedy(dm.Tensor(z))
    for r in range(4):
        single = model.captioner.greedy(dm.Tensor(z[r: r + 1]))
        assert single[0] == batch[r]


def test_caption_max_len_respected(model):
    z = rng(23).normal(size=(2, 16)).astype(np.float32)
    ids = model.captioner.greedy(dm.Tensor(z), max_len=3)
    assert all(len(i) <= 3 for i in ids)
    with pytest.raises(ValueError, match="max_len"):
        model.captioner.greedy(dm.Tensor(z), max_len=0)


def full_prefix_greedy(cap, z, max_len):
    """Oracle for ``CaptionDecoder.greedy``: every step re-runs the
    teacher-forced ``logits`` over the whole prefix and takes the argmax at
    its last position. Returns the captions and the number of steps run."""
    n_roles = z.shape[0]
    tokens = np.full((n_roles, 1), BOS, dtype=np.int64)
    done = np.zeros(n_roles, dtype=bool)
    for _ in range(max_len + 1):
        nxt = cap.logits(tokens, z).data[:, -1].argmax(axis=1)
        tokens = np.concatenate([tokens, nxt[:, None]], axis=1)
        done |= nxt == EOS
        if done.all():
            break
    captions = []
    for row in tokens[:, 1:].tolist():
        captions.append((row[:row.index(EOS)] if EOS in row else row)[:max_len])
    return captions, tokens.shape[1] - 1


def test_cached_greedy_matches_oracle_on_untrained_captioner():
    # this random captioner never emits EOS, so all max_len + 1 steps run
    cap = CaptionDecoder(small_cfg(vocab_size=24), rng(26))
    z = dm.Tensor(rng(126).normal(size=(4, 16)).astype(np.float32))
    max_len = cap.cfg.max_caption_len
    expected, steps = full_prefix_greedy(cap, z, max_len)
    assert steps == max_len + 1 and all(len(c) == max_len for c in expected)
    assert cap.greedy(z) == expected


@pytest.mark.parametrize("eos_bias", [1.25, 1.45])
def test_cached_greedy_matches_oracle_when_roles_stop_at_different_steps(eos_bias):
    # raising the EOS bias of a random captioner makes some roles stop early:
    # at 1.25 two roles stop and two run to max_len; at 1.45 all four stop,
    # at different steps, so the lockstep loop ends early
    cap = CaptionDecoder(small_cfg(vocab_size=24), rng(26))
    cap.out.b.data[EOS] += eos_bias
    z = dm.Tensor(rng(126).normal(size=(4, 16)).astype(np.float32))
    max_len = cap.cfg.max_caption_len
    expected, _ = full_prefix_greedy(cap, z, max_len)
    lengths = [len(c) for c in expected]
    assert len(set(lengths)) > 1 and min(lengths) < max_len
    assert cap.greedy(z) == expected


def test_captioner_cross_attention_to_one_role_is_its_value_row(model):
    # the identity greedy relies on: one allowed key per position gives a
    # softmax of exactly 1, so the output is that role's wv(z) row exactly
    n_roles, length = 3, 4
    attn = model.captioner.layers[0].cross_attn
    x = dm.Tensor(rng(27).normal(size=(n_roles * length, 16)).astype(np.float32))
    z = dm.Tensor(rng(28).normal(size=(n_roles, 16)).astype(np.float32))
    _, cross_mask = _block_masks(n_roles, length)
    out, weights = dm.multi_head_attention(attn.wq(x), attn.wk(z), attn.wv(z),
                                           attn.n_heads, cross_mask)
    assert np.array_equal(out.data, np.repeat(attn.wv(z).data, length, axis=0))
    assert np.array_equal(weights.data, cross_mask.astype(np.float32))


# -- full prediction --------------------------------------------------------------------


def test_predict_leaves_every_gradient_unset(model, synth_result):
    model.predict_situation(synth_result.train[0], regime="pred-pred")
    assert all(p.grad is None for p in model.parameters())



def test_predict_structural_gt_roles(model, synth_result):
    sample = synth_result.train[0]
    records = model.predict_situation(sample, regime="gt-roles")
    assert len(records) == 5
    for i, rec in enumerate(records):
        gt_roles = sorted(sample.annotation.events[i].roles)
        assert [rp.role for rp in rec.roles] == gt_roles
        assert len(rec.top5_verbs) == 5
        for rp in rec.roles:
            frames = sample.schedule.frames_of_event(i)
            assert rp.grounding.frame in frames  # grounding never leaves the event


def test_predict_gt_map_role_sets_follow_lookup(model, synth_result):
    sample = synth_result.train[1]
    records = model.predict_situation(sample, regime="pred-gt-map")
    for rec in records:
        expected = sorted(roles_for_verb(model.lexicon, rec.verb))
        assert [rp.role for rp in rec.roles] == expected


def test_predict_pred_pred_fallback_role(synth_result):
    vocab = build_vocabulary(caption_corpus(synth_result.train), 1)
    cfg = small_cfg(vocab_size=len(vocab))
    m = SituationModel(cfg, synth_result.lexicon, vocab, rng(24))
    m.encoder.role_out.w.data[:] = 0.0
    m.encoder.role_out.b.data[:] = 0.0  # all probabilities 0.5 -> empty sets
    records = m.predict_situation(synth_result.train[0], regime="pred-pred")
    for rec in records:
        assert [rp.role for rp in rec.roles] == [FALLBACK_ROLE]


def test_predict_unknown_regime(model, synth_result):
    with pytest.raises(ValueError, match="unknown regime"):
        model.predict_situation(synth_result.train[0], regime="bogus")


def test_alpha_is_simplex_on_event_support(model, synth_result):
    sample = synth_result.train[0]
    inputs_cfg = model.cfg
    from vidsrl.encoder import prepare_inputs
    inputs = prepare_inputs(sample)
    o_ctx, e_ctx = model.encoder.forward(inputs)
    role_sets = [sorted(ev.roles) for ev in sample.annotation.events]
    q, index = build_role_queries(role_sets, e_ctx,
                                  model.role_decoder.role_embed.table,
                                  model.encoder.pe_event.table)
    mask = build_event_mask(index, sample.schedule, sample.n_slots)
    out = decode_roles(model.role_decoder, q, index, o_ctx, mask)
    for qi in range(len(index)):
        assert np.all(out.alpha[qi][~mask[qi]] == 0.0)
        assert out.alpha[qi].sum() == pytest.approx(1.0, abs=1e-6)


def test_within_frame_permutation_permutes_alpha_keeps_captions(model, synth_result):
    import copy
    sample = synth_result.train[0]
    rec1 = model.predict_situation(sample, regime="gt-roles", keep_alpha=True)

    permuted = copy.deepcopy(sample)
    m = permuted.n_slots
    perm = rng(25).permutation(m)
    full_perm = np.arange(len(permuted.proposals))
    frame = 3
    for new_slot, old_slot in enumerate(perm):
        full_perm[permuted.proposal_index(frame, new_slot)] = sample.proposal_index(frame, int(old_slot))
    props = [sample.proposals[i] for i in full_perm]
    from vidsrl.data_model import ObjectProposal
    permuted.proposals = [
        ObjectProposal(frame_index=i // m, slot=i % m, box=p.box,
                       width=p.width, height=p.height, feature=p.feature)
        for i, p in enumerate(props)
    ]
    rec2 = model.predict_situation(permuted, regime="gt-roles", keep_alpha=True)
    for r1, r2 in zip(rec1, rec2):
        for rp1, rp2 in zip(r1.roles, r2.roles):
            assert rp1.caption == rp2.caption
            np.testing.assert_allclose(rp1.alpha[full_perm], rp2.alpha, atol=1e-6)


def test_predict_bit_reproducible(model, synth_result):
    sample = synth_result.val[0]
    a = model.predict_situation(sample, regime="pred-pred")
    b = model.predict_situation(sample, regime="pred-pred")
    assert records_to_json(a) == records_to_json(b)


# -- serialization ------------------------------------------------------------------------


def test_records_round_trip(model, synth_result, tmp_path):
    per_video = [model.predict_situation(s, regime="gt-roles") for s in synth_result.train]
    path = tmp_path / "preds.jsonl"
    write_predictions(path, per_video)
    back = read_predictions(path)
    assert len(back) == len(per_video)
    for orig, loaded in zip(per_video, back):
        assert records_to_json(orig) == records_to_json(loaded)


def test_records_alpha_dump(model, synth_result, tmp_path):
    recs = model.predict_situation(synth_result.train[0], regime="gt-roles", keep_alpha=True)
    doc = records_to_json(recs, include_alpha=True)
    assert "alpha" in doc["events"][0]["roles"][0]
    n = len(synth_result.train[0].proposals)
    assert len(doc["events"][0]["roles"][0]["alpha"]) == n


def test_model_checkpoint_round_trip(model, synth_result, tmp_path):
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = SituationModel.load(path)
    s = synth_result.val[0]
    assert records_to_json(model.predict_situation(s)) == records_to_json(loaded.predict_situation(s))
