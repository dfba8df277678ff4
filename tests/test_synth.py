"""Generator tests: determinism, planted structure, recoverability ceiling."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from vidsrl.data_model import VISUAL_ROLES, build_vocabulary, caption_corpus, validate_sample
from vidsrl.encoder import ConfigError
from vidsrl.metrics import cider, cider_scores, evaluate
from vidsrl.synth import (
    FRAME_H, FRAME_W, SynthConfig, _distractor_boxes, _round2, generate, load_secrets,
    oracle_predict, write_dataset,
)


def dataset_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_empty_dataset_still_has_valid_lexicon():
    result = generate(SynthConfig(n_videos=0, n_verbs=12, seed=1))
    assert result.train == [] and result.val == []
    assert len(result.lexicon) == 12
    for roles in result.lexicon.role_map.values():
        assert roles


def test_generation_is_deterministic_in_memory():
    cfg = SynthConfig(n_videos=3, n_val=1, n_verbs=5, vocab_size=20, d_vid=8,
                      d_obj=8, n_slots=5, seed=17)
    a, b = generate(cfg), generate(cfg)
    for sa, sb in zip(a.all_samples, b.all_samples):
        np.testing.assert_array_equal(sa.event_features, sb.event_features)
        np.testing.assert_array_equal(sa.object_features, sb.object_features)
        np.testing.assert_array_equal(sa.boxes, sb.boxes)
    assert a.secrets.to_dict() == b.secrets.to_dict()


def test_written_dataset_byte_identical(tmp_path):
    cfg = SynthConfig(n_videos=4, n_val=2, n_verbs=6, vocab_size=20, d_vid=8,
                      d_obj=8, n_slots=5, seed=7)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    write_dataset(out1, generate(cfg))
    write_dataset(out2, generate(cfg))
    assert dataset_digest(out1) == dataset_digest(out2)


def test_sigma_zero_plants_are_pure_prototypes():
    cfg = SynthConfig(n_videos=6, n_verbs=4, vocab_size=16, d_vid=8, d_obj=12,
                      n_slots=5, noise=0.0, seed=23)
    result = generate(cfg)
    protos = result.prototypes
    seen = {}
    matched = 0
    for s in result.train:
        for i, plants in enumerate(result.secrets.entities[s.id]):
            for role, plant in plants.items():
                feat = s.object_features[plant.frame, plant.slot]
                key = (role, plant.noun, plant.attr)
                expected = protos.entity_feature(role, result.nouns.index(plant.noun),
                                                 result.attrs.index(plant.attr))
                np.testing.assert_array_equal(feat, expected)
                if key in seen:
                    np.testing.assert_array_equal(feat, seen[key])
                    matched += 1
                seen[key] = feat
    assert matched > 0  # at least one repeated (role, noun, attr) pair across videos


def test_sigma_zero_nearest_prototype_recovers_everything():
    cfg = SynthConfig(n_videos=5, n_verbs=6, vocab_size=20, d_vid=8, d_obj=12,
                      n_slots=5, noise=0.0, seed=29)
    result = generate(cfg)
    protos = result.prototypes
    for s in result.train:
        for i, ev in enumerate(s.annotation.events):
            sims = protos.verb @ s.event_features[i]
            assert int(np.argmax(sims)) == result.secrets.verbs[s.id][i]
            for role, plant in result.secrets.entities[s.id][i].items():
                feat = s.object_features[plant.frame, plant.slot]
                chunk = feat[protos.role_dim: protos.role_dim + protos.noun_dim]
                noun_hat = int(np.argmax(protos.noun @ chunk))
                assert result.nouns[noun_hat] == plant.noun


def test_planted_frames_lie_inside_their_event():
    for border in (False, True):
        cfg = SynthConfig(n_videos=4, n_verbs=5, vocab_size=16, d_vid=8, d_obj=8,
                          n_slots=5, seed=13, border_plants=border)
        result = generate(cfg)
        for s in result.train:
            for i, plants in enumerate(result.secrets.entities[s.id]):
                frames = s.schedule.frames_of_event(i)
                for plant in plants.values():
                    assert plant.frame in frames
                    mid = frames[len(frames) // 2]
                    assert plant.frame == (frames[0] if border else mid)


def test_all_configs_validate_cleanly():
    configs = [
        SynthConfig(n_videos=3, n_val=1, seed=2, d_vid=16, d_obj=16, n_slots=8,
                    n_verbs=8, vocab_size=24),
        SynthConfig(n_videos=2, seed=3, d_vid=8, d_obj=8, n_slots=6, n_verbs=4,
                    vocab_size=12, noise=0.0),
        SynthConfig(n_videos=2, seed=4, d_vid=8, d_obj=8, n_slots=6, n_verbs=4,
                    vocab_size=12, border_plants=True),
        SynthConfig(n_videos=3, seed=5, d_vid=8, d_obj=8, n_slots=6, n_verbs=6,
                    vocab_size=14, long_tail=True),
    ]
    for cfg in configs:
        result = generate(cfg)
        for s in result.all_samples:
            assert validate_sample(s, result.lexicon) == []


def test_long_tail_flag_skews_verb_counts():
    cfg = SynthConfig(n_videos=40, n_verbs=10, vocab_size=20, d_vid=8, d_obj=8,
                      n_slots=6, seed=6, long_tail=True)
    result = generate(cfg)
    counts = np.zeros(10)
    for s in result.train:
        for v in result.secrets.verbs[s.id]:
            counts[v] += 1
    assert counts[0] > counts[5:].mean() * 2  # head verb dominates the tail


def test_infeasible_config_rejected():
    with pytest.raises(ValueError, match="no room"):
        generate(SynthConfig(n_videos=1, n_slots=1, seed=0))
    with pytest.raises(ValueError, match="vocab size"):
        generate(SynthConfig(n_videos=1, vocab_size=3, seed=0))


@pytest.mark.parametrize("key, value, message", [
    ("n_videos", -1, "n_videos must be >= 0, got -1"),
    ("n_val", -2, "n_val must be >= 0, got -2"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("n_verbs", 0, "n_verbs must be >= 1, got 0"),
    ("d_vid", 0, "d_vid must be >= 1, got 0"),
    ("fps", 0.0, "fps must be > 0, got 0.0"),
    ("duration", -1.0, "duration must be > 0, got -1.0"),
    ("noise", -0.1, "noise must be >= 0, got -0.1"),
    ("noise", float("nan"), "noise must be >= 0, got nan"),
    ("n_slots", 1, "n_slots=1 leaves no room for role entities per frame"),
    ("vocab_size", 4, "vocab size 4 too small (need >= 5)"),
    ("d_obj", 5, "d_obj=5 too small for subspace prototypes"),
])
def test_config_out_of_range_fails_naming_the_field(key, value, message):
    with pytest.raises(ConfigError) as info:
        SynthConfig(**{key: value})
    assert str(info.value) == message


def test_smallest_legal_config_values_generate():
    cfg = SynthConfig(n_videos=0, n_val=0, n_verbs=1, d_vid=1, d_obj=6, n_slots=2,
                      vocab_size=5, noise=0.0, seed=0)
    assert generate(cfg).all_samples == []
    small = generate(SynthConfig(n_videos=1, n_verbs=1, d_vid=1, d_obj=6, n_slots=2,
                                 vocab_size=5, noise=0.0))
    assert validate_sample(small.train[0], small.lexicon) == []


# -- distractor boxes: one bulk draw against the per-box scalar draws -----------------


def oracle_distractor_boxes(rng, n_frames, n_slots):
    """The per-box loop the bulk draw replaced: (x1, y1, w, h) as four scalar
    draws per box, and Python's ``round`` on each coordinate."""
    def box():
        x1 = rng.uniform(0, FRAME_W - 60)
        y1 = rng.uniform(0, FRAME_H - 60)
        w = rng.uniform(20, 55)
        h = rng.uniform(20, 55)
        return (round(x1, 2), round(y1, 2), round(x1 + w, 2), round(y1 + h, 2))
    return np.array([[box() for _ in range(n_slots)] for _ in range(n_frames)])


@pytest.mark.parametrize("n_frames, n_slots", [(1, 2), (11, 15), (21, 7), (40, 30)])
def test_bulk_distractor_draw_equals_per_box_draws_and_leaves_the_same_stream(n_frames,
                                                                              n_slots):
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        want = oracle_distractor_boxes(a, n_frames, n_slots)
        got = _distractor_boxes(b, n_frames * n_slots).reshape(n_frames, n_slots, 4)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert a.random() == b.random()


def test_round2_equals_python_round_bit_for_bit_near_every_tie():
    ties = (np.arange(64000) + 0.5) / 100  # every (k + 0.5) / 100 below 640
    values = np.concatenate([
        [0.005, 0.015, 0.115],  # where rint(100 * v) / 100 alone disagrees with round
        ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
        ties + 1e-7, ties - 1e-7, ties + 2e-6, ties - 2e-6,
    ])
    values = np.concatenate([values, -values])
    want = np.array([round(v, 2) for v in values.tolist()])
    got = _round2(values)
    mismatched = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert mismatched.size == 0, values[mismatched[:5]]
    assert _round2(np.array([0.005, 0.015, 0.115])).tolist() == [0.01, 0.01, 0.12]


def test_oracle_predictions_score_perfectly():
    result = generate(SynthConfig(n_videos=0, n_val=3, n_verbs=6, vocab_size=20,
                                  d_vid=8, d_obj=8, n_slots=5, seed=37))
    preds = [oracle_predict(s, result.secrets) for s in result.val]
    report = evaluate(preds, result.val)
    assert report.verb["acc@1"] == 1.0
    assert report.grounding["iou@0.5"] == 1.0


def test_oracle_cider_equals_self_consensus_value():
    result = generate(SynthConfig(n_videos=0, n_val=3, n_verbs=6, vocab_size=20,
                                  d_vid=8, d_obj=8, n_slots=5, seed=38))
    cands, refs = [], []
    for s in result.val:
        for ev in s.annotation.events:
            for role in sorted(ev.roles):
                cands.append(ev.roles[role][0])
                refs.append(ev.roles[role])
    expected = cider(cands, refs)  # candidate == reference: corpus self-consensus
    preds = [oracle_predict(s, result.secrets) for s in result.val]
    report = evaluate(preds, result.val)
    assert report.srl["cider"] == pytest.approx(expected * 10.0, abs=1e-9)


def test_secrets_round_trip(tmp_path):
    cfg = SynthConfig(n_videos=2, n_val=1, n_verbs=4, vocab_size=16, d_vid=8,
                      d_obj=8, n_slots=5, seed=39)
    result = generate(cfg)
    write_dataset(tmp_path, result)
    secrets = load_secrets(tmp_path / "secrets.json")
    assert secrets.to_dict() == result.secrets.to_dict()


def test_captions_use_two_to_four_words():
    result = generate(SynthConfig(n_videos=5, n_verbs=6, vocab_size=20, d_vid=8,
                                  d_obj=8, n_slots=6, seed=40))
    lengths = set()
    for s in result.train:
        for ev in s.annotation.events:
            for caps in ev.roles.values():
                lengths.add(len(caps[0].split()))
                assert 2 <= len(caps[0].split()) <= 4
    assert lengths == {2, 3, 4}


def test_nouns_unique_per_video_at_default_scale():
    result = generate(SynthConfig(n_videos=6, seed=41))
    for s in result.train:
        nouns = [plant.noun for plants in result.secrets.entities[s.id]
                 for plant in plants.values()]
        assert len(nouns) == len(set(nouns))
