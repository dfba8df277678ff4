"""Domain types, schedules, proposal association, vocabulary, dataset I/O."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsrl.data_model import (
    ROLE_IDS, ROLES, DatasetError, Event, ObjectProposal, VerbLexicon,
    associate_proposals, build_frame_schedule, build_vocabulary,
    load_dataset, load_dataset_dir, make_events, read_feature_file,
    roles_for_verb, validate_sample, write_feature_file,
)
from vidsrl.synth import SynthConfig, generate, write_dataset


def five_events(duration=10.0):
    step = duration / 5
    return make_events(duration, [(i * step, (i + 1) * step) for i in range(5)])


# -- lexicon -------------------------------------------------------------------


def test_roles_for_verb_hit_example():
    lex = VerbLexicon(
        verbs=["hit"],
        role_map={0: frozenset(ROLE_IDS[r] for r in ("Arg0", "Arg1", "Arg2", "AMnr", "ALoc"))},
    )
    assert roles_for_verb(lex, 0) == frozenset(
        ROLE_IDS[r] for r in ("Arg0", "Arg1", "Arg2", "AMnr", "ALoc"))


def test_roles_for_verb_single_role():
    lex = VerbLexicon(verbs=["wave"], role_map={0: frozenset({ROLE_IDS["Arg0"]})})
    assert roles_for_verb(lex, 0) == frozenset({0})


def test_roles_for_verb_matches_generated_table():
    result = generate(SynthConfig(n_videos=0, n_verbs=20, seed=11))
    lex = result.lexicon
    assert len(lex) == 20
    for v in range(20):
        roles = roles_for_verb(lex, v)
        assert roles == lex.role_map[v]
        assert 2 <= len(roles) <= 5
        assert 0 in roles  # Arg0 always present in the generated tables


def test_roles_for_verb_unknown_id():
    lex = VerbLexicon(verbs=["run"], role_map={0: frozenset({0})})
    with pytest.raises(KeyError, match="unknown verb id"):
        roles_for_verb(lex, 5)


def test_lexicon_rejects_empty_role_set():
    with pytest.raises(DatasetError, match="empty role set"):
        VerbLexicon(verbs=["run"], role_map={0: frozenset()})


def test_lexicon_round_trip():
    lex = generate(SynthConfig(n_videos=0, n_verbs=7, seed=2)).lexicon
    again = VerbLexicon.from_dict(lex.to_dict())
    assert again.verbs == lex.verbs and again.role_map == lex.role_map


@pytest.mark.parametrize("edit,key", [
    (lambda d: d.pop("verbs"), "'verbs'"),
    (lambda d: d.pop("role_map"), "'role_map'"),
    (lambda d: d["role_map"].update(fly=["Arg0"]), "'fly'"),
    (lambda d: d["role_map"][d["verbs"][0]].append("Arg9"), "'Arg9'"),
], ids=["no-verbs", "no-role_map", "unknown-verb", "unknown-role"])
def test_lexicon_from_dict_names_bad_key(edit, key):
    d = generate(SynthConfig(n_videos=0, n_verbs=3, seed=2)).lexicon.to_dict()
    edit(d)
    with pytest.raises(DatasetError, match=f"lexicon .*{key}"):
        VerbLexicon.from_dict(d)


# -- frame schedule ---------------------------------------------------------------


def test_schedule_default_protocol():
    sched = build_frame_schedule(10.0, five_events(), fps=1.0)
    assert sched.n_frames == 11
    assert sched.frames_of_event(0) == (0, 1, 2)
    assert sched.frames_of_event(1) == (2, 3, 4)
    assert sched.frames_of_event(4) == (8, 9, 10)
    assert all(len(f) == 3 for f in sched.per_event_frames)


def test_schedule_single_event():
    sched = build_frame_schedule(2.0, make_events(2.0, [(0.0, 2.0)]), fps=1.0)
    assert sched.frames_of_event(0) == (0, 1, 2)


def test_schedule_fps2_matches_interval_predicate_oracle():
    sched = build_frame_schedule(10.0, five_events(), fps=2.0)
    assert sched.n_frames == 21
    times = [j / 2.0 for j in range(21)]  # enumerate timestamps independently
    for i, ev in enumerate(five_events()):
        expected = tuple(j for j, t in enumerate(times) if ev.start_s <= t <= ev.end_s)
        assert sched.frames_of_event(i) == expected
        assert len(expected) == 5
    for a, b in zip(sched.per_event_frames, sched.per_event_frames[1:]):
        assert len(set(a) & set(b)) == 1  # single shared border frame


def test_schedule_rejects_gaps_and_overlaps():
    bad = make_events(10.0, [(0, 2), (3, 10)])
    with pytest.raises(DatasetError, match="overlap or leave a gap"):
        build_frame_schedule(10.0, bad, fps=1.0)
    bad = make_events(10.0, [(0, 3), (2, 10)])
    with pytest.raises(DatasetError):
        build_frame_schedule(10.0, bad, fps=1.0)


def test_schedule_rejects_bad_fps_and_empty_events():
    with pytest.raises(DatasetError, match="fps"):
        build_frame_schedule(10.0, five_events(), fps=0)
    with pytest.raises(DatasetError, match="no frames"):
        build_frame_schedule(10.0, five_events(), fps=0.01)


def test_all_frames_covered_by_events():
    for fps in (1.0, 2.0, 3.0):
        sched = build_frame_schedule(10.0, five_events(), fps=fps)
        covered = set().union(*[set(f) for f in sched.per_event_frames])
        assert covered == set(range(sched.n_frames))
        assert all(len(f) >= 1 for f in sched.per_event_frames)


# -- proposal association -----------------------------------------------------------


def proposals_for(sched, m, d=4):
    out = []
    for t in range(sched.n_frames):
        for slot in range(m):
            out.append(ObjectProposal(frame_index=t, slot=slot, box=(0, 0, 10, 10),
                                      width=100, height=100, feature=np.zeros(d, np.float32)))
    return out


def test_associate_counts_and_borders():
    sched = build_frame_schedule(10.0, five_events(), fps=1.0)
    props = proposals_for(sched, m=15)
    assert len(props) == 165  # T * M distinct proposals
    groups = associate_proposals(sched, props)
    assert all(len(g) == 45 for g in groups)  # 3 frames x 15 slots per event
    border = [i for i, p in enumerate(props) if p.frame_index == 2]
    for idx in border:
        assert idx in groups[0] and idx in groups[1]
    shared = sum(len(set(a) & set(b)) > 0 for a, b in zip(groups, groups[1:]))
    assert shared == 4


def test_associate_sum_identity():
    # sum over events counts border proposals twice
    sched = build_frame_schedule(10.0, five_events(), fps=1.0)
    m = 7
    groups = associate_proposals(sched, proposals_for(sched, m=m))
    n_borders = 4
    assert sum(len(g) for g in groups) == m * (sched.n_frames + n_borders)


def test_associate_rejects_out_of_schedule_frame():
    sched = build_frame_schedule(10.0, five_events(), fps=1.0)
    props = proposals_for(sched, m=1)
    props.append(ObjectProposal(frame_index=99, slot=0, box=(0, 0, 1, 1),
                                width=10, height=10, feature=np.zeros(4, np.float32)))
    with pytest.raises(DatasetError, match="out-of-schedule"):
        associate_proposals(sched, props)


# -- vocabulary -------------------------------------------------------------------------


def test_vocabulary_basic_counts():
    vocab = build_vocabulary(["man walks", "man runs"], min_count=1)
    assert len(vocab) == 7  # 3 words + 4 reserved
    assert vocab.encode("man walks runs") == [4, 6, 5]  # count desc, then lexicographic


def test_vocabulary_min_count_threshold():
    vocab = build_vocabulary(["man walks", "man runs"], min_count=2)
    assert len(vocab) == 5
    assert vocab.encode("man walks") == [4, 3]  # walks falls to UNK


def test_vocabulary_generator_inventory():
    result = generate(SynthConfig(n_videos=50, n_val=0, seed=7))
    corpus = [cap for s in result.train for ev in s.annotation.events
              for caps in ev.roles.values() for cap in caps]
    vocab = build_vocabulary(corpus, min_count=1)
    assert len(vocab) == 54  # 50 content words + 4 reserved


def test_vocabulary_empty_corpus():
    with pytest.raises(DatasetError, match="empty"):
        build_vocabulary([], min_count=1)


def test_vocabulary_deterministic():
    corpus = ["red dog", "blue dog runs", "red cat"]
    a = build_vocabulary(corpus, 1)
    b = build_vocabulary(list(corpus), 1)
    assert a.tokens == b.tokens


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["red", "dog", "cat", "runs", "the"]), min_size=1, max_size=8))
def test_vocabulary_round_trips(words):
    vocab = build_vocabulary(["red dog cat runs the"], 1)
    text = " ".join(words)
    assert vocab.decode(vocab.encode(text)) == text
    ids = vocab.encode(text)
    assert vocab.encode(vocab.decode(ids)) == ids


# -- dataset loading ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    result = generate(SynthConfig(n_videos=3, n_val=1, n_verbs=6, vocab_size=20,
                                  d_vid=8, d_obj=16, n_slots=5, seed=5))
    write_dataset(out, result)
    return out, result


def test_load_wellformed_dataset(small_dataset):
    out, result = small_dataset
    samples, lexicon = load_dataset_dir(out, split="train")
    assert len(samples) == 3
    for s, orig in zip(samples, result.train):
        assert validate_sample(s, lexicon) == []
        np.testing.assert_array_equal(s.event_features, orig.event_features)
        assert [p.box for p in s.proposals] == [p.box for p in orig.proposals]
    val, _ = load_dataset_dir(out, split="val")
    assert val[0].annotation.grounding is not None


def test_truncated_feature_file_names_video(small_dataset, tmp_path):
    out, result = small_dataset
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    victim = result.train[0].id
    feat = broken / "features" / f"{victim}.objects.bin"
    raw = feat.read_bytes()
    feat.write_bytes(raw[:-4])
    with pytest.raises(DatasetError, match=victim):
        load_dataset(broken / "manifest_train.jsonl")


@pytest.mark.parametrize("key", ["duration", "events", "object_features", "annotation"])
def test_record_without_required_key_names_video_and_key(small_dataset, tmp_path, key):
    out, result = small_dataset
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    manifest = broken / "manifest_train.jsonl"
    lines = manifest.read_text().splitlines()
    doc = json.loads(lines[0])
    del doc[key]
    lines[0] = json.dumps(doc)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=f"{result.train[0].id}: .*'{key}'"):
        load_dataset(manifest)


def test_role_outside_verb_map_is_itemized(small_dataset):
    out, result = small_dataset
    samples, lexicon = load_dataset_dir(out, split="train")
    sample = samples[0]
    verb = sample.annotation.events[2].primary_verb
    outside = sorted(set(range(len(ROLES))) - lexicon.role_map[verb])[0]
    sample.annotation.events[2].roles[outside] = ["stray thing"]
    errs = validate_sample(sample, lexicon)
    assert len(errs) == 1
    assert "event 2" in errs[0] and ROLES[outside] in errs[0]


def test_validate_flags_bad_box(small_dataset):
    out, _ = small_dataset
    samples, lexicon = load_dataset_dir(out, split="train")
    sample = samples[1]
    p = sample.proposals[7]
    sample.proposals[7] = ObjectProposal(p.frame_index, p.slot, (50, 10, 20, 40),
                                         p.width, p.height, p.feature)
    errs = validate_sample(sample, lexicon)
    assert any("malformed box" in e for e in errs)


def test_feature_file_round_trip(tmp_path):
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    path = tmp_path / "f.bin"
    write_feature_file(path, arr)
    back = read_feature_file(path)
    np.testing.assert_array_equal(back, arr)


def test_feature_file_rejects_wrong_dtype_header(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(json.dumps({"dtype": "f64le", "shape": [1]}).encode() + b"\n" + b"\x00" * 8)
    with pytest.raises(DatasetError, match="unsupported dtype"):
        read_feature_file(path, context="vidX")
