"""Domain types, schedules, vocabulary, dataset I/O."""

import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsrl.data_model import (
    ROLE_IDS, ROLES, DatasetError, Event, VerbLexicon, build_frame_schedule, build_vocabulary,
    load_dataset, load_dataset_dir, make_events, read_feature_file,
    roles_for_verb, validate_sample, write_feature_file,
)
from vidsrl.synth import SynthConfig, SynthResult, generate, load_secrets, write_dataset


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
        np.testing.assert_array_equal(s.object_features, orig.object_features)
        np.testing.assert_array_equal(s.boxes, orig.boxes)
        assert s.object_features.dtype == np.float32 and s.boxes.dtype == np.float64
    val, _ = load_dataset_dir(out, split="val")
    assert val[0].annotation.grounding is not None


def test_rewriting_a_loaded_dataset_reproduces_every_file(small_dataset, tmp_path):
    out, _ = small_dataset
    train, lexicon = load_dataset_dir(out, split="train")
    val, _ = load_dataset_dir(out, split="val")
    copy = tmp_path / "copy"
    write_dataset(copy, SynthResult(train=train, val=val, lexicon=lexicon,
                                    secrets=load_secrets(out / "secrets.json")))
    files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(copy) for p in copy.rglob("*") if p.is_file())
    for rel in files:
        assert (copy / rel).read_bytes() == (out / rel).read_bytes(), rel


def _three_number_box(doc):
    doc["boxes"][1][2] = doc["boxes"][1][2][:3]


def _string_coordinate(doc):
    doc["boxes"][0][0][1] = "x"


def _ragged_rows(doc):
    del doc["boxes"][3][-1]


def _without(key):
    return lambda doc: doc.pop(key)


@pytest.mark.parametrize("edit", [_three_number_box, _string_coordinate, _ragged_rows,
                                  _without("width"), _without("height")],
                         ids=["three-number-box", "string-coordinate", "ragged-rows",
                              "no-width", "no-height"])
def test_malformed_boxes_file_names_video_and_file(small_dataset, tmp_path, edit):
    out, result = small_dataset
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    victim = result.train[1].id
    path = broken / "features" / f"{victim}.boxes.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=f"{victim}: .*{victim}.boxes.json"):
        load_dataset(broken / "manifest_train.jsonl")


@pytest.mark.parametrize("header", [{"dtype": "f32le", "order": "row-major"},
                                    ["f32le", [11, 5, 16]],
                                    {"dtype": "f32le", "shape": ["eleven", 5, 16]}],
                         ids=["no-shape", "not-an-object", "bad-shape"])
def test_malformed_feature_header_names_video_and_file(small_dataset, tmp_path, header):
    out, result = small_dataset
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    victim = result.train[2].id
    feat = broken / "features" / f"{victim}.objects.bin"
    payload = feat.read_bytes().split(b"\n", 1)[1]
    feat.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(DatasetError, match=f"{victim}: feature header in .*{victim}.objects.bin"):
        load_dataset(broken / "manifest_train.jsonl")


def _unknown_role(annotation):
    annotation["events"][3]["roles"]["Arg9"] = ["a stray thing"]


def _event_without(key):
    return lambda annotation: annotation["events"][1].pop(key)


@pytest.mark.parametrize("edit, named", [
    (_unknown_role, r"event 3 names unknown roles \['Arg9'\]"),
    (lambda annotation: annotation.pop("events"), "lacks an 'events' list"),
    (_event_without("verbs"), "event 1 lacks 'verbs'"),
    (_event_without("roles"), "event 1 lacks 'roles'"),
], ids=["unknown-role", "no-events", "no-verbs", "no-roles"])
def test_malformed_annotation_names_video_and_manifest(small_dataset, tmp_path, edit, named):
    out, result = small_dataset
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    manifest = broken / "manifest_train.jsonl"
    lines = manifest.read_text().splitlines()
    doc = json.loads(lines[1])
    edit(doc["annotation"])
    lines[1] = json.dumps(doc)
    manifest.write_text("\n".join(lines) + "\n")
    expected = f"^{re.escape(str(manifest))}:2: {doc['id']}: manifest annotation {named}$"
    with pytest.raises(DatasetError, match=expected):
        load_dataset(manifest)


def _rekeyed(key):
    def edit(doc):
        doc[key] = doc.pop(sorted(doc)[0])
    return edit


def _frame_not_a_number(doc):
    doc[sorted(doc)[0]] = {"first": [1, 2, 3, 4]}


@pytest.mark.parametrize("edit, named", [
    (_rekeyed("0-Arg0"), "key '0-Arg0' is not 'event/role'"),
    (_rekeyed("0/Arg9"), "key '0/Arg9' names unknown role 'Arg9'"),
    (_frame_not_a_number, "entry '.*' is malformed: .*'first'"),
], ids=["no-slash", "unknown-role", "frame-not-a-number"])
def test_malformed_grounding_file_names_video_and_file(small_dataset, tmp_path, edit, named):
    out, result = small_dataset
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    victim = result.val[0].id
    path = broken / "grounding" / f"{victim}.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=f"{victim}: grounding file .*{victim}.json: {named}$"):
        load_dataset(broken / "manifest_val.jsonl")


def test_truncated_feature_file_names_video(small_dataset, tmp_path):
    out, result = small_dataset
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
    sample.boxes[1, 2] = (50, 10, 20, 40)
    errs = validate_sample(sample, lexicon)
    assert any("malformed box" in e for e in errs)


def test_validate_flags_frame_count_off_schedule(small_dataset):
    out, _ = small_dataset
    samples, lexicon = load_dataset_dir(out, split="train")
    sample = samples[0]
    sample.object_features = sample.object_features[:-1]
    sample.boxes = sample.boxes[:-1]
    errs = validate_sample(sample, lexicon)
    assert errs == [f"{sample.id}: object features have 10 frames, the schedule has 11"]


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
