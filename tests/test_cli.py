"""CLI behaviour: exit codes, idempotence, regime semantics, file outputs."""

import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from vidsrl import diffmath as dm
from vidsrl.cli import main
from vidsrl.data_model import ROLE_IDS, load_dataset_dir, roles_for_verb, write_feature_file
from vidsrl.srl import SituationModel, read_predictions


def digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


SYNTH_ARGS = ["--n-videos", "4", "--n-val", "2", "--n-verbs", "4", "--vocab-size", "16",
              "--d-vid", "12", "--d-obj", "12", "--m", "4", "--seed", "7"]
TRAIN_SET = ["--set", "epochs=2", "--set", "batch_size=2", "--set", "d_model=12",
             "--set", "n_heads=2", "--set", "n_layers=1", "--set", "dropout=0",
             "--set", "eval_every=1", "--set", "seed=3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["synth", "--out", str(data)] + SYNTH_ARGS) == 0
    assert main(["train", "--data", str(data), "--out", str(run)] + TRAIN_SET) == 0
    return root, data, run


def test_synth_then_validate_exit_zero(workspace):
    _, data, _ = workspace
    assert main(["validate", "--data", str(data)]) == 0
    assert main(["validate", "--data", str(data), "--split", "val"]) == 0


def test_synth_idempotent(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a)] + SYNTH_ARGS) == 0
    assert main(["synth", "--out", str(b)] + SYNTH_ARGS) == 0
    assert digest(a) == digest(b)


@pytest.mark.parametrize("flags, message", [
    (["--m", "1"], "error: n_slots=1 leaves no room for role entities per frame"),
    (["--n-videos", "-1"], "error: n_videos must be >= 0, got -1"),
])
def test_synth_rejects_out_of_range_flag_without_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out)] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == message and captured.out == ""
    assert not out.exists()


def test_help_exits_zero_and_lists_config_keys(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for key in ("lr", "batch_size", "theta_role", "d_model"):
        assert key in out
    assert "fps" not in out


def test_usage_error_exit_code_two():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_unknown_config_key_rejected(workspace, capsys):
    _, data, _ = workspace
    code = main(["train", "--data", str(data), "--out", "/tmp/nope",
                 "--set", "warmup=1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "valid keys" in err and "batch_size" in err


def test_train_rejects_bad_theta_role_before_training(workspace, tmp_path, capsys):
    _, data, _ = workspace
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--out", str(out)] + TRAIN_SET
                + ["--set", "theta_role=1.5"])
    assert code == 1
    assert "error: theta_role must be in (0, 1), got 1.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sets", [["batch_size=0"], ["eval_every=0"], ["dropout=1.0"],
                                  ["d_model=16", "n_heads=3"], ["d_model=0"],
                                  ["max_caption_len=0"]], ids=",".join)
def test_train_rejects_value_that_would_fail_later_before_training(workspace, tmp_path, capsys,
                                                                  sets):
    # each of these used to crash with a traceback, some only after training
    _, data, _ = workspace
    out = tmp_path / "run"
    overrides = [arg for item in sets for arg in ("--set", item)]
    code = main(["train", "--data", str(data), "--out", str(out)] + TRAIN_SET + overrides)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {sets[-1].split('=')[0]} ")
    assert not out.exists()


def test_set_overrides_a_config_file_value_before_it_is_checked(workspace, tmp_path, capsys):
    _, data, run = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text("dropout = 1.0\n")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: dropout must be in [0, 1), got 1.0")
    assert not out.exists()
    # TRAIN_SET holds --set dropout=0, which replaces the file's value
    assert main(["train", "--data", str(data), "--out", str(out), "--config", str(bad)]
                + TRAIN_SET) == 0
    assert (out / "checkpoint_last.bin").read_bytes() == \
        (run / "checkpoint_last.bin").read_bytes()


def test_misspelt_boolean_fails_from_a_config_file_and_from_set(workspace, tmp_path, capsys):
    _, data, _ = workspace
    typo = tmp_path / "typo.cfg"
    typo.write_text("degrade_objects = ture\n")
    out = tmp_path / "run"
    for source in (["--config", str(typo)], ["--set", "degrade_objects=ture"]):
        assert main(["train", "--data", str(data), "--out", str(out)] + TRAIN_SET + source) == 1
        assert capsys.readouterr().err == "error: bad value for 'degrade_objects': 'ture'\n"
        assert not out.exists()


def test_predict_rejects_checkpoint_with_bad_theta_role(workspace, tmp_path, capsys):
    _, data, run = workspace
    arrays, meta = dm.load_tensors(run / "checkpoint_last.bin")
    meta["config"]["theta_role"] = 1.5
    bad = tmp_path / "bad_theta.bin"
    dm.save_tensors(bad, arrays, meta)
    out = tmp_path / "p.jsonl"
    code = main(["predict", "--data", str(data), "--split", "val", "--checkpoint", str(bad),
                 "--regime", "pred-pred", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "theta_role must be in (0, 1), got 1.5" in err
    assert not out.exists()


def test_validate_flags_corruption(workspace, tmp_path, capsys):
    _, data, _ = workspace
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(data, broken)
    manifest = broken / "manifest_train.jsonl"
    lines = manifest.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["annotation"]["events"][0]["roles"]["AGol"] = ["stray"]
    lines[0] = json.dumps(doc)
    manifest.write_text("\n".join(lines) + "\n")
    code = main(["validate", "--data", str(broken)])
    assert code in (0, 1)  # 1 unless AGol already belongs to that verb
    out = capsys.readouterr().out
    if code == 1:
        assert "AGol" in out or "problem" in out


def test_predict_eval_ground_pipeline(workspace, capsys):
    root, data, run = workspace
    preds = root / "preds.jsonl"
    ckpt = run / "checkpoint_last.bin"
    assert main(["predict", "--data", str(data), "--split", "val",
                 "--checkpoint", str(ckpt), "--regime", "gt-roles",
                 "--out", str(preds)]) == 0
    report_path = root / "report.json"
    assert main(["eval", "--data", str(data), "--split", "val",
                 "--predictions", str(preds), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"verb", "srl", "grounding", "roles"}
    out = capsys.readouterr().out
    assert "verb/acc@1" in out

    csv_path = root / "ground.csv"
    assert main(["ground", "--predictions", str(preds), "--out", str(csv_path)]) == 0
    with open(csv_path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["video", "event", "role", "frame", "x1", "y1", "x2", "y2", "score"]
    assert len(rows) > 1


def test_predict_prints_latency_and_decode_steps(workspace, capsys):
    root, data, run = workspace
    preds = root / "preds_summary.jsonl"
    capsys.readouterr()
    assert main(["predict", "--data", str(data), "--split", "val",
                 "--checkpoint", str(run / "checkpoint_last.bin"), "--regime", "pred-pred",
                 "--out", str(preds)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    m = re.fullmatch(r"predict: (\d+) videos, ([\d.]+) ms/video p50, ([\d.]+) ms p90, "
                     r"([\d.]+) decode steps/video", line)
    assert m, line
    assert int(m[1]) == 2 and 0 < float(m[2]) <= float(m[3])
    # a video's steps: its longest caption's tokens + 1, capped at max_caption_len + 1
    max_len = SituationModel.load(run / "checkpoint_last.bin").cfg.max_caption_len
    steps = [min(max(len(rp.caption.split()) for rec in recs for rp in rec.roles), max_len) + 1
             for recs in read_predictions(preds)]
    assert float(m[4]) == pytest.approx(np.mean(steps), abs=0.005)


def test_predict_gt_map_role_sets_match_lookup(workspace):
    root, data, run = workspace
    preds_path = root / "preds_gtmap.jsonl"
    assert main(["predict", "--data", str(data), "--split", "val",
                 "--checkpoint", str(run / "checkpoint_last.bin"),
                 "--regime", "pred-gt-map", "--out", str(preds_path)]) == 0
    _, lexicon = load_dataset_dir(data, split="val")
    for records in read_predictions(preds_path):
        for rec in records:
            expected = sorted(roles_for_verb(lexicon, rec.verb))
            assert [rp.role for rp in rec.roles] == expected


def test_predict_idempotent(workspace):
    root, data, run = workspace
    p1, p2 = root / "p1.jsonl", root / "p2.jsonl"
    args = ["predict", "--data", str(data), "--split", "val",
            "--checkpoint", str(run / "checkpoint_last.bin"), "--regime", "pred-pred"]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_train_idempotent_checkpoints(workspace, tmp_path):
    _, data, run = workspace
    rerun = tmp_path / "rerun"
    assert main(["train", "--data", str(data), "--out", str(rerun)] + TRAIN_SET) == 0
    assert (rerun / "checkpoint_last.bin").read_bytes() == \
        (run / "checkpoint_last.bin").read_bytes()
    assert (rerun / "metrics.jsonl").read_bytes() == (run / "metrics.jsonl").read_bytes()


def test_missing_data_dir_is_reported(capsys):
    code = main(["validate", "--data", "/nonexistent/place"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_alpha_dump_flag(workspace):
    root, data, run = workspace
    out = root / "alpha.jsonl"
    assert main(["predict", "--data", str(data), "--split", "val",
                 "--checkpoint", str(run / "checkpoint_last.bin"),
                 "--regime", "gt-roles", "--out", str(out), "--dump-alpha"]) == 0
    doc = json.loads(out.read_text().splitlines()[0])
    assert "alpha" in doc["events"][0]["roles"][0]


def test_predict_rejects_checkpoint_from_older_config(workspace, tmp_path, capsys):
    _, data, run = workspace
    arrays, meta = dm.load_tensors(run / "checkpoint_last.bin")
    meta["config"].update(share_event_pe=True, norm_placement="post")
    old = tmp_path / "old.bin"
    dm.save_tensors(old, arrays, meta)
    code = main(["predict", "--data", str(data), "--split", "val", "--checkpoint", str(old),
                 "--out", str(tmp_path / "p.jsonl")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "share_event_pe" in err and "norm_placement" in err


def test_predict_rejects_checkpoint_with_two_map_captioner_conditioning(workspace, tmp_path,
                                                                         capsys):
    # checkpoints written before each captioner layer conditioned by one Linear
    # hold cross_attn.wv and cross_attn.wo in place of cross_proj
    _, data, run = workspace
    arrays, meta = dm.load_tensors(run / "checkpoint_last.bin")
    old_arrays = {}
    for name, value in arrays.items():
        if ".cross_proj." in name:
            for proj in ("wv", "wo"):
                old_arrays[name.replace(".cross_proj.", f".cross_attn.{proj}.")] = value
        else:
            old_arrays[name] = value
    old = tmp_path / "old.bin"
    dm.save_tensors(old, old_arrays, meta)
    missing = "checkpoint missing parameter 'captioner.layers.0.cross_proj.w'"
    with pytest.raises(dm.CheckpointError, match=f"^{re.escape(missing)}$"):
        SituationModel.load(old)
    code = main(["predict", "--data", str(data), "--split", "val", "--checkpoint", str(old),
                 "--out", str(tmp_path / "p.jsonl")])
    assert code == 1
    assert missing in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,named", [("--d-obj", "8", "d_obj"),
                                               ("--n-verbs", "5", "lexicon")])
def test_predict_rejects_checkpoint_that_does_not_fit_data(workspace, tmp_path, capsys,
                                                          flag, value, named):
    _, _, run = workspace
    args = list(SYNTH_ARGS)
    args[args.index(flag) + 1] = value
    other = tmp_path / "other"
    assert main(["synth", "--out", str(other)] + args) == 0
    code = main(["predict", "--data", str(other), "--split", "val",
                 "--checkpoint", str(run / "checkpoint_last.bin"),
                 "--out", str(tmp_path / "p.jsonl")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("header", [b'{"foo": 1}', b"[1, 2]"])
def test_predict_reports_checkpoint_header_that_is_not_a_manifest(workspace, tmp_path, capsys,
                                                                  header):
    _, data, _ = workspace
    bad = tmp_path / "bad.bin"
    bad.write_bytes(header + b"\n")
    code = main(["predict", "--data", str(data), "--split", "val", "--checkpoint", str(bad),
                 "--out", str(tmp_path / "p.jsonl")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a manifest" in err


def test_validate_reports_record_without_duration(workspace, tmp_path, capsys):
    _, data, _ = workspace
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(data, broken)
    manifest = broken / "manifest_train.jsonl"
    lines = manifest.read_text().splitlines()
    doc = json.loads(lines[1])
    del doc["duration"]
    lines[1] = json.dumps(doc)
    manifest.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--data", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and doc["id"] in err and "'duration'" in err


def test_validate_reports_feature_size_that_differs_between_videos(workspace, tmp_path, capsys):
    _, data, _ = workspace
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(data, broken)
    victim = json.loads((broken / "manifest_train.jsonl").read_text().splitlines()[2])["id"]
    path = broken / "features" / f"{victim}.objects.bin"
    features = np.frombuffer(path.read_bytes().split(b"\n", 1)[1], dtype="<f4")
    write_feature_file(path, features.reshape(-1, 4, 12)[:, :, :6])
    assert main(["validate", "--data", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "inconsistent feature dimensions across dataset: [(12, 6), (12, 12)]" in out


def test_validate_reports_lexicon_without_role_map(workspace, tmp_path, capsys):
    _, data, _ = workspace
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(data, broken)
    lexicon = json.loads((broken / "lexicon.json").read_text())
    del lexicon["role_map"]
    (broken / "lexicon.json").write_text(json.dumps(lexicon))
    assert main(["validate", "--data", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'role_map'" in err


def test_validate_reports_malformed_boxes_file(workspace, tmp_path, capsys):
    _, data, _ = workspace
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(data, broken)
    victim = json.loads((broken / "manifest_train.jsonl").read_text().splitlines()[0])["id"]
    path = broken / "features" / f"{victim}.boxes.json"
    doc = json.loads(path.read_text())
    doc["boxes"][0][1] = doc["boxes"][0][1][:3]
    path.write_text(json.dumps(doc))
    assert main(["validate", "--data", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and victim in err and f"{victim}.boxes.json" in err


@pytest.fixture(scope="module")
def predictions(workspace):
    root, data, run = workspace
    preds = root / "preds_for_errors.jsonl"
    assert main(["predict", "--data", str(data), "--split", "val", "--checkpoint",
                 str(run / "checkpoint_last.bin"), "--out", str(preds)]) == 0
    return preds.read_text().splitlines()


def test_eval_reports_prediction_line_that_is_not_json(workspace, predictions, tmp_path,
                                                       capsys):
    _, data, _ = workspace
    path = tmp_path / "preds.jsonl"
    path.write_text(predictions[0] + "\n" + predictions[1][:-7] + "\n")
    assert main(["eval", "--data", str(data), "--predictions", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: malformed JSON")


@pytest.mark.parametrize("case", ["unknown video", "duplicated video", "no records"])
def test_eval_names_the_video_of_a_bad_prediction_file(workspace, predictions, tmp_path, capsys,
                                                       case):
    _, data, _ = workspace
    doc = json.loads(predictions[1])
    lines, message = {
        "unknown video": ([predictions[0], json.dumps({**doc, "video_id": "nope"})],
                          "predictions name video 'nope', which is not among the 2 videos "
                          "evaluated"),
        "duplicated video": ([predictions[0], predictions[1], predictions[1]],
                             f"predictions name video {doc['video_id']!r} twice"),
        "no records": ([], "no predictions to evaluate"),
    }[case]
    path = tmp_path / "preds.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    assert main(["eval", "--data", str(data), "--predictions", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_ground_reports_prediction_line_without_roles(predictions, tmp_path, capsys):
    doc = json.loads(predictions[1])
    del doc["events"][0]["roles"]
    path = tmp_path / "preds.jsonl"
    path.write_text(predictions[0] + "\n" + json.dumps(doc) + "\n")
    assert main(["ground", "--predictions", str(path), "--out", str(tmp_path / "g.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: prediction record lacks 'roles'")


def test_ground_reports_unknown_role(predictions, tmp_path, capsys):
    doc = json.loads(predictions[1])
    doc["events"][-1]["roles"][0]["role"] = "Arg9"
    path = tmp_path / "preds.jsonl"
    path.write_text(predictions[0] + "\n" + json.dumps(doc) + "\n")
    assert main(["ground", "--predictions", str(path), "--out", str(tmp_path / "g.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: unknown role 'Arg9'; expected one of Arg0, ")
