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
from vidsrl.data_model import ROLE_IDS, load_dataset_dir, roles_for_verb
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
