"""Command-line interface: subcommands, exit codes, determinism."""

import csv
import functools
import hashlib
import json
import os
import subprocess
import signal
import sys
import time
import types
import wave
from pathlib import Path

import numpy as np
import pytest

import artinv
from artinv import evaluation, layers, training, workers
from artinv.cli import main
from artinv.dataio import load_checkpoint, load_manifest, model_from_checkpoint, save_checkpoint
from artinv.errors import DataError
from artinv.features import MfccConfig, feature_config_hash
from artinv.model import InversionModel, ModelConfig, SCENARIOS, apply_scenario
from forging import seal, unseal, with_value
from forks import assert_reaped, exit_statuses, forked_pids

TINY_SYNTH = ["--speakers", "2", "--utts", "2", "--dur_min", "3", "--dur_max", "5",
              "--phones_min", "1", "--phones_max", "2"]
FAST_TRAIN = ["--epochs", "1", "--batch_size", "2"]
SMALL = ModelConfig(attn_model_dim=8, attn_layers=1, attn_heads=2, attn_head_dim=4)


def tree_digest(root: Path) -> str:
    acc = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            acc.update(str(path.relative_to(root)).encode())
            acc.update(path.read_bytes())
    return acc.hexdigest()


def synth(tmp_path, name="corpus", extra=()) -> Path:
    out = tmp_path / name
    assert main(["synth", "--out", str(out), "--seed", "0", *TINY_SYNTH, *extra]) == 0
    return out / "manifest.csv"


class TestSynth:
    def test_identical_seeds_identical_trees(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert main(["synth", "--out", str(tmp_path / name), "--seed", "3", *TINY_SYNTH]) == 0
        # config.json records the out path; compare everything else
        (tmp_path / "a" / "config.json").unlink()
        (tmp_path / "b" / "config.json").unlink()
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_prints_manifest_path(self, tmp_path, capsys):
        manifest = synth(tmp_path)
        assert str(manifest) in capsys.readouterr().out

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "x"), *TINY_SYNTH])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--speakers", "0"], "speakers"), (["--smoothing", "0"], "smoothing"),
        (["--dur_min", "0", "--dur_max", "0"], "duration range"), (["--dur_min", "5", "--dur_max", "2"], "duration range"),
        (["--phones_min", "3", "--phones_max", "1"], "phones range"), (["--noise_scale", "-1"], "noise scale"),
    ], ids=["speakers_zero", "smoothing_zero", "duration_zero", "duration_reversed", "phones_reversed",
            "noise_negative"])
    def test_bad_numeric_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--seed", "0", *TINY_SYNTH, *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_nonempty_dir_needs_force(self, tmp_path):
        out = tmp_path / "c"
        out.mkdir()
        (out / "stale").write_text("x")
        assert main(["synth", "--out", str(out), "--seed", "0", *TINY_SYNTH]) == 1
        assert main(["synth", "--out", str(out), "--seed", "0", *TINY_SYNTH, "--force"]) == 0


class TestTrain:
    def test_s1_writes_checkpoint_and_trace(self, tmp_path, capsys):
        manifest = synth(tmp_path)
        out = tmp_path / "runs"
        assert main(["train", "--manifest", str(manifest), "--scenario", "S1",
                     "--out", str(out), "--seed", "1", "--epochs", "5", "--batch_size", "2"]) == 0
        run_dir = next(out.glob("train-*"))
        assert (run_dir / "checkpoint.ckpt").exists()
        trace = (run_dir / "trace.csv").read_text().splitlines()
        assert len(trace) == 6  # header + 5 epochs
        assert (run_dir / "config.json").exists()

    def test_s2_without_pretrained_is_usage_error(self, tmp_path, capsys):
        manifest = synth(tmp_path)
        code = main(["train", "--manifest", str(manifest), "--scenario", "S2",
                     "--out", str(tmp_path / "runs"), "--seed", "1", *FAST_TRAIN])
        assert code == 1
        assert "pretrained" in capsys.readouterr().err

    def test_identical_invocations_identical_checkpoints(self, tmp_path):
        manifest = synth(tmp_path)
        digests = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--manifest", str(manifest), "--scenario", "S3",
                         "--out", str(out), "--seed", "7", *FAST_TRAIN]) == 0
            ckpt = next(out.glob("train-*")) / "checkpoint.ckpt"
            digests.append(hashlib.sha256(ckpt.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("flag, value, message", [
        ("--w_phoneme", "-1", "phoneme loss weight"), ("--w_phoneme", "nan", "phoneme loss weight"),
        ("--w_inversion", "inf", "inversion loss weight"), ("--batch_size", "0", "batch size"),
        ("--epochs", "0", "epochs"), ("--learning_rate", "-1", "learning rate"), ("--learning_rate", "nan", "learning rate"),
        ("--val_fraction", "nan", "--val_fraction"), ("--val_fraction", "1", "--val_fraction"),
    ], ids=["w_phoneme_negative", "w_phoneme_nan", "w_inversion_inf", "batch_size_zero",
            "epochs_zero", "learning_rate_negative", "learning_rate_nan", "val_fraction_nan", "val_fraction_one"])
    def test_bad_hyperparameter_is_usage_error(self, tmp_path, capsys, flag, value, message):
        manifest = synth(tmp_path)
        out = tmp_path / "runs"
        code = main(["train", "--manifest", str(manifest), "--scenario", "S3",
                     "--out", str(out), "--seed", "1", *FAST_TRAIN, flag, value])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()  # rejected before any run directory is made

    @pytest.mark.parametrize("config, message", [
        ({"conv_channels": 2, "kernel_sizes": (1, 3), "attn_model_dim": 8, "attn_layers": 1, "attn_heads": 2,
          "attn_head_dim": 4, "speech_fc_units": 6, "blstm_hidden": 3}, "has shape (39, 12), the model needs (39, 600)"),
        ({"variant": "speech_only", "attn_model_dim": 8, "attn_layers": 1, "attn_heads": 2, "attn_head_dim": 4},
         "no array 'phoneme.blstm1.fw.wx'"),
    ], ids=["misshapen", "no_phoneme_stream"])
    def test_bad_pretrained_checkpoint_is_data_error(self, tmp_path, capsys, config, message):
        manifest = synth(tmp_path)
        pretrained = tmp_path / "pretrained.ckpt"
        save_checkpoint(pretrained, InversionModel(ModelConfig(**config)), feature_config_hash(MfccConfig()))
        out = tmp_path / "runs"
        code = main(["train", "--manifest", str(manifest), "--scenario", "S2", "--pretrained", str(pretrained),
                     "--out", str(out), "--seed", "1", *FAST_TRAIN])
        assert code == 2
        err = capsys.readouterr().err
        assert str(pretrained) in err and message in err
        assert not out.exists()  # rejected before any run directory is made

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--manifest", str(tmp_path / "nope.csv"), "--scenario", "S1",
                     "--out", str(tmp_path / "runs"), "--seed", "0", *FAST_TRAIN])
        assert code == 2


class TestEval:
    def test_scores_checkpoint(self, tmp_path, capsys):
        manifest = synth(tmp_path)
        runs = tmp_path / "runs"
        assert main(["train", "--manifest", str(manifest), "--scenario", "S3",
                     "--out", str(runs), "--seed", "2", *FAST_TRAIN]) == 0
        ckpt = next(runs.glob("train-*")) / "checkpoint.ckpt"
        assert main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 0
        run_dir = next((tmp_path / "eval").glob("eval-*"))
        assert (run_dir / "report.csv").exists()
        assert "rmse_mm" in capsys.readouterr().out

    def test_feature_hash_mismatch_is_explicit(self, tmp_path, capsys):
        manifest = synth(tmp_path)
        runs = tmp_path / "runs"
        assert main(["train", "--manifest", str(manifest), "--scenario", "S3",
                     "--out", str(runs), "--seed", "2", *FAST_TRAIN]) == 0
        ckpt = next(runs.glob("train-*")) / "checkpoint.ckpt"
        code = main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval"), "--hop_ms", "12.5"])
        assert code == 2
        assert "feature configuration" in capsys.readouterr().err


    def test_forged_checkpoints_are_data_errors(self, tmp_path, capsys):
        """Sound containers with an unknown scenario, without the target
        std, or with a non-finite parameter exit 2 with a message that names
        the file, instead of a traceback or a report of NaN."""
        manifest = synth(tmp_path)
        runs = tmp_path / "runs"
        assert main(["train", "--manifest", str(manifest), "--scenario", "S3",
                     "--out", str(runs), "--seed", "2", *FAST_TRAIN]) == 0
        header, data = unseal((next(runs.glob("train-*")) / "checkpoint.ckpt").read_bytes())
        unknown_scenario = {**header, "scenario": "S9"}
        assert header["arrays"][-1]["name"] == "stats.target_std"
        no_target_std = {**header, "arrays": header["arrays"][:-1]}
        forged = {"unknown scenario 'S9'": seal(unknown_scenario, data),
                  "no array 'stats.target_std'": seal(no_target_std, data[:-12 * 8]),
                  "array 'speech.conv.k1.weight' holds non-finite values":
                      seal(header, with_value(header, data, "speech.conv.k1.weight", 0, float("nan"))),
                  "array 'head.fc.bias' holds non-finite values":
                      seal(header, with_value(header, data, "head.fc.bias", 3, float("inf")))}
        capsys.readouterr()
        for i, (message, raw) in enumerate(forged.items()):
            path = tmp_path / f"forged{i}.ckpt"
            path.write_bytes(raw)
            code = main(["eval", "--manifest", str(manifest), "--checkpoint", str(path),
                         "--out", str(tmp_path / "eval")])
            assert code == 2
            err = capsys.readouterr().err
            assert message in err and str(path) in err

    def test_report_bytes_do_not_depend_on_copying_the_checkpoint(self, tmp_path, monkeypatch):
        """The loaded model computes on the checkpoint's read-only views; with
        copies of them the report is byte for byte the same."""
        manifest = synth(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, InversionModel(ModelConfig(), seed=3), feature_config_hash(MfccConfig()))
        load_views = InversionModel.load_state_arrays
        reports = []
        for copies in (False, True):
            if copies:
                monkeypatch.setattr(InversionModel, "load_state_arrays",
                                    lambda self, arrays: load_views(self, {n: a.copy() for n, a in arrays.items()}))
            out = tmp_path / f"eval-{copies}"
            assert main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--out", str(out)]) == 0
            reports.append((next(out.glob("eval-*")) / "report.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_environment_is_recorded_outside_the_config_and_the_report(self, tmp_path):
        manifest = synth(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, InversionModel(SMALL, seed=1), feature_config_hash(MfccConfig()))
        out = tmp_path / "eval"
        assert main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--out", str(out)]) == 0
        run_dir = next(out.glob("eval-*"))
        environment = json.loads((run_dir / "environment.json").read_text())
        assert set(environment) == {"python", "numpy", "blas", "openblas_corename", "openblas_threads",
                                    "usable_cores"}
        assert environment["usable_cores"] == workers.usable_cores() >= 1
        if environment["openblas_threads"] is not None:
            assert environment["openblas_threads"] == 1 and environment["openblas_corename"]
        assert not set(environment) & set(json.loads((run_dir / "config.json").read_text()))
        direct = tmp_path / "direct"
        loaded = load_checkpoint(ckpt)
        evaluation.evaluate_model(loaded, model_from_checkpoint(loaded), load_manifest(manifest), direct)
        assert (run_dir / "report.csv").read_bytes() == (direct / "report.csv").read_bytes()

    def test_no_prediction_worker_outlives_the_command(self, tmp_path, monkeypatch, capsys):
        """Three processes on any machine: the two forked workers are gone
        when eval returns, and when a worker's error ends it with exit 2."""
        manifest = synth(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, InversionModel(SMALL, seed=1), feature_config_hash(MfccConfig()))
        monkeypatch.setattr(workers, "usable_cores", lambda: 3)
        pids = forked_pids(monkeypatch)
        argv = ["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt)]
        assert main(argv + ["--out", str(tmp_path / "ok")]) == 0
        assert len(pids) == 2
        assert_reaped(pids)

        caller = os.getpid()
        predict = InversionModel.predict

        def fails_in_workers(self, mfcc, phonemes):
            if os.getpid() != caller:
                raise DataError("predict failed in a prediction worker")
            return predict(self, mfcc, phonemes)

        monkeypatch.setattr(InversionModel, "predict", fails_in_workers)
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "failed")]) == 2
        assert "predict failed in a prediction worker" in capsys.readouterr().err
        assert len(pids) == 4
        assert_reaped(pids)


def files_under(root: Path) -> dict:
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("column", ["utterance_id", "speaker_id"])
@pytest.mark.parametrize("value", ["s01/u001", "../../../escaped", "a\\b", "a\0b", "", ".", ".."],
                         ids=["slash", "parent_escape", "backslash", "nul", "empty", "dot", "dotdot"])
def test_id_that_cannot_name_a_file_is_data_error(tmp_path, capsys, column, value):
    """Run directories name files by utterance and speaker ids; an id that
    is no plain file name fails at load (exit 2), before anything is written."""
    manifest = synth(tmp_path / "corpus")
    with open(manifest, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[0][column] = value
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, InversionModel(SMALL), feature_config_hash(MfccConfig()))
    before = files_under(tmp_path)
    capsys.readouterr()
    out = tmp_path / "work" / "out"
    assert main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--out", str(out)]) == 2
    assert f"{manifest}:2: {column} {value!r} cannot name a file" in capsys.readouterr().err
    assert files_under(tmp_path) == before


@pytest.mark.parametrize("fault", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("kind", ["manifest", "mfcc.csv", "align.txt", "ema.csv"])
def test_unreadable_input_is_data_error(tmp_path, capsys, kind, fault):
    """A manifest, MFCC CSV, alignment or EMA file that is missing, a
    directory or not UTF-8 fails at load (exit 2) with a message naming the
    file and its utterance, before any run directory is made."""
    manifest = synth(tmp_path)
    path = manifest if kind == "manifest" else manifest.parent / "s01" / f"s01_u001.{kind}"
    if fault == "not_utf8":
        path.write_bytes(path.read_bytes() + b"\xff\n")
    else:
        path.unlink()
        if fault == "directory":
            path.mkdir()
    out = tmp_path / "runs"
    capsys.readouterr()
    assert main(["train", "--manifest", str(manifest), "--scenario", "S3", "--out", str(out),
                 "--seed", "0", *FAST_TRAIN]) == 2
    err = capsys.readouterr().err
    assert err.startswith("artinv: error: ") and str(path) in err and "Traceback" not in err
    assert kind == "manifest" or "utterance 's01_u001'" in err
    assert not out.exists()


@pytest.mark.parametrize("fault", ["missing", "directory"])
@pytest.mark.parametrize("command", ["eval", "train"])
def test_unreadable_checkpoint_is_data_error(tmp_path, capsys, command, fault):
    """``eval --checkpoint`` and ``train --pretrained`` name a checkpoint
    that cannot be read, with exit 2."""
    manifest = synth(tmp_path)
    path = tmp_path / "model.ckpt"
    if fault == "directory":
        path.mkdir()
    checkpoint = (["--checkpoint", str(path)] if command == "eval"
                  else ["--scenario", "S2", "--pretrained", str(path), "--seed", "0", *FAST_TRAIN])
    capsys.readouterr()
    assert main([command, "--manifest", str(manifest), *checkpoint, "--out", str(tmp_path / "runs")]) == 2
    assert f"artinv: error: cannot read checkpoint {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "train", "eval", "loso", "ablate"])
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, command):
    """An ``--out`` that names an existing regular file gives one error line
    naming the path and exit 1, not a traceback, and leaves the file as it is."""
    manifest = synth(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, InversionModel(SMALL), feature_config_hash(MfccConfig()))
    flags = {"synth": ["--seed", "0", *TINY_SYNTH],
             "train": ["--manifest", str(manifest), "--scenario", "S3", "--seed", "0", *FAST_TRAIN],
             "eval": ["--manifest", str(manifest), "--checkpoint", str(ckpt)],
             "loso": ["--manifest", str(manifest), "--scenario", "S1", "--seed", "0", *FAST_TRAIN],
             "ablate": ["--manifest", str(manifest), "--seed", "0", *FAST_TRAIN]}[command]
    out = tmp_path / "taken"
    out.write_text("a file\n")
    capsys.readouterr()
    assert main([command, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"artinv: error: cannot write {out}/") and len(err.splitlines()) == 1
    assert out.read_text() == "a file\n"


@pytest.mark.parametrize("fault", ["directory", "feature_hash", "non_finite"])
def test_unusable_eval_checkpoint_leaves_no_run_directory(tmp_path, capsys, fault):
    manifest = synth(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, InversionModel(SMALL), feature_config_hash(MfccConfig()))
    if fault == "directory":
        ckpt.unlink()
        ckpt.mkdir()
    elif fault == "non_finite":
        header, data = unseal(ckpt.read_bytes())
        ckpt.write_bytes(seal(header, with_value(header, data, "head.fc.bias", 0, float("inf"))))
    hop = ["--hop_ms", "12.5"] if fault == "feature_hash" else []
    out = tmp_path / "eval"
    capsys.readouterr()
    assert main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--out", str(out), *hop]) == 2
    assert str(ckpt) in capsys.readouterr().err
    assert not out.exists()


def test_dead_fold_worker_fails_the_unfinished_folds(tmp_path, capfd, monkeypatch):
    """A LOSO fold worker killed outright fails its own unfinished folds
    (1 and 3); the folds this process runs (0 and 2) still score.  The
    report lists every fold, and the command exits 2 with one error line."""
    manifest = synth(tmp_path, extra=["--speakers", "4"])
    monkeypatch.setattr(workers, "usable_cores", lambda: 2)  # with --jobs 2, each fold in one process
    caller = os.getpid()
    run_fold = evaluation.run_fold

    def dies_in_a_worker(plan, *args):
        if os.getpid() != caller and plan.index == 1:
            os._exit(9)
        return run_fold(plan, *args)

    monkeypatch.setattr(evaluation, "run_fold", dies_in_a_worker)
    pids = forked_pids(monkeypatch)
    out = tmp_path / "loso"
    capfd.readouterr()
    assert main(["loso", "--manifest", str(manifest), "--scenario", "S1", "--out", str(out), "--seed", "0",
                 *FAST_TRAIN, "--jobs", "2"]) == 2
    err = capfd.readouterr().err
    assert err.startswith("artinv: error: fold(s) failed")
    assert "s02: worker process died; s04: worker process died" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    rows = evaluation.read_report_csv(next(out.glob("loso-*")) / "report.csv")
    assert [(r["held_out_speaker"], r["scope"]) for r in rows] == [
        ("s01", "fold"), ("s02", "fold_failed"), ("s03", "fold"), ("s04", "fold_failed")]
    assert all(r["stream"] == "worker process died" for r in rows if r["scope"] == "fold_failed")
    assert all(float(r["rmse_mm"]) > 0 for r in rows if r["scope"] == "fold")
    assert len(pids) == 1
    assert_reaped(pids)


def test_dead_prediction_worker_is_one_error_line(tmp_path, capfd, monkeypatch):
    manifest = synth(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, InversionModel(SMALL, seed=1), feature_config_hash(MfccConfig()))
    monkeypatch.setattr(workers, "usable_cores", lambda: 3)
    caller = os.getpid()
    predict = InversionModel.predict

    def dies_in_workers(self, mfcc, phonemes):
        if os.getpid() != caller:
            os._exit(9)
        return predict(self, mfcc, phonemes)

    monkeypatch.setattr(InversionModel, "predict", dies_in_workers)
    pids = forked_pids(monkeypatch)
    capfd.readouterr()
    assert main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")]) == 2
    err = capfd.readouterr().err
    assert err.startswith("artinv: error: worker process died while predicting into ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert len(pids) == 2
    assert_reaped(pids)


def split_every_batch(monkeypatch, cores=2):
    """Every utterance a packed group of its own, on ``cores`` usable cores."""
    monkeypatch.setattr(training, "pack_groups", functools.partial(training.pack_groups, limit=1))
    monkeypatch.setattr(workers, "usable_cores", lambda: cores)


def training_workers(monkeypatch, mode, cores=2):
    """Train on ``cores`` usable cores with every batch split over the
    processes (``mode`` "split": each utterance packs into a group of its
    own) or in one group ("one_group": the tiny corpora pack each batch into
    one group), beside worker 1, which runs Adam."""
    if mode == "split":
        split_every_batch(monkeypatch, cores)
    else:
        monkeypatch.setattr(workers, "usable_cores", lambda: cores)


def die_in_training_workers(monkeypatch, mode):
    """A worker dies as it starts a group ("split") or as worker 1 starts
    its first update ("one_group")."""
    caller = os.getpid()
    target, name = (training, "_train_group") if mode == "split" else (layers.Adam, "update")
    original = getattr(target, name)

    def dies_in_a_worker(*args):
        if os.getpid() != caller:
            os._exit(9)
        return original(*args)

    monkeypatch.setattr(target, name, dies_in_a_worker)


def test_dead_training_worker_is_one_error_line(tmp_path, capfd, monkeypatch):
    manifest = synth(tmp_path)
    for mode in ("split", "one_group"):
        with monkeypatch.context() as patch:
            training_workers(patch, mode)
            die_in_training_workers(patch, mode)
            pids = forked_pids(patch)
            capfd.readouterr()
            assert main(["train", "--manifest", str(manifest), "--scenario", "S1", "--out", str(tmp_path / mode),
                         "--seed", "0", *FAST_TRAIN]) == 2
        err = capfd.readouterr().err
        assert err == "artinv: error: training worker process died\n", mode
        assert len(pids) == 1, mode
        assert_reaped(pids)


def test_dead_training_worker_fails_its_fold(tmp_path, capfd, monkeypatch):
    manifest = synth(tmp_path, extra=["--utts", "4"])
    for mode in ("split", "one_group"):
        with monkeypatch.context() as patch:
            training_workers(patch, mode)
            die_in_training_workers(patch, mode)
            pids = forked_pids(patch)
            out = tmp_path / mode
            capfd.readouterr()
            assert main(["loso", "--manifest", str(manifest), "--scenario", "S1", "--out", str(out), "--seed", "0",
                         *FAST_TRAIN, "--jobs", "1"]) == 2
        err = capfd.readouterr().err
        assert err.startswith("artinv: error: fold(s) failed") and "s01: training worker process died" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        rows = evaluation.read_report_csv(next(out.glob("loso-*")) / "report.csv")
        assert [(r["scope"], r["stream"]) for r in rows] == [("fold_failed", "training worker process died")] * 2
        assert len(pids) == 2, mode  # one worker per fold
        assert_reaped(pids)


def test_interrupted_training_leaves_no_worker(tmp_path, monkeypatch):
    """On 3 cores, one worker per group of the largest batch but at least
    one: 2 when batches split into 3 groups, 1 for one-group batches."""
    samples = load_manifest(synth(tmp_path, extra=["--utts", "4"]))
    caller = os.getpid()
    train_group = training._train_group

    def interrupted(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return train_group(*args)

    for mode, forks in (("split", 2), ("one_group", 1)):
        with monkeypatch.context() as patch:
            training_workers(patch, mode, cores=3)
            patch.setattr(training, "_train_group", interrupted)
            pids = forked_pids(patch)
            model = InversionModel(SMALL, seed=2)
            apply_scenario(SCENARIOS["S3"], model)
            with pytest.raises(KeyboardInterrupt):
                training.train_model(model, SCENARIOS["S3"], samples, [], training.Hyper(epochs=1, batch_size=3),
                                     seed=3)
        assert len(pids) == forks, mode
        assert_reaped(pids)


def test_dead_fold_worker_does_not_wait_for_its_gradient_workers(tmp_path, capfd, monkeypatch):
    """A fold worker killed while its own training worker runs a group fails
    its fold at once: that training worker holds no end of the fold
    worker's pipes, so the command exits 2 while it still runs."""
    manifest = synth(tmp_path, extra=["--speakers", "3", "--utts", "4"])
    split_every_batch(monkeypatch, cores=4)  # with --jobs 2, every fold trains on 2 processes
    caller = os.getpid()
    run_fold, train_group = evaluation.run_fold, training._train_group
    fold_worker = []
    grandchild = tmp_path / "grandchild.pid"

    def marks_the_fold_worker(plan, *args):
        if os.getpid() != caller:
            fold_worker.append(os.getpid())
        return run_fold(plan, *args)

    def dies_beside_its_training_worker(*args):
        if fold_worker and os.getpid() == fold_worker[0]:
            os._exit(9)  # its training worker has started the batch's second group
        if fold_worker:
            (tmp_path / "pid").write_text(str(os.getpid()))
            os.replace(tmp_path / "pid", grandchild)
            time.sleep(60)
        return train_group(*args)

    monkeypatch.setattr(evaluation, "run_fold", marks_the_fold_worker)
    monkeypatch.setattr(training, "_train_group", dies_beside_its_training_worker)
    pids = forked_pids(monkeypatch)
    out = tmp_path / "loso"
    capfd.readouterr()
    started = time.monotonic()
    assert main(["loso", "--manifest", str(manifest), "--scenario", "S1", "--out", str(out), "--seed", "0",
                 *FAST_TRAIN, "--jobs", "2"]) == 2
    assert time.monotonic() - started < 30  # the training worker sleeps for 60 s
    err = capfd.readouterr().err
    assert err.startswith("artinv: error: fold(s) failed") and "s02: worker process died" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    for _ in range(100):  # the training worker may not have started its group yet
        if grandchild.exists():
            break
        time.sleep(0.1)
    os.kill(int(grandchild.read_text()), signal.SIGKILL)
    assert len(pids) == 5  # the fold worker, and a gradient and a prediction worker for each fold run here
    assert_reaped(pids)


@pytest.mark.parametrize("command", ["loso", "eval"])
def test_interrupt_kills_and_reaps_every_worker(tmp_path, monkeypatch, command):
    """A KeyboardInterrupt in this process, during ``loso --jobs 2`` or an
    ``eval`` on 3 processes, kills each worker, still busy, and reaps it."""
    manifest = synth(tmp_path, extra=["--speakers", "3"])
    caller = os.getpid()
    if command == "loso":
        run_fold = evaluation.run_fold

        def interrupted(plan, *args):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)
            return run_fold(plan, *args)

        monkeypatch.setattr(evaluation, "run_fold", interrupted)
        argv = ["loso", "--manifest", str(manifest), "--scenario", "S1", "--seed", "0", *FAST_TRAIN, "--jobs", "2"]
    else:
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, InversionModel(SMALL, seed=1), feature_config_hash(MfccConfig()))
        monkeypatch.setattr(workers, "usable_cores", lambda: 3)
        predict = InversionModel.predict

        def interrupted(self, mfcc, phonemes):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)
            return predict(self, mfcc, phonemes)

        monkeypatch.setattr(InversionModel, "predict", interrupted)
        argv = ["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt)]
    pids = forked_pids(monkeypatch)
    statuses = exit_statuses(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        main(argv + ["--out", str(tmp_path / "out")])
    assert len(pids) == (1 if command == "loso" else 2)
    assert_reaped(pids)
    assert all(os.WIFSIGNALED(statuses[pid]) and os.WTERMSIG(statuses[pid]) == signal.SIGKILL for pid in pids)

PARENT_DIES = """
import functools, os, sys
import numpy as np
from artinv import training
from artinv.dataio import UtteranceSample
from artinv.model import InversionModel, ModelConfig, SCENARIOS, apply_scenario

fork = os.fork
def reporting():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = reporting
caller = os.getpid()
train_group = training._train_group
def parent_dies(*args):
    if os.getpid() == caller:
        os._exit(0)  # the worker is running its first group
    return train_group(*args)
training._train_group = parent_dies
training.pack_groups = functools.partial(training.pack_groups, limit=1)
rng = np.random.default_rng(0)
samples = [UtteranceSample(f"u{i}", "s", rng.normal(size=(8, 39)), np.eye(39)[rng.integers(0, 39, 8)],
                           rng.normal(size=(8, 12))) for i in range(4)]
model = InversionModel(ModelConfig(attn_model_dim=8, attn_layers=1, attn_heads=2, attn_head_dim=4), seed=1)
apply_scenario(SCENARIOS["S3"], model)
training.train_model(model, SCENARIOS["S3"], samples, [], training.Hyper(epochs=1, batch_size=4), seed=2, cores=2)
"""


def test_training_worker_exits_when_its_parent_dies():
    """The worker holds the command's stdout, so the command's output ends
    only once the orphaned worker has exited on its pipes' end of file."""
    env = {**os.environ, "PYTHONPATH": str(Path(artinv.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", PARENT_DIES], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.split()) == 1  # one worker was forked
    assert done.stderr == ""


def test_blas_core_changes_reports_only_in_rounding(tmp_path):
    """Two OpenBLAS core kernels give reports that agree to a relative 1e-9,
    well above GEMM rounding, and each run's environment.json names its core."""
    manifest = synth(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, InversionModel(ModelConfig(), seed=1), feature_config_hash(MfccConfig()))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(artinv.__file__).resolve().parents[1])

    def run(core):
        out = tmp_path / f"eval-{core}"
        subprocess.run([sys.executable, "-m", "artinv", "eval", "--manifest", str(manifest), "--checkpoint", str(ckpt),
                        "--out", str(out)], env={**env, **({"OPENBLAS_CORETYPE": core} if core else {})},
                       capture_output=True, check=True)
        run_dir = next(out.glob("eval-*"))
        with open(run_dir / "report.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return json.loads((run_dir / "environment.json").read_text())["openblas_corename"], rows

    default_core, default_rows = run(None)
    if default_core is None:
        pytest.skip("this numpy carries no scipy-openblas library")
    forced = "Sandybridge" if default_core == "Haswell" else "Haswell"
    forced_core, forced_rows = run(forced)
    if forced_core != forced:
        pytest.skip(f"OpenBLAS does not report the forced {forced} core on this CPU")
    assert forced_core != default_core
    assert [row[:6] for row in forced_rows] == [row[:6] for row in default_rows]
    np.testing.assert_allclose([[float(v) for v in row[6:]] for row in forced_rows[1:]],
                               [[float(v) for v in row[6:]] for row in default_rows[1:]], rtol=1e-9, atol=0)


class TestLoso:
    def test_structure_and_exit(self, tmp_path):
        manifest = synth(tmp_path, extra=["--speakers", "3"])
        out = tmp_path / "loso"
        assert main(["loso", "--manifest", str(manifest), "--scenario", "S1",
                     "--out", str(out), "--seed", "4", *FAST_TRAIN]) == 0
        run_dir = next(out.glob("loso-*"))
        rows = (run_dir / "report.csv").read_text().splitlines()
        fold_rows = [r for r in rows if r.startswith("fold")]
        grand_rows = [r for r in rows if r.startswith("grand")]
        assert len(fold_rows) == 3
        assert len(grand_rows) == 1

    @pytest.mark.parametrize("command, jobs", [("loso", "0"), ("loso", "-5"), ("ablate", "-1"), ("ablate", "0")])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, command, jobs):
        out = tmp_path / "runs"
        scenario = ["--scenario", "S1"] if command == "loso" else []
        code = main([command, "--manifest", str(synth(tmp_path)), *scenario, "--out", str(out), "--seed", "0",
                     *FAST_TRAIN, "--jobs", jobs])
        assert code == 1
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()  # rejected before any run directory is made

    def test_single_speaker_degenerate(self, tmp_path, capsys):
        manifest = synth(tmp_path, extra=["--speakers", "1"])
        code = main(["loso", "--manifest", str(manifest), "--scenario", "S1",
                     "--out", str(tmp_path / "loso"), "--seed", "0", *FAST_TRAIN])
        assert code == 2
        assert "degenerate" in capsys.readouterr().err


def test_cli_import_loads_no_process_pool():
    """Workers are forked directly, so no command imports the modules of
    ``concurrent.futures`` or ``multiprocessing``."""
    code = ("import sys, artinv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": str(Path(artinv.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    """Every command starts without importing scipy."""
    code = "import sys, artinv.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(artinv.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "end_to_end" in out
    assert "all gradient checks passed" in out


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "default: 20" in text        # epochs
    assert "default: 0.0001" in text    # learning rate
    assert "default: 5" in text         # batch size


def test_run_dir_named_by_config_hash(tmp_path):
    manifest = synth(tmp_path)
    out = tmp_path / "runs"
    main(["train", "--manifest", str(manifest), "--scenario", "S1", "--out", str(out),
          "--seed", "1", *FAST_TRAIN])
    main(["train", "--manifest", str(manifest), "--scenario", "S1", "--out", str(out),
          "--seed", "2", *FAST_TRAIN])
    assert len(list(out.glob("train-*"))) == 2  # different configs, different dirs


@pytest.mark.parametrize("command", ["train", "loso", "eval"])
@pytest.mark.parametrize("flag, value, message", [
    ("--hop_ms", "0", "hop length"), ("--hop_ms", "-10", "hop length"), ("--window_ms", "nan", "window length"),
    ("--window_ms", "inf", "window length"), ("--mel_filters", "0", "mel filter count"),
], ids=["hop_zero", "hop_negative", "window_nan", "window_inf", "mel_filters_zero"])
def test_bad_feature_flag_is_usage_error(tmp_path, capsys, command, flag, value, message):
    manifest = synth(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, InversionModel(SMALL), feature_config_hash(MfccConfig()))
    extra = {"train": ["--scenario", "S3", "--seed", "1", *FAST_TRAIN],
             "loso": ["--scenario", "S1", "--seed", "1", *FAST_TRAIN],
             "eval": ["--checkpoint", str(ckpt)]}[command]
    out = tmp_path / "runs"
    capsys.readouterr()
    assert main([command, "--manifest", str(manifest), "--out", str(out), *extra, flag, value]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()  # rejected before any run directory is made


@pytest.mark.parametrize("flag", ["--hop_ms", "--window_ms"])
def test_hop_or_window_under_one_sample_is_data_error(tmp_path, capsys, flag):
    """0.01 ms rounds to 0 samples at 16 kHz: a WAV utterance is rejected by
    name (exit 2) instead of being framed with a zero hop or window."""
    manifest = synth(tmp_path)
    header, row = manifest.read_text().splitlines()[:2]
    utt, speaker, _, alignment, ema = row.split(",")
    with wave.open(str(manifest.parent / f"{utt}.wav"), "wb") as audio:
        audio.setnchannels(1)
        audio.setsampwidth(2)
        audio.setframerate(16000)
        audio.writeframes(bytes(3200))
    manifest.write_text(f"{header}\n{utt},{speaker},{utt}.wav,{alignment},{ema}\n")
    assert main(["train", "--manifest", str(manifest), "--scenario", "S3", "--out", str(tmp_path / "runs"),
                 "--seed", "0", *FAST_TRAIN, flag, "0.01"]) == 2
    err = capsys.readouterr().err
    assert utt in err and "at 16000 Hz" in err


def test_unset_blas_thread_count_gives_the_pinned_bytes(tmp_path):
    """OpenBLAS's own default thread count (one per core) would change GEMM
    rounding; importing artinv pins it to 1 unless the user set it."""
    manifest = synth(tmp_path, extra=["--utts", "3", "--dur_min", "5", "--dur_max", "20",
                                      "--phones_min", "2", "--phones_max", "5"])
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = str(Path(artinv.__file__).resolve().parents[1])
    digests = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"runs-{len(threads)}"
        subprocess.run([sys.executable, "-m", "artinv", "train", "--manifest", str(manifest), "--scenario", "S3",
                        "--seed", "0", "--epochs", "1", "--out", str(out)],
                       env={**base, **threads}, capture_output=True, check=True)
        digests.append(hashlib.sha256((next(out.glob("train-*")) / "checkpoint.ckpt").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


# Prints the OpenBLAS thread count ("none" without numpy's scipy-openblas
# library) and a digest of one full-size forward at T = 225.
IMPORT_ORDER_PROBE = """
import ctypes, glob, hashlib, os, sys
if sys.argv[1] == "numpy_first":
    import numpy
import artinv
import numpy as np
from artinv.model import InversionModel

libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"))
threads = "none"
if libs:
    get_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    get_threads.restype = ctypes.c_int
    threads = get_threads()
rng = np.random.default_rng(0)
onehot = np.eye(39)[rng.integers(0, 39, 225)]
out = InversionModel(seed=0).predict(rng.normal(size=(225, 39)), onehot)
print(threads, hashlib.sha256(out["inversion"].tobytes()).hexdigest())
"""


def test_blas_pin_holds_when_numpy_is_imported_first():
    """A numpy imported before artinv has loaded OpenBLAS before the pin's
    variable is set; artinv then sets the count through that library, so
    both import orders run 1 thread and give the same bytes."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(artinv.__file__).resolve().parents[1])
    results = [subprocess.run([sys.executable, "-c", IMPORT_ORDER_PROBE, order], env=env, capture_output=True,
                              text=True, check=True).stdout.split()
               for order in ("artinv_first", "numpy_first")]
    if results[0][0] == "none":
        pytest.skip("this numpy carries no scipy-openblas library")
    assert results[0][0] == "1"
    assert results[1] == results[0]


def test_blas_pin_warns_when_the_loaded_library_is_not_found(tmp_path, monkeypatch, caplog):
    fake_numpy = types.ModuleType("numpy")
    fake_numpy.__file__ = str(tmp_path / "numpy" / "__init__.py")
    monkeypatch.setitem(sys.modules, "numpy", fake_numpy)
    artinv._pin_loaded_openblas()
    assert "thread count could not be set" in caplog.text
