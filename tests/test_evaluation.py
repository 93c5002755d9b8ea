"""Metrics, fold planning, the LOSO protocol, and report reproducibility."""

import functools
import hashlib
import os
import threading

import numpy as np
import pytest

from artinv import evaluation as ev
from artinv import training, workers
from artinv.dataio import (
    SyntheticSpec, generate_synthetic, load_checkpoint, load_manifest, model_from_checkpoint, save_checkpoint,
)
from artinv.errors import DataError
from artinv.evaluation import make_fold_plans, pcc, rmse, run_ablation, run_loso
from artinv.features import MfccConfig, feature_config_hash
from artinv.model import InversionModel, ModelConfig, SCENARIOS
from artinv.training import Hyper
from forks import assert_reaped, forked_pids, threads_at_fork
from oracles import rmse_oracle

TINY = ModelConfig(
    conv_channels=2, kernel_sizes=(1, 3), attn_model_dim=8, attn_layers=1,
    attn_heads=2, attn_head_dim=4, speech_fc_units=6, blstm_hidden=3,
)


class TestRmse:
    def test_zero_when_equal(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        np.testing.assert_array_equal(rmse(x, x), np.zeros(3))

    def test_constant_offset(self):
        x = np.random.default_rng(1).normal(size=(5, 4))
        np.testing.assert_allclose(rmse(x + 2.5, x), np.full(4, 2.5), atol=1e-12)
        np.testing.assert_allclose(rmse(x - 1.25, x), np.full(4, 1.25), atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pred = rng.normal(size=(4, 2))
            target = rng.normal(size=(4, 2))
            np.testing.assert_allclose(rmse(pred, target), rmse_oracle(pred, target),
                                       atol=1e-12, rtol=0)

    def test_triangle_like_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = (rng.normal(size=(6, 3)) for _ in range(3))
            lhs = rmse(a, c)
            rhs = rmse(a, b) + rmse(b, c)
            assert np.all(lhs <= rhs + 1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            rmse(np.zeros((3, 2)), np.zeros((4, 2)))


class TestPcc:
    def test_perfect_correlation(self):
        x = np.random.default_rng(4).normal(size=(8, 3))
        np.testing.assert_allclose(pcc(x, x), np.ones(3), atol=1e-12)

    def test_perfect_anticorrelation(self):
        x = np.random.default_rng(5).normal(size=(8, 3))
        x -= x.mean(axis=0)
        np.testing.assert_allclose(pcc(-x, x), -np.ones(3), atol=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 2))
        np.testing.assert_allclose(pcc(2.0 * x + 3.0, x), np.ones(2), atol=1e-12)
        for _ in range(20):
            a = rng.uniform(0.1, 5.0)
            b = rng.normal()
            y = rng.normal(size=(10, 2))
            np.testing.assert_allclose(pcc(a * y + b, x), pcc(y, x), atol=1e-12)

    def test_zero_variance_target_is_nan(self):
        pred = np.random.default_rng(7).normal(size=(6, 2))
        target = pred.copy()
        target[:, 1] = 3.0
        out = pcc(pred, target)
        assert out[0] == pytest.approx(1.0)
        assert np.isnan(out[1])

    def test_constant_prediction_scores_zero(self):
        target = np.random.default_rng(8).normal(size=(6, 1))
        assert pcc(np.full((6, 1), 2.0), target)[0] == 0.0


def corpus(tmp_path, speakers=3, utts=4, seed=0):
    spec = SyntheticSpec(
        speakers=speakers, utterances_per_speaker=utts, seed=seed,
        duration_range=(3, 5), phones_range=(1, 2), noise_scale=0.2,
    )
    return load_manifest(generate_synthetic(spec, tmp_path / "corpus"))


class TestFoldPlans:
    def test_disjoint_and_exhaustive(self, tmp_path):
        samples = corpus(tmp_path, speakers=4, utts=5)
        plans = make_fold_plans(samples, seed=1)
        assert len(plans) == 4
        all_ids = {s.utterance_id for s in samples}
        held_out = [p.held_out_speaker for p in plans]
        assert sorted(held_out) == sorted({s.speaker_id for s in samples})
        for plan in plans:
            train, val, test = set(plan.train_ids), set(plan.val_ids), set(plan.test_ids)
            assert not (train & val) and not (train & test) and not (val & test)
            assert train | val | test == all_ids
            speakers_in_test = {s.speaker_id for s in samples if s.utterance_id in test}
            assert speakers_in_test == {plan.held_out_speaker}
            for ids in (train, val):
                assert plan.held_out_speaker not in {s.speaker_id for s in samples if s.utterance_id in ids}

    def test_stratified_split_proportions(self, tmp_path):
        samples = corpus(tmp_path, speakers=3, utts=10)
        plans = make_fold_plans(samples, seed=2)
        for plan in plans:
            for speaker in {s.speaker_id for s in samples} - {plan.held_out_speaker}:
                ids = {s.utterance_id for s in samples if s.speaker_id == speaker}
                assert len(ids & set(plan.train_ids)) == 8
                assert len(ids & set(plan.val_ids)) == 2

    def test_single_speaker_degenerate(self, tmp_path):
        samples = corpus(tmp_path, speakers=1, utts=3)
        with pytest.raises(DataError, match="degenerate"):
            make_fold_plans(samples, seed=0)


class TestLoso:
    def test_protocol_structure_and_grand_mean(self, tmp_path):
        samples = corpus(tmp_path, speakers=3, utts=3, seed=4)
        hyper = Hyper(epochs=1, batch_size=2)
        report = run_loso(samples, "S1", hyper, seed=5, out_dir=tmp_path / "run",
                          model_config=TINY, feature_hash=feature_config_hash(MfccConfig()))
        assert len(report.folds) == 3
        assert [f.held_out_speaker for f in report.folds] == ["s01", "s02", "s03"]
        for stream in report.grand:
            fold_vals = [f.streams[stream].rmse_mean for f in report.folds]
            assert report.grand[stream].rmse_mean == float(np.mean(fold_vals))
            fold_pcc = [f.streams[stream].pcc_mean for f in report.folds]
            assert report.grand[stream].pcc_mean == float(np.mean(fold_pcc))

    def test_report_reproducible_from_disk(self, tmp_path):
        samples = corpus(tmp_path, speakers=2, utts=3, seed=6)
        hyper = Hyper(epochs=1, batch_size=2)
        out = tmp_path / "run"
        report = run_loso(samples, "S3", hyper, seed=7, out_dir=out, model_config=TINY)

        rows = ev.read_report_csv(out / "report.csv")
        fold_rows = [r for r in rows if r["scope"] == "fold"]
        grand_rows = [r for r in rows if r["scope"] == "grand"]
        for grand in grand_rows:
            stream = grand["stream"]
            vals = [float(r["rmse_mm"]) for r in fold_rows if r["stream"] == stream]
            assert float(grand["rmse_mm"]) == float(np.mean(vals))

        # scoring again from the persisted prediction files reproduces the report
        idx, _ = ev.channel_indices("tongue")
        for fold, plan in zip(report.folds, make_fold_plans(samples, seed=7)):
            redone = ev.score_stream_dir(out / "folds" / fold.held_out_speaker, SCENARIOS["S3"].scored_streams,
                                         plan.test_ids, idx)
            assert list(redone) == list(fold.streams) == ["phoneme", "inversion"]
            for stream, score in redone.items():
                assert score.rmse_mean == fold.streams[stream].rmse_mean
                assert score.pcc_mean == fold.streams[stream].pcc_mean
                np.testing.assert_array_equal(score.rmse_channels, fold.streams[stream].rmse_channels)
                np.testing.assert_array_equal(score.pcc_channels, fold.streams[stream].pcc_channels)

    def test_s3_scores_both_streams(self, tmp_path):
        samples = corpus(tmp_path, speakers=2, utts=2, seed=8)
        report = run_loso(samples, "S3", Hyper(epochs=1, batch_size=2), seed=9,
                          out_dir=tmp_path / "run", model_config=TINY)
        assert set(report.grand) == {"phoneme", "inversion"}

    def test_s2_auto_pretrains_per_fold(self, tmp_path):
        samples = corpus(tmp_path, speakers=2, utts=2, seed=10)
        out = tmp_path / "run"
        run_loso(samples, "S2", Hyper(epochs=1, batch_size=2), seed=11,
                 out_dir=out, model_config=TINY)
        for speaker in ("s01", "s02"):
            ckpt = load_checkpoint(out / "folds" / speaker / "pretrain_phoneme.ckpt")
            final = load_checkpoint(out / "folds" / speaker / "checkpoint.ckpt")
            for name in model_from_checkpoint(ckpt).partition_params("phoneme_stream"):
                assert np.array_equal(ckpt.arrays[name], final.arrays[name]), name


class TestAblation:
    def test_speech_only_arm_has_no_phoneme_parameters(self, tmp_path):
        samples = corpus(tmp_path, speakers=2, utts=2, seed=12)
        out = tmp_path / "run"
        reports = run_ablation(samples, Hyper(epochs=1, batch_size=2), seed=13,
                               out_dir=out, model_config=TINY)
        assert set(reports) == {"two_stream", "speech_only"}
        for speaker in ("s01", "s02"):
            ckpt = load_checkpoint(out / "speech_only" / "folds" / speaker / "checkpoint.ckpt")
            assert not any(n.startswith("phoneme.") for n in ckpt.arrays)
        assert (out / "ablation.csv").exists()
        assert (out / "ablation.txt").exists()

    def test_arms_share_folds(self, tmp_path):
        samples = corpus(tmp_path, speakers=2, utts=2, seed=14)
        reports = run_ablation(samples, Hyper(epochs=1, batch_size=2), seed=15,
                               out_dir=tmp_path / "run", model_config=TINY)
        a = [f.held_out_speaker for f in reports["two_stream"].folds]
        b = [f.held_out_speaker for f in reports["speech_only"].folds]
        assert a == b


def test_failed_fold_marked_and_grand_suppressed(tmp_path, monkeypatch):
    samples = corpus(tmp_path, speakers=3, utts=2, seed=18)
    real_run_fold = ev.run_fold

    def flaky(plan, *args, **kwargs):
        if plan.index == 1:
            raise DataError("synthetic fold failure")
        return real_run_fold(plan, *args, **kwargs)

    monkeypatch.setattr(ev, "run_fold", flaky)
    report = run_loso(samples, "S1", Hyper(epochs=1, batch_size=2), seed=19,
                      out_dir=tmp_path / "run", model_config=TINY)
    assert report.grand == {}
    assert [f.failed is not None for f in report.folds] == [False, True, False]
    rows = (tmp_path / "run" / "report.csv").read_text().splitlines()
    assert any(r.startswith("fold_failed,1,s02") for r in rows)
    assert not any(r.startswith("grand") for r in rows)


def test_parallel_folds_match_sequential(tmp_path):
    samples = corpus(tmp_path, speakers=3, utts=2, seed=16)
    hyper = Hyper(epochs=1, batch_size=2)
    seq = run_loso(samples, "S1", hyper, seed=17, out_dir=tmp_path / "seq", model_config=TINY)
    par = run_loso(samples, "S1", hyper, seed=17, out_dir=tmp_path / "par",
                   model_config=TINY, jobs=2)
    for fs, fp in zip(seq.folds, par.folds):
        assert fs.streams["phoneme"].rmse_mean == fp.streams["phoneme"].rmse_mean
    assert (tmp_path / "seq" / "report.csv").read_bytes() == (tmp_path / "par" / "report.csv").read_bytes()


def test_no_training_thread_is_alive_when_the_fold_pool_forks(tmp_path, monkeypatch):
    """Folds first train in this process (jobs=1); when jobs=2 then forks
    its fold worker, only the threads that ran before training exist."""
    samples = corpus(tmp_path, speakers=2, utts=2, seed=20)
    hyper = Hyper(epochs=1, batch_size=2)
    monkeypatch.setattr(workers, "usable_cores", lambda: 2)  # one process per fold
    before = set(threading.enumerate())
    run_loso(samples, "S1", hyper, seed=21, out_dir=tmp_path / "seq", model_config=TINY)
    at_fork = threads_at_fork(monkeypatch)
    run_loso(samples, "S1", hyper, seed=21, out_dir=tmp_path / "par", model_config=TINY, jobs=2)
    assert at_fork == [before]  # fold 1's worker; fold 0 runs here


@pytest.mark.parametrize("jobs, forks", [(1, True), (2, False)])
def test_folds_share_the_usable_cores(tmp_path, monkeypatch, jobs, forks):
    """Each fold trains on usable_cores() // jobs processes: with 2 cores,
    --jobs 1 forks a training worker per fold and --jobs 2 forks none,
    since the two fold processes already fill both cores."""
    samples = corpus(tmp_path, speakers=2, utts=4, seed=22)
    monkeypatch.setattr(workers, "usable_cores", lambda: 2)
    monkeypatch.setattr(training, "pack_groups", functools.partial(training.pack_groups, limit=1))
    log = tmp_path / "shared.log"
    share = training._share

    def logged(params):  # runs once per train_model that forks workers, in any process
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        share(params)

    monkeypatch.setattr(training, "_share", logged)
    run_loso(samples, "S1", Hyper(epochs=1, batch_size=2), seed=23, out_dir=tmp_path / "run",
             model_config=TINY, jobs=jobs)
    assert (len(log.read_text().splitlines()) if log.exists() else 0) == (2 if forks else 0)


def logged_predictions(monkeypatch, log):
    """Log ``(pid, frames)`` for every utterance predicted from here on, in
    any process; returns a function that reads the log."""
    predict = InversionModel.predict

    def logging(self, mfcc, phonemes):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {len(mfcc if mfcc is not None else phonemes)}\n")
        return predict(self, mfcc, phonemes)

    monkeypatch.setattr(InversionModel, "predict", logging)
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def test_a_fold_predicts_on_its_cores(tmp_path, monkeypatch):
    """With 2 usable cores and --jobs 1, each fold predicts its held-out
    speaker's 3 utterances in 2 processes: this one and a forked worker."""
    samples = corpus(tmp_path, speakers=2, utts=3, seed=30)
    monkeypatch.setattr(workers, "usable_cores", lambda: 2)
    calls = logged_predictions(monkeypatch, tmp_path / "predict.log")
    run_loso(samples, "S1", Hyper(epochs=1, batch_size=2), seed=31, out_dir=tmp_path / "run", model_config=TINY)
    logged = calls()
    assert len(logged) == 6
    for fold in (logged[:3], logged[3:]):  # fold 1 predicts once fold 0 is scored
        pids = {pid for pid, _ in fold}
        assert len(pids) == 2 and os.getpid() in pids


class TestPredictionWorkers:
    """Eval and a fold's test set predict the utterance ranked r, longest
    first, in process r mod n: this one or a forked prediction worker."""

    def test_each_utterance_once_with_balanced_frames(self, tmp_path, monkeypatch):
        """On 3 usable cores, eval predicts every utterance of a corpus of
        mixed lengths once, in 3 processes whose frame totals differ by at
        most the longest utterance."""
        spec = SyntheticSpec(speakers=2, utterances_per_speaker=5, seed=28,
                             duration_range=(1, 12), phones_range=(1, 4))
        samples = load_manifest(generate_synthetic(spec, tmp_path / "corpus"))
        lengths = [len(s.ema) for s in samples]
        assert len(set(lengths)) > 3
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, InversionModel(TINY, seed=29), "")
        monkeypatch.setattr(workers, "usable_cores", lambda: 3)
        calls = logged_predictions(monkeypatch, tmp_path / "predict.log")
        loaded = load_checkpoint(ckpt)
        ev.evaluate_model(loaded, model_from_checkpoint(loaded), samples, tmp_path / "eval")
        logged = calls()
        assert sorted(frames for _, frames in logged) == sorted(lengths)
        totals = {}
        for pid, frames in logged:
            totals[pid] = totals.get(pid, 0) + frames
        assert len(totals) == 3 and os.getpid() in totals
        assert max(totals.values()) - min(totals.values()) <= max(lengths)

    def test_outputs_do_not_depend_on_the_process_count(self, tmp_path, monkeypatch):
        """Processes 1.. are forked workers; every prediction CSV and every
        score is the same as in one process."""
        samples = corpus(tmp_path, speakers=2, utts=3, seed=22)
        model = InversionModel(TINY, seed=23)
        idx, _ = ev.channel_indices("tongue")
        pids = forked_pids(monkeypatch)
        digests, scores = [], []
        for processes in (1, 2, 3):
            fold_dir = tmp_path / f"processes-{processes}"
            scores.append(ev._predict_and_score(model, SCENARIOS["S3"], samples, fold_dir, idx, processes))
            files = sorted(fold_dir.rglob("*.csv"))
            assert len(files) == 3 * len(samples)
            acc = hashlib.sha256()
            for path in files:
                acc.update(str(path.relative_to(fold_dir)).encode() + path.read_bytes())
            digests.append(acc.hexdigest())
        assert digests[1] == digests[0] and digests[2] == digests[0]
        for other in scores[1:]:
            for stream, score in scores[0].items():
                assert other[stream].rmse_mean == score.rmse_mean and other[stream].pcc_mean == score.pcc_mean
                np.testing.assert_array_equal(other[stream].rmse_channels, score.rmse_channels)
                np.testing.assert_array_equal(other[stream].pcc_channels, score.pcc_channels)
        assert len(pids) == 0 + 1 + 2
        assert_reaped(pids)

    def test_worker_error_reaches_the_caller(self, tmp_path, monkeypatch):
        samples = corpus(tmp_path, speakers=2, utts=2, seed=24)
        caller = os.getpid()
        predict = InversionModel.predict

        def fails_in_workers(self, mfcc, phonemes):
            if os.getpid() != caller:
                raise DataError(f"predict failed in process {os.getpid()}")
            return predict(self, mfcc, phonemes)

        monkeypatch.setattr(InversionModel, "predict", fails_in_workers)
        idx, _ = ev.channel_indices("tongue")
        pids = forked_pids(monkeypatch)
        with pytest.raises(DataError, match=r"predict failed in process \d+") as exc:
            ev._predict_and_score(InversionModel(TINY, seed=25), SCENARIOS["S3"], samples,
                                  tmp_path / "fold", idx, 2)
        assert str(caller) not in str(exc.value)
        assert len(pids) == 1
        assert_reaped(pids)

    def test_no_thread_is_alive_when_eval_forks_its_prediction_workers(self, tmp_path, monkeypatch):
        """A forked child holds only the forking thread, so the checkpoint
        load must start none before eval forks its prediction workers."""
        samples = corpus(tmp_path, speakers=2, utts=2, seed=26)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, InversionModel(TINY, seed=27), "")
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
        at_fork = threads_at_fork(monkeypatch)
        before = set(threading.enumerate())
        loaded = load_checkpoint(ckpt)
        ev.evaluate_model(loaded, model_from_checkpoint(loaded), samples, tmp_path / "eval")
        assert at_fork == [before]
