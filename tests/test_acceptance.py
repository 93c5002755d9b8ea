"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Paper-scale corpus results are not reproducible at desk scale;
these criteria are property-based (gradients, oracles, conservation,
convergence, protocol structure, directional ordering, determinism).
"""

import hashlib
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from artinv import gradcheck
from artinv.autodiff import Tensor, _attention_weights
from artinv.dataio import (
    SyntheticSpec, UtteranceSample, generate_synthetic, load_checkpoint,
    load_manifest, save_checkpoint, write_matrix_csv,
)
from artinv.evaluation import make_fold_plans, pcc, rmse, run_ablation, run_loso
from artinv.features import ARPABET_39, EMA_CHANNELS
from artinv.layers import AttentionEncoder, BLSTMLayer, ConvBank, LayerNorm
from artinv.model import InversionModel, ModelConfig, SCENARIOS, apply_scenario
from artinv.training import Hyper, train_model
from oracles import conv_bank_oracle, lstm_oracle, pearson_oracle, rmse_oracle

SMALL = ModelConfig(
    conv_channels=4, kernel_sizes=(1, 3), attn_model_dim=16, attn_layers=2,
    attn_heads=2, attn_head_dim=8, speech_fc_units=10, blstm_hidden=4,
)


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}" + (f" ({detail})" if detail else ""), flush=True)
    assert passed, f"criterion {number} ({name}): {detail}"


def tree_digest(root: Path, skip=()):
    acc = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in skip:
            acc.update(str(path.relative_to(root)).encode())
            acc.update(path.read_bytes())
    return acc.hexdigest()


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "artinv", *args],
                          capture_output=True, text=True)


def test_criterion_1_gradient_suite():
    started = time.monotonic()
    results, e2e, passed = gradcheck.run_all(seed=0)
    elapsed = time.monotonic() - started
    worst = max(results.values())
    report(1, "gradient-suite",
           passed and elapsed < 300.0,
           f"worst layer/primitive {worst:.2e} < 1e-5, end-to-end {e2e:.2e} < 1e-4, {elapsed:.0f}s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0

    for _ in range(20):
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        bank = ConvBank(c_in, c_out, kernel_sizes=(1, 3, 5), rng=rng)
        x = rng.normal(size=(int(rng.integers(2, 8)), c_in))
        got = bank.forward(Tensor(x)).data
        worst = max(worst, np.max(np.abs(got - conv_bank_oracle(x, bank))))

    for _ in range(20):
        layer = BLSTMLayer(3, hidden=2, rng=rng)
        x = rng.normal(size=(int(rng.integers(2, 6)), 3))
        got = layer.forward(Tensor(x)).data
        fw = lstm_oracle(x, layer.fw.wx.data, layer.fw.wh.data, layer.fw.bias.data, 2)
        bw = lstm_oracle(x[::-1], layer.bw.wx.data, layer.bw.wh.data, layer.bw.bias.data, 2)[::-1]
        worst = max(worst, np.max(np.abs(got - np.concatenate([fw, bw], axis=1))))

    for _ in range(20):
        pred = rng.normal(size=(int(rng.integers(2, 9)), 3))
        target = rng.normal(size=pred.shape)
        worst = max(worst, np.max(np.abs(rmse(pred, target) - rmse_oracle(pred, target))))
        worst = max(worst, np.max(np.abs(pcc(pred, target) - pearson_oracle(pred, target))))

    report(2, "oracle-equivalence", worst < 1e-10, f"max |difference| {worst:.2e} over 20+ instances each")


def test_criterion_3_conservation_normalization():
    rng = np.random.default_rng(3)
    encoder = AttentionEncoder(512, layers=6, heads=8, head_dim=64, rng=rng)
    x = rng.normal(size=(7, 512))
    worst_row = 0.0
    for layer in encoder.layers:
        for w in _attention_weights(x @ layer.wq.data, x @ layer.wk.data, layer.heads):
            worst_row = max(worst_row, float(np.max(np.abs(w.sum(axis=1) - 1.0))))
            assert np.all(w >= 0)
        x = layer.forward(Tensor(x)).data

    # output variance is v/(v+eps); the 1e-6 band needs non-degenerate input
    # with variance well above eps*1e6
    norm = LayerNorm(64)
    out = norm.forward(Tensor(rng.normal(scale=5.0, size=(20, 64)))).data
    worst_mean = float(np.max(np.abs(out.mean(axis=1))))
    worst_var = float(np.max(np.abs(out.var(axis=1) - 1.0)))
    report(3, "conservation-normalization",
           worst_row < 1e-9 and worst_mean < 1e-9 and worst_var < 1e-6,
           f"attention row sums off by {worst_row:.1e} < 1e-9, layer-norm mean {worst_mean:.1e}, "
           f"var offset {worst_var:.1e}")


@pytest.mark.slow
def test_criterion_4_overfit(tmp_path):
    started = time.monotonic()
    spec = SyntheticSpec(speakers=1, utterances_per_speaker=1, seed=42,
                         duration_range=(4, 6), phones_range=(1, 2), noise_scale=0.3)
    base = load_manifest(generate_synthetic(spec, tmp_path / "corpus"))[0]
    copies = [UtteranceSample(f"copy{i}", base.speaker_id, base.mfcc, base.phonemes, base.ema)
              for i in range(5)]
    # epochs pinned at 200; lr is free and the full-corpus default 1e-4 is
    # far too slow to overfit five copies in 200 steps
    hyper = Hyper(epochs=200, learning_rate=1e-3, batch_size=5)
    ratios = []
    for seed in (0, 1, 2):
        model = InversionModel(ModelConfig(), seed=seed)
        apply_scenario(SCENARIOS["S3"], model)
        trace = train_model(model, SCENARIOS["S3"], copies, [], hyper, seed=seed).trace
        ratios.append(trace[-1][1] / trace[0][1])
    elapsed = time.monotonic() - started
    report(4, "overfit", all(r < 0.05 for r in ratios) and elapsed < 600.0,
           "final/epoch-1 loss " + ", ".join(f"{r:.3%}" for r in ratios) + f"; {elapsed:.0f}s < 600s")


def test_criterion_5_scenario_semantics(tmp_path):
    samples = load_manifest(generate_synthetic(
        SyntheticSpec(speakers=2, utterances_per_speaker=3, seed=5,
                      duration_range=(3, 5), phones_range=(1, 2)), tmp_path / "corpus"))
    hyper = Hyper(epochs=2, learning_rate=1e-2, batch_size=3)

    # S1: speech-stream (and fusion/head) parameters bitwise unchanged from init
    model = InversionModel(SMALL, seed=50)
    reference = InversionModel(SMALL, seed=50)
    apply_scenario(SCENARIOS["S1"], model)
    train_model(model, SCENARIOS["S1"], samples, [], hyper, seed=51)
    s1_ok = all(
        np.array_equal(model.parameters()[n].data, reference.parameters()[n].data)
        for n in model.partition_params("speech_stream")
    )

    # S2: phoneme partition bitwise identical to the loaded pretrained checkpoint
    pre = InversionModel(SMALL, seed=52)
    apply_scenario(SCENARIOS["S1"], pre)
    train_model(pre, SCENARIOS["S1"], samples, [], hyper, seed=53)
    ckpt_path = tmp_path / "pretrain.ckpt"
    save_checkpoint(ckpt_path, pre, "hash", scenario="S1")
    loaded = load_checkpoint(ckpt_path)
    phoneme_arrays = {n: loaded.arrays[n] for n in pre.partition_params("phoneme_stream")}
    model2 = InversionModel(SMALL, seed=54)
    apply_scenario(SCENARIOS["S2"], model2, pretrained_arrays=phoneme_arrays)
    train_model(model2, SCENARIOS["S2"], samples, [], hyper, seed=55)
    s2_ok = all(np.array_equal(model2.parameters()[n].data, arr)
                for n, arr in phoneme_arrays.items())

    report(5, "scenario-semantics", s1_ok and s2_ok,
           "S1 speech partition == init bitwise; S2 phoneme partition == pretrained checkpoint bitwise")


def test_criterion_6_loso_protocol(tmp_path):
    samples = load_manifest(generate_synthetic(
        SyntheticSpec(speakers=8, utterances_per_speaker=2, seed=6,
                      duration_range=(3, 5), phones_range=(1, 2)), tmp_path / "corpus"))
    plans = make_fold_plans(samples, seed=60)
    speakers = sorted({s.speaker_id for s in samples})
    structure_ok = (
        len(plans) == 8
        and sorted(p.held_out_speaker for p in plans) == speakers
        and all(not (set(p.train_ids) | set(p.val_ids)) & set(p.test_ids) for p in plans)
    )
    rep = run_loso(samples, "S1", Hyper(epochs=1, batch_size=5), seed=60,
                   out_dir=tmp_path / "run", model_config=SMALL)
    fold_vals = [f.streams["phoneme"].rmse_mean for f in rep.folds]
    fold_pccs = [f.streams["phoneme"].pcc_mean for f in rep.folds]
    grand_ok = (rep.grand["phoneme"].rmse_mean == float(np.mean(fold_vals))
                and rep.grand["phoneme"].pcc_mean == float(np.mean(fold_pccs)))
    report(6, "loso-protocol", structure_ok and len(rep.folds) == 8 and grand_ok,
           "8 disjoint folds, each speaker held out once, grand == arithmetic fold mean exactly")


@pytest.mark.slow
def test_criterion_7_directional_ablation(tmp_path):
    # strong phoneme->articulator coupling: anchors are well separated, noise
    # is small, and the rendered acoustics carry articulator detail only
    # weakly (acoustic_ema_scale), so the phoneme stream is genuinely
    # informative; 10 epochs keeps all arms in the regime where that
    # information decides the ordering
    started = time.monotonic()
    spec = SyntheticSpec(speakers=3, utterances_per_speaker=4, seed=100,
                         duration_range=(4, 8), phones_range=(2, 3),
                         noise_scale=0.1, speaker_offset_scale=1.0, smoothing=2,
                         acoustic_ema_scale=0.02)
    samples = load_manifest(generate_synthetic(spec, tmp_path / "corpus"))
    hyper = Hyper(epochs=10, learning_rate=1e-3, batch_size=5)

    two_wins = 0
    joint_wins = 0
    details = []
    for seed in (0, 1, 2):
        reports = run_ablation(samples, hyper, seed=seed, out_dir=tmp_path / f"abl{seed}")
        s1 = run_loso(samples, "S1", hyper, seed=seed, out_dir=tmp_path / f"s1-{seed}")
        two = reports["two_stream"].grand["inversion"].rmse_mean
        only = reports["speech_only"].grand["inversion"].rmse_mean
        s3p = reports["two_stream"].grand["phoneme"].rmse_mean
        s1r = s1.grand["phoneme"].rmse_mean
        two_wins += two < only
        joint_wins += s3p <= s1r
        details.append(f"seed{seed} two {two:.3f} vs only {only:.3f}, S3(P) {s3p:.3f} vs S1 {s1r:.3f}")
    elapsed = time.monotonic() - started
    report(7, "directional-ablation",
           two_wins >= 2 and joint_wins >= 2 and elapsed < 1800.0,
           f"two-stream wins {two_wins}/3, joint-phoneme wins {joint_wins}/3; "
           + "; ".join(details) + f"; {elapsed:.0f}s < 1800s")


def test_criterion_8_cli_determinism(tmp_path):
    synth_args = ["synth", "--out", str(tmp_path / "corpus"), "--seed", "0",
                  "--speakers", "2", "--utts", "2", "--dur_min", "3", "--dur_max", "5",
                  "--phones_min", "1", "--phones_max", "2", "--force"]
    digests = []
    for _ in range(2):
        assert run_cli(synth_args).returncode == 0
        digests.append(tree_digest(tmp_path / "corpus"))
    synth_ok = digests[0] == digests[1]

    manifest = tmp_path / "corpus" / "manifest.csv"
    train_args = ["train", "--manifest", str(manifest), "--scenario", "S3",
                  "--out", str(tmp_path / "runs"), "--seed", "1", "--epochs", "1",
                  "--batch_size", "2"]
    digests = []
    for _ in range(2):
        assert run_cli(train_args).returncode == 0
        run_dir = next((tmp_path / "runs").glob("train-*"))
        digests.append(tree_digest(run_dir))
    train_ok = digests[0] == digests[1]

    loso_args = ["loso", "--manifest", str(manifest), "--scenario", "S1",
                 "--out", str(tmp_path / "loso"), "--seed", "2", "--epochs", "1",
                 "--batch_size", "2"]
    digests = []
    for _ in range(2):
        assert run_cli(loso_args).returncode == 0
        run_dir = next((tmp_path / "loso").glob("loso-*"))
        digests.append(tree_digest(run_dir, skip=("timing.txt",)))
    loso_ok = digests[0] == digests[1]

    report(8, "cli-determinism", synth_ok and train_ok and loso_ok,
           "synth/train/loso re-runs byte-identical (checkpoints, reports, traces)")


def _write_wav_corpus(root: Path):
    """Manifest in the audio form a converted external corpus would use:
    WAV + alignment + EMA CSV per utterance, two speakers."""
    import scipy.io.wavfile

    rng = np.random.default_rng(9)
    rate = 16000
    rows = []
    for speaker in ("spkA", "spkB"):
        (root / speaker).mkdir(parents=True)
        for u in range(2):
            utt = f"{speaker}_u{u}"
            t = np.arange(int(0.6 * rate)) / rate
            freq = rng.uniform(120.0, 400.0)
            audio = 0.4 * np.sin(2 * np.pi * freq * t) + 0.05 * rng.normal(size=t.size)
            scipy.io.wavfile.write(root / speaker / f"{utt}.wav", rate,
                                   (audio * 32767 / np.max(np.abs(audio))).astype(np.int16))
            labels = rng.choice(ARPABET_39, size=2)
            with open(root / speaker / f"{utt}.align.txt", "w") as fh:
                fh.write(f"0.0\t0.25\t{labels[0]}\n")
                fh.write("0.25\t0.35\tsil\n")
                fh.write(f"0.35\t0.6\t{labels[1]}\n")
            times = np.arange(0, 61) * 0.01
            values = rng.normal(scale=2.0, size=(61, 12)).cumsum(axis=0) * 0.2
            write_matrix_csv(root / speaker / f"{utt}.ema.csv",
                             np.column_stack([times, values]),
                             header=("time_s",) + EMA_CHANNELS)
            rows.append(f"{utt},{speaker},{speaker}/{utt}.wav,{speaker}/{utt}.align.txt,{speaker}/{utt}.ema.csv")
    manifest = root / "manifest.csv"
    manifest.write_text("utterance_id,speaker_id,features,alignment,ema\n" + "\n".join(rows) + "\n")
    return manifest


def test_criterion_9_reference_passthrough(tmp_path):
    manifest = _write_wav_corpus(tmp_path / "hprc_converted")
    result = run_cli(["loso", "--manifest", str(manifest), "--scenario", "S3",
                      "--out", str(tmp_path / "out"), "--seed", "3",
                      "--epochs", "1", "--batch_size", "2"])
    ok = result.returncode == 0
    shape_ok = False
    if ok:
        run_dir = next((tmp_path / "out").glob("loso-*"))
        rows = (run_dir / "report.csv").read_text().splitlines()
        folds = [r for r in rows if r.startswith("fold")]
        grand = [r for r in rows if r.startswith("grand")]
        speakers_seen = {r.split(",")[2] for r in folds}
        shape_ok = (speakers_seen == {"spkA", "spkB"} and len(grand) == 2
                    and (run_dir / "report.txt").exists())
    report(9, "reference-passthrough", ok and shape_ok,
           "audio manifest scored end-to-end; per-speaker RMSE/PCC rows + grand means emitted")
