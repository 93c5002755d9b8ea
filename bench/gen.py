"""Seeded workload generator.

Builds a workload's corpus from its seed: the synthetic corpus of
``artinv.dataio.generate_synthetic`` (precomputed acoustic features as
``*.mfcc.csv``), each utterance cut to the length the workload schedules,
plus a 16 kHz WAV rendering of every utterance and a second manifest,
``manifest_wav.csv``, that points at the WAV files and reuses the alignments
and articulator tracks.  The same seed gives byte-identical files.

Each WAV holds ``(T - 1) * hop + window`` samples, so the MFCC front end
yields exactly the T frames of the alignment and the articulator track.  Its
spectrum follows the articulators: five tones whose frequencies move with
the tongue, lip and incisor channels, so a model can still learn the
inversion from the rendered audio.

    python3 bench/gen.py --workload train_short --seed 0 --out /tmp/corpus
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import workloads

RATE = 16000
HOP = 160      # 10 ms at 16 kHz, artinv's default MFCC hop
WINDOW = 400   # 25 ms at 16 kHz, artinv's default MFCC window
PHONE_FRAMES = (8, 12)

# Per-speaker articulator offset (SyntheticSpec's default is 2 mm).  After
# one epoch the model predicts close to the training speakers' mean, so the
# held-out speaker's offset sets most of rmse_mm.  Scoring that mean over
# twelve seeds of a two-speaker corpus gave a quartile spread of 17% at 2 mm
# and 4% at 0.5 mm.
SPEAKER_OFFSET_MM = 0.5

# (base frequency in Hz, articulator channel pair that moves it)
TONES = ((500.0, 0), (1500.0, 2), (2500.0, 4), (900.0, 6), (3300.0, 10))


def render_wav(ema, rng):
    """16-bit PCM samples for an articulator track ``ema`` of shape [T, 12]."""
    import numpy as np

    frames = ema.shape[0]
    n = (frames - 1) * HOP + WINDOW
    centres = (np.arange(frames) + 0.5) * HOP
    t = np.arange(n)
    track = np.stack([np.interp(t, centres, ema[:, c]) for c in range(ema.shape[1])], axis=1)
    audio = np.zeros(n)
    for k, (base, ch) in enumerate(TONES):
        freq = base + 40.0 * track[:, ch] + 25.0 * track[:, ch + 1]
        phase = 2.0 * np.pi * np.cumsum(freq) / RATE
        audio += np.sin(phase) / (1.0 + k)
    audio += 0.01 * rng.standard_normal(n)
    audio *= 0.8 / np.max(np.abs(audio))
    return np.round(audio * 32767.0).astype(np.int16)


def cut(base: Path, feat_rel, align_rel, ema_rel, frames: int, hop_s: float) -> None:
    """Keep the first ``frames`` frames of one utterance: feature and
    articulator rows as written, alignment intervals clipped at the end."""
    from artinv.dataio import format_float

    for rel, header in ((feat_rel, 0), (ema_rel, 1)):
        lines = (base / rel).read_text(encoding="utf-8").splitlines(keepends=True)
        (base / rel).write_text("".join(lines[:header + frames]), encoding="utf-8")
    end_s = frames * hop_s
    kept = []
    for line in (base / align_rel).read_text(encoding="utf-8").splitlines():
        start, end, label = line.split("\t")
        if float(start) < end_s:
            kept.append(f"{start}\t{format_float(min(float(end), end_s))}\t{label}\n")
    (base / align_rel).write_text("".join(kept), encoding="utf-8")


def generate(workload: workloads.Workload, seed: int, out_dir) -> dict:
    """Write the workload's corpus under ``out_dir``; return the two manifest
    paths and the frame count of every utterance."""
    import numpy as np
    import scipy.io.wavfile
    from artinv import dataio, features

    out = Path(out_dir)
    spec = dataio.SyntheticSpec(
        speakers=workload.speakers, utterances_per_speaker=len(workload.lengths), seed=seed,
        speaker_offset_scale=SPEAKER_OFFSET_MM, duration_range=PHONE_FRAMES,
        phones_range=(math.ceil(max(workload.lengths) / PHONE_FRAMES[0]),) * 2,
    )
    csv_manifest = dataio.generate_synthetic(spec, out)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))

    with open(csv_manifest, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    wav_rows = [rows[0]]
    frames = {}
    for index, (utt, speaker, feat_rel, align_rel, ema_rel) in enumerate(rows[1:]):
        frames[utt] = workload.lengths[index % len(workload.lengths)]
        cut(out, feat_rel, align_rel, ema_rel, frames[utt], spec.hop_s)
        ema = features.read_ema_csv(out / ema_rel).values
        wav_rel = feat_rel.replace(".mfcc.csv", ".wav")
        scipy.io.wavfile.write(out / wav_rel, RATE, render_wav(ema, rng))
        wav_rows.append([utt, speaker, wav_rel, align_rel, ema_rel])
    wav_manifest = out / "manifest_wav.csv"
    with open(wav_manifest, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(wav_rows)
    return {"csv": csv_manifest, "wav": wav_manifest, "frames": frames}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="corpus directory (created)")
    args = parser.parse_args(argv)
    workloads.pin_blas()
    workloads.use_source_tree()
    corpus = generate(workloads.WORKLOADS[args.workload], args.seed, args.out)
    print(corpus["csv"])
    print(corpus["wav"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
