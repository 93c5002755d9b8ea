"""Golden digests: the bytes a fixed recipe writes, recorded per environment.

    PYTHONPATH=src python3 tests/golden.py            # compare with tests/golden.json
    PYTHONPATH=src python3 tests/golden.py --record   # record this environment's entry

The recipe runs ``artinv`` in this process: ``synth --seed 0 --speakers 3
--utts 4``; ``train`` S3 for 2 epochs; ``eval`` of that checkpoint on the
corpus and on a WAV manifest of the same utterances (so the MFCC path is
covered); ``loso`` S3 for 2 epochs with ``--jobs 2``; ``loso`` S2 for 1
epoch; ``ablate`` for 1 epoch.  Every file a command writes gets an entry,
named by the command and its path in the run directory: checkpoints, fold
and pretrain checkpoints, traces and reports.  The prediction CSVs of a run
make one entry, the digest of their sorted digest list, and so does the
synthetic corpus.  ``config.json`` (it holds the paths), ``environment.json``
and ``timing.txt`` are left out.

The bytes rest on the numpy build, OpenBLAS's core kernel and its thread
count, so the table keys each entry by those three, as ``environment.json``
records them.  Both modes print each digest that differs from the recorded
entry as ``name: old → new``; a change that alters bytes on purpose records
the new entry and lists those lines.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
import tempfile
import wave
from pathlib import Path

import numpy as np

from artinv import cli

GOLDEN = Path(__file__).with_name("golden.json")
UNHASHED = {"config.json", "environment.json", "timing.txt"}
WAV_RATE = 16000


def environment_key(environment: dict) -> str:
    return (f"numpy {environment['numpy']}, OpenBLAS core {environment['openblas_corename']}, "
            f"{environment['openblas_threads']} BLAS thread(s)")


def current_key() -> str:
    return environment_key(cli._environment())


def _files(root: Path):
    """(path relative to ``root``, sha256) of each hashed file under it, sorted."""
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in UNHASHED:
            yield path.relative_to(root).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest()


def _listing_digest(files) -> str:
    return hashlib.sha256("".join(f"{digest}  {rel}\n" for rel, digest in files).encode()).hexdigest()


def _entries(name: str, run_dir: Path) -> dict[str, str]:
    entries, predictions = {}, {}
    for rel, digest in _files(run_dir):
        head, sep, tail = rel.partition("predictions/")
        if sep:
            predictions.setdefault(f"{name}/{head}predictions", []).append((tail, digest))
        else:
            entries[f"{name}/{rel}"] = digest
    entries.update({key: _listing_digest(files) for key, files in predictions.items()})
    return entries


def write_wav_manifest(manifest: Path) -> Path:
    """A manifest beside ``manifest`` whose features are 16 kHz WAV files
    with each utterance's frame count, from a seeded noise source."""
    with open(manifest, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rng = np.random.default_rng(0)
    for row in rows[1:]:
        frames = len((manifest.parent / row[2]).read_text(encoding="utf-8").splitlines())
        samples = (frames - 1) * 160 + 400  # 10 ms hop, 25 ms window
        audio = np.clip(rng.normal(0.0, 0.2, samples), -1.0, 1.0)
        row[2] = row[2].replace(".mfcc.csv", ".wav")
        with wave.open(str(manifest.parent / row[2]), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(WAV_RATE)
            fh.writeframes(np.round(audio * 32767).astype("<i2").tobytes())
    wav_manifest = manifest.with_name("manifest_wav.csv")
    with open(wav_manifest, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return wav_manifest


def run_recipe(work: Path) -> dict[str, str]:
    """Run the recipe under ``work``; returns entry name -> sha256."""
    def run(name, *argv) -> Path:
        out = work / name
        status = cli.main([*map(str, argv), "--out", str(out)])
        assert status == 0, f"{name} exited {status}"
        (run_dir,) = out.iterdir()
        digests.update(_entries(name, run_dir))
        return run_dir

    manifest = work / "corpus" / "manifest.csv"
    assert cli.main(["synth", "--out", str(manifest.parent), "--seed", "0", "--speakers", "3", "--utts", "4"]) == 0
    digests = {"synth": _listing_digest(_files(manifest.parent))}
    wav_manifest = write_wav_manifest(manifest)
    checkpoint = run("train", "train", "--manifest", manifest, "--scenario", "S3", "--seed", "0",
                     "--epochs", "2") / "checkpoint.ckpt"
    run("eval", "eval", "--manifest", manifest, "--checkpoint", checkpoint)
    run("eval_wav", "eval", "--manifest", wav_manifest, "--checkpoint", checkpoint)
    run("loso_s3", "loso", "--manifest", manifest, "--scenario", "S3", "--seed", "0", "--epochs", "2",
        "--jobs", "2")
    run("loso_s2", "loso", "--manifest", manifest, "--scenario", "S2", "--seed", "0", "--epochs", "1")
    run("ablate", "ablate", "--manifest", manifest, "--seed", "0", "--epochs", "1")
    return digests


def load_table() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def differences(recorded: dict, digests: dict) -> list[str]:
    """``name: old → new`` for each entry that differs, 12 hex digits each."""
    return [f"{name}: {recorded.get(name, '-')[:12]} → {digests.get(name, '-')[:12]}"
            for name in sorted(recorded.keys() | digests.keys()) if recorded.get(name) != digests.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="write this environment's entry into tests/golden.json")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING)
    key = current_key()
    with tempfile.TemporaryDirectory() as work:
        digests = run_recipe(Path(work))
    table = load_table()
    changed = differences(table.get(key, {}), digests)
    print(f"{key}: {len(changed)} of {len(digests)} digests differ from {GOLDEN.name}")
    for line in changed:
        print(line)
    if args.record:
        table[key] = digests
        GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded in {GOLDEN}")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
