"""Training stage and set-up probe, each run as its own process.

    python3 bench/stage.py setup --manifest M --seed N
    python3 bench/stage.py train --manifest M --seed N --deadline T [--min_rounds R] [--trace DIR]

Both print one JSON line.  ``setup`` reports the ``time.monotonic()`` at
which imports, the manifest load and the model build were done; the caller
took the same clock just before starting the process, so the difference is
the set-up time a user pays.

``train`` then calls ``artinv.training.train_model`` (S3, one epoch, batches
of 5) in rounds until ``--deadline`` (a ``time.monotonic()`` value).  Every
round trains a freshly built model on the same utterances with the same
seeds, so every round must end with the same parameters: their digest is
the determinism check.  With ``--trace`` the rounds after the first (a
warm-up) alternate traced and untraced; the traced rounds record spans
around the model's layers, and after
the rounds each layer's backward pass is timed in isolation at the
corpus's median utterance length.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time

import workloads

workloads.pin_blas()
workloads.use_source_tree()

import numpy as np  # noqa: E402  (after the BLAS pin)

import spans as sp  # noqa: E402
from artinv import autodiff as ad  # noqa: E402
from artinv import dataio, layers  # noqa: E402
from artinv.autodiff import Tensor  # noqa: E402
from artinv.errors import ArtinvError  # noqa: E402
from artinv.evaluation import derive_seed  # noqa: E402
from artinv.model import SCENARIOS, InversionModel, ModelConfig, apply_scenario, scenario_loss  # noqa: E402
from artinv.training import Hyper, train_model  # noqa: E402

S3 = SCENARIOS["S3"]
HYPER = Hyper(epochs=1, batch_size=5)
ISOLATED_REPEATS = 3


def build_model(seed: int) -> InversionModel:
    model = InversionModel(ModelConfig(), seed=seed)
    apply_scenario(S3, model)
    return model


def param_digest(model: InversionModel) -> str:
    acc = hashlib.sha256()
    for name, array in model.state_arrays().items():
        acc.update(name.encode())
        acc.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return acc.hexdigest()


# -- traced rounds -------------------------------------------------------------

def layer_instances(model: InversionModel):
    """(metric stem, instance label, layer) for every layer of the model."""
    speech, phoneme = model.speech, model.phoneme
    yield "layers.conv_bank", "speech.conv_bank", speech.conv_bank
    for i, attn in enumerate(speech.encoder.layers):
        yield "layers.attention", f"speech.encoder.attn{i}", attn
    yield "layers.layer_norm", "speech.encoder.norm", speech.encoder.norm
    for label, blstm in (("phoneme.blstm1", phoneme.blstm1), ("phoneme.blstm2", phoneme.blstm2),
                         ("phoneme.blstm3", phoneme.blstm3), ("fusion.blstm", model.fusion.blstm),
                         ("head.blstm", model.head.blstm)):
        yield "layers.blstm", label, blstm
    for label, dense in (("speech.in_proj", speech.in_proj), ("speech.fc1", speech.fc1),
                         ("speech.fc2", speech.fc2), ("fusion.fc", model.fusion.fc),
                         ("phoneme.fc1", phoneme.fc1), ("phoneme.fc2", phoneme.fc2),
                         ("head.fc", model.head.fc)):
        yield "layers.dense", label, dense


def trace_model(tracer: sp.Tracer, patches: sp.Patches, model: InversionModel) -> None:
    """Wrap the forward methods of this model's instances, the training
    step boundaries (Adam.zero_grad opens a step, Adam.step closes it) and
    ``autodiff.backward``."""
    for stem, label, layer in layer_instances(model):
        patches.add(layer, "forward", lambda f, n=f"{stem}.fwd", i=label: tracer.wrap(f, n, lambda *a, **k: {"inst": i}))
    for part in ("speech", "phoneme", "fusion", "head"):
        patches.add(getattr(model, part), "forward", lambda f, n=f"model.{part}.fwd": tracer.wrap(f, n))
    patches.add(model, "forward", lambda f: tracer.wrap(f, "model.forward"))
    patches.add(ad, "backward", lambda f: tracer.wrap(f, "autodiff.backward"))
    step_open = []

    def zero_grad(original):
        def traced(self):
            step_open.append(tracer.begin("training.step"))
            return original(self)
        return traced

    def step(original):
        inner = tracer.wrap(original, "layers.adam.step")

        def traced(self):
            try:
                return inner(self)
            finally:
                tracer.end(step_open.pop())
        return traced

    patches.add(layers.Adam, "zero_grad", zero_grad)
    patches.add(layers.Adam, "step", step)


def forward_metrics(spans) -> dict:
    steps = [i for i, s in enumerate(spans) if s["name"] == "training.step"]
    step_ms = [1000.0 * sp.duration(spans[i]) for i in steps]
    selfs = sp.self_times(spans)
    out = {
        "autodiff.backward_ms": sp.mean_ms(spans, "autodiff.backward"),
        "layers.adam.step_ms": sp.mean_ms(spans, "layers.adam.step"),
        "training.step_ms_p50": sp.percentile(step_ms, 50),
        "training.step_ms_p90": sp.percentile(step_ms, 90),
        "training.self_ms": 1000.0 * statistics.median(selfs[i] for i in steps),
    }
    for name in ("layers.attention", "layers.layer_norm", "layers.blstm", "layers.conv_bank",
                 "layers.dense", "model.speech", "model.phoneme", "model.fusion", "model.head"):
        out[f"{name}.fwd_ms"] = sp.mean_ms(spans, f"{name}.fwd")
    return out


# -- isolated measurements at the workload's shapes ---------------------------------

def tape_size(loss: Tensor, params) -> tuple[int, float]:
    """Recorded op nodes reachable from ``loss``, and the MB of arrays they
    hold: node outputs, non-parameter inputs, and arrays their adjoint
    closures captured.  Views count once, as the array that owns them."""
    param_ids = {id(p) for p in params}
    param_owners = {id(_owner(p.data)) for p in params}
    seen, stack, nodes, owners = set(), [loss], 0, {}

    def hold(array):
        owner = _owner(array)
        if isinstance(owner, np.ndarray) and id(owner) not in param_owners:
            owners[id(owner)] = owner.nbytes

    while stack:
        node = stack.pop()
        if id(node) in seen or id(node) in param_ids:
            continue
        seen.add(id(node))
        hold(node.data)
        if node._vjp is not None:
            nodes += 1
            for cell in node._vjp.__closure__ or ():
                value = cell.cell_contents
                for item in value if isinstance(value, (list, tuple)) else (value,):
                    if isinstance(item, np.ndarray):
                        hold(item)
        stack.extend(node._parents)
    return nodes, sum(owners.values()) / 2**20


def _owner(array):
    while getattr(array, "base", None) is not None:
        array = array.base
    return array


def utterance_loss(model: InversionModel, sample) -> Tensor:
    """The per-utterance S3 loss exactly as training builds it."""
    inversion, phoneme = model.forward(sample.mfcc, sample.phonemes)
    target = Tensor((sample.ema - model.target_mean) / model.target_std)
    return scenario_loss(S3, inversion, phoneme, target, weights=HYPER.loss_weights, reduction="frame_mean")


def isolated_metrics(model: InversionModel, samples, seed: int) -> dict:
    """Tape size of one median-length utterance, and each layer's backward
    time: ``layer.forward`` on a random input of the workload's shape, then
    ``autodiff.backward`` of a fixed random projection, median of repeats."""
    median = sorted(samples, key=lambda s: s.ema.shape[0])[len(samples) // 2]
    frames = median.ema.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(11,)))
    params = list(model.parameters().values())
    nodes, tape_mb = tape_size(utterance_loss(model, median), params)
    out = {"autodiff.tape_nodes": nodes, "autodiff.tape_mb": tape_mb}

    backward = {}
    for stem, _, layer in layer_instances(model):
        if stem not in ("layers.attention", "layers.blstm", "layers.conv_bank"):
            continue
        in_dim = getattr(layer, "input_dim", None) or getattr(layer, "model_dim", None) \
            or layer.branches[0].in_channels
        x = Tensor(rng.standard_normal((frames, in_dim)), requires_grad=True)
        times = []
        for _ in range(ISOLATED_REPEATS):
            y = layer.forward(x)
            loss = ad.tsum(ad.mul(y, rng.standard_normal(y.data.shape)))
            started = time.perf_counter()
            ad.backward(loss)
            times.append(time.perf_counter() - started)
            for p in params:
                p.zero_grad()
            x.zero_grad()
        backward.setdefault(stem, []).append(statistics.median(times))
    for stem, values in backward.items():
        out[f"{stem}.bwd_ms"] = 1000.0 * statistics.fmean(values)
    out["isolated_frames"] = frames
    return out


# -- entry points -----------------------------------------------------------------

def run_train(args, samples, setup_done: float) -> dict:
    frames = sum(s.ema.shape[0] for s in samples)
    train_seed = derive_seed(args.seed, "train")
    rounds, errors = [], []
    tracer = sp.Tracer() if args.trace else None
    model = None
    while len(rounds) < args.min_rounds or time.monotonic() < args.deadline:
        traced = tracer is not None and len(rounds) % 2 == 1  # round 0 warms up untraced
        model = build_model(args.seed)
        with sp.Patches() as patches:
            if traced:
                trace_model(tracer, patches, model)
            started = time.monotonic()
            try:
                result = train_model(model, S3, samples, [], HYPER, seed=train_seed)
            except (ArtinvError, ValueError, FloatingPointError) as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
                rounds.append({"failed": True, "traced": traced})
                continue
            wall = time.monotonic() - started
        losses = [row[1] for row in result.trace]
        rounds.append({
            "failed": False, "traced": traced, "frames": frames, "wall_s": wall,
            "loss_final": losses[-1], "losses_finite": bool(np.all(np.isfinite(losses))),
            "digest": param_digest(model),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    out = {"setup_done": setup_done, "rounds": rounds, "errors": errors}
    if tracer is not None and model is not None:
        spans = tracer.closed()
        tracer.write(f"{args.trace}/train-{args.seed}.jsonl")
        out["layers"] = {**forward_metrics(spans), **isolated_metrics(model, samples, args.seed)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "train"))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--deadline", type=float, default=0.0)
    parser.add_argument("--min_rounds", type=int, default=2)
    parser.add_argument("--trace", help="directory for the span file; enables tracing")
    args = parser.parse_args(argv)

    samples = dataio.load_manifest(args.manifest)
    build_model(args.seed)
    setup_done = time.monotonic()
    if args.mode == "setup":
        out = {"setup_done": setup_done}
    else:
        out = run_train(args, samples, setup_done)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
