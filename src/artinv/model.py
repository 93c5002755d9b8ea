"""Model assembly: speech stream, phoneme stream, fusion, inversion head,
the scenario loss, and the three training scenarios.

Parameters are partitioned into four named groups so scenarios can freeze
or train them independently and checkpoints can tag them:

* ``speech_stream``   - conv bank, input projection, attention encoder, FCs
* ``fusion``          - recurrent fusion of speech features
* ``phoneme_stream``  - stacked BLSTM articulator estimator
* ``inversion_head``  - recurrent head mapping fused features (plus the
  phoneme stream's articulator estimate, when present) to the 12 outputs

The fusion and inversion sub-networks stand in for externally defined
components whose internals are not reproduced here; they keep the same
interfaces (fusion consumes speech features, the head consumes fused
features and the phoneme-stream estimate) with minimal recurrent capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import ShapeError, Tensor
from .errors import UsageError

PARTITIONS = ("speech_stream", "fusion", "phoneme_stream", "inversion_head")

VARIANT_TWO_STREAM = "two_stream"
VARIANT_SPEECH_ONLY = "speech_only"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes; defaults are the full-size network."""

    variant: str = VARIANT_TWO_STREAM
    mfcc_dim: int = 39
    phoneme_dim: int = 39
    output_dim: int = 12
    conv_channels: int = 64
    kernel_sizes: tuple = (1, 3, 5, 7, 9)
    attn_model_dim: int = 512
    attn_layers: int = 6
    attn_heads: int = 8
    attn_head_dim: int = 64
    speech_fc_units: int = 300
    blstm_hidden: int = 150

    def __post_init__(self):
        if self.variant not in (VARIANT_TWO_STREAM, VARIANT_SPEECH_ONLY):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.attn_heads * self.attn_head_dim != self.attn_model_dim:
            raise ValueError("attention model dim must equal heads * head_dim")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kernel_sizes"] = list(self.kernel_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["kernel_sizes"] = tuple(d["kernel_sizes"])
        return cls(**d)


class SpeechStream:
    """Local features from the multi-scale conv bank and global features from
    the attention encoder, merged by two dense layers into [T, fc_units]."""

    def __init__(self, cfg: ModelConfig, rng):
        self.conv_bank = layers.ConvBank(cfg.mfcc_dim, cfg.conv_channels, cfg.kernel_sizes, rng=rng)
        self.in_proj = layers.Dense(cfg.mfcc_dim, cfg.attn_model_dim, rng=rng)
        self.encoder = layers.AttentionEncoder(
            cfg.attn_model_dim, cfg.attn_layers, cfg.attn_heads, cfg.attn_head_dim, rng=rng)
        local_dim = cfg.conv_channels * len(cfg.kernel_sizes)
        merged = local_dim + cfg.attn_model_dim
        self.fc1 = layers.Dense(merged, cfg.speech_fc_units, activation="tanh", rng=rng)
        self.fc2 = layers.Dense(cfg.speech_fc_units, cfg.speech_fc_units, activation="tanh", rng=rng)

    def parameters(self):
        return layers.named_parameters((("conv", self.conv_bank), ("in_proj", self.in_proj), ("encoder", self.encoder),
                                        ("fc1", self.fc1), ("fc2", self.fc2)))

    def forward(self, mfcc: Tensor, lengths=None) -> Tensor:
        local = self.conv_bank.forward(mfcc, lengths)
        global_feats = self.encoder.forward(self.in_proj.forward(mfcc), lengths)
        return self.fc2.forward(self.fc1.forward(ad.concat([local, global_feats])))


class PhonemeStream:
    """Three stacked BLSTM layers and two dense layers estimating the 12
    articulator channels from phoneme one-hots."""

    def __init__(self, cfg: ModelConfig, rng):
        h2 = 2 * cfg.blstm_hidden
        self.blstm1 = layers.BLSTMLayer(cfg.phoneme_dim, cfg.blstm_hidden, rng=rng)
        self.blstm2 = layers.BLSTMLayer(h2, cfg.blstm_hidden, rng=rng)
        self.blstm3 = layers.BLSTMLayer(h2, cfg.blstm_hidden, rng=rng)
        self.fc1 = layers.Dense(h2, h2, activation="tanh", rng=rng)
        self.fc2 = layers.Dense(h2, cfg.output_dim, rng=rng)

    def parameters(self):
        return layers.named_parameters((("blstm1", self.blstm1), ("blstm2", self.blstm2), ("blstm3", self.blstm3),
                                        ("fc1", self.fc1), ("fc2", self.fc2)))

    def forward(self, phonemes: Tensor, lengths=None) -> Tensor:
        x = self.blstm3.forward(self.blstm2.forward(self.blstm1.forward(phonemes, lengths), lengths), lengths)
        return self.fc2.forward(self.fc1.forward(x))


class SpeechFusion:
    """Recurrent fusion of speech features: BLSTM plus a tanh dense layer,
    [T, fc_units] -> [T, fc_units]."""

    def __init__(self, cfg: ModelConfig, rng):
        self.blstm = layers.BLSTMLayer(cfg.speech_fc_units, cfg.blstm_hidden, rng=rng)
        self.fc = layers.Dense(2 * cfg.blstm_hidden, cfg.speech_fc_units, activation="tanh", rng=rng)

    def parameters(self):
        return layers.named_parameters((("blstm", self.blstm), ("fc", self.fc)))

    def forward(self, speech: Tensor, lengths=None) -> Tensor:
        return self.fc.forward(self.blstm.forward(speech, lengths))


class InversionHead:
    """Maps fused speech features (optionally concatenated with the phoneme
    stream's articulator estimate) to the 12 output channels."""

    def __init__(self, cfg: ModelConfig, rng):
        in_dim = cfg.speech_fc_units
        if cfg.variant == VARIANT_TWO_STREAM:
            in_dim += cfg.output_dim
        self.blstm = layers.BLSTMLayer(in_dim, cfg.blstm_hidden, rng=rng)
        self.fc = layers.Dense(2 * cfg.blstm_hidden, cfg.output_dim, rng=rng)

    def parameters(self):
        return layers.named_parameters((("blstm", self.blstm), ("fc", self.fc)))

    def forward(self, fused: Tensor, phoneme_pred: Tensor | None, lengths=None) -> Tensor:
        x = fused if phoneme_pred is None else ad.concat([fused, phoneme_pred])
        return self.fc.forward(self.blstm.forward(x, lengths))


class InversionModel:
    """The assembled network plus target-normalization buffers.

    Training normalizes articulator targets per fold; ``target_mean`` and
    ``target_std`` keep the statistics so predictions come back in mm.
    With ``seed`` None the parameters start as zeros, drawing no random
    numbers, for a model whose arrays are loaded next.
    """

    def __init__(self, config: ModelConfig | None = None, seed: int | None = 0):
        self.config = config or ModelConfig()
        rng = None if seed is None else np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
        self.speech = SpeechStream(self.config, rng)
        self.fusion = SpeechFusion(self.config, rng)
        self.phoneme = PhonemeStream(self.config, rng) if self.config.variant == VARIANT_TWO_STREAM else None
        self.head = InversionHead(self.config, rng)
        self.target_mean = np.zeros(self.config.output_dim)
        self.target_std = np.ones(self.config.output_dim)
        self._params = None

    # -- parameter bookkeeping -------------------------------------------
    def parameters(self) -> dict[str, Tensor]:
        """Ordered name -> tensor map; names are partition-prefixed.  The
        tensor set is fixed at construction, so the walk is cached."""
        if self._params is None:
            parts = (("speech", self.speech), ("fusion", self.fusion), ("phoneme", self.phoneme), ("head", self.head))
            self._params = dict(layers.named_parameters(part for part in parts if part[1] is not None))
        return self._params

    @staticmethod
    def partition_of(name: str) -> str:
        prefix = name.split(".", 1)[0]
        return {
            "speech": "speech_stream",
            "fusion": "fusion",
            "phoneme": "phoneme_stream",
            "head": "inversion_head",
        }[prefix]

    def partition_params(self, partition: str) -> dict[str, Tensor]:
        return {n: p for n, p in self.parameters().items() if self.partition_of(n) == partition}

    def set_trainable(self, partitions) -> None:
        wanted = set(partitions)
        for name, p in self.parameters().items():
            p.requires_grad = self.partition_of(name) in wanted
            p.zero_grad()

    # -- forward ------------------------------------------------------------
    def forward(self, mfcc: np.ndarray | None, phonemes: np.ndarray | None, lengths=None):
        """Returns (inversion_pred, phoneme_pred) as tensors in normalized target
        space; either may be None depending on the inputs and variant.

        ``lengths`` splits the frame axis into utterances packed one after
        another (one utterance by default); each is processed as if alone."""
        if mfcc is not None and phonemes is not None and mfcc.shape[0] != phonemes.shape[0]:
            raise ShapeError(f"frame counts differ between streams: {mfcc.shape[0]} vs {phonemes.shape[0]}")
        phoneme_pred = None
        if self.phoneme is not None and phonemes is not None:
            phoneme_pred = self.phoneme.forward(Tensor(phonemes), lengths)
        inversion_pred = None
        if mfcc is not None:
            fused = self.fusion.forward(self.speech.forward(Tensor(mfcc), lengths), lengths)
            inversion_pred = self.head.forward(fused, phoneme_pred, lengths)
        return inversion_pred, phoneme_pred

    def predict(self, mfcc: np.ndarray | None, phonemes: np.ndarray | None) -> dict[str, np.ndarray]:
        """Forward pass without tape recording; outputs de-normalized to mm,
        keyed by stream name ('inversion', 'phoneme')."""
        with ad.no_grad():
            inversion_pred, phoneme_pred = self.forward(mfcc, phonemes)
        out = {}
        if inversion_pred is not None:
            out["inversion"] = inversion_pred.data * self.target_std + self.target_mean
        if phoneme_pred is not None:
            out["phoneme"] = phoneme_pred.data * self.target_std + self.target_mean
        return out

    # -- state ---------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        state = {name: p.data for name, p in self.parameters().items()}
        state["stats.target_mean"] = self.target_mean
        state["stats.target_std"] = self.target_std
        return state

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Take every array ``state_arrays`` names.  The parameters keep the
        given arrays, not copies (a loaded checkpoint's are read-only views
        of its file, which makes the model inference-only); the two target
        statistics are copied.  The caller has checked that each array is
        present with this model's shape, as ``dataio.model_from_checkpoint``
        does."""
        for name, p in self.parameters().items():
            p.data = arrays[name]
        self.target_mean = arrays["stats.target_mean"].copy()
        self.target_std = arrays["stats.target_std"].copy()


@dataclass(frozen=True)
class Scenario:
    """Which inputs feed the network, which partitions train, and which loss
    terms apply."""

    id: str
    use_mfcc: bool
    use_phonemes: bool
    trainable: tuple
    loss_terms: tuple  # subset of ("inversion", "phoneme")
    scored_streams: tuple
    needs_pretrained: bool = False


SCENARIOS = {
    "S1": Scenario(
        id="S1", use_mfcc=False, use_phonemes=True,
        trainable=("phoneme_stream",), loss_terms=("phoneme",),
        scored_streams=("phoneme",),
    ),
    "S2": Scenario(
        id="S2", use_mfcc=True, use_phonemes=True,
        trainable=("speech_stream", "fusion", "inversion_head"), loss_terms=("inversion",),
        scored_streams=("inversion",), needs_pretrained=True,
    ),
    "S3": Scenario(
        id="S3", use_mfcc=True, use_phonemes=True,
        trainable=PARTITIONS, loss_terms=("inversion", "phoneme"),
        scored_streams=("phoneme", "inversion"),
    ),
    # ablation arm: phoneme stream removed entirely (speech_only variant)
    "SPEECH_ONLY": Scenario(
        id="SPEECH_ONLY", use_mfcc=True, use_phonemes=False,
        trainable=("speech_stream", "fusion", "inversion_head"), loss_terms=("inversion",),
        scored_streams=("inversion",),
    ),
}


def apply_scenario(scenario: Scenario, model: InversionModel,
                   pretrained_arrays: dict[str, np.ndarray] | None = None) -> None:
    """Configure trainability (and load the pretrained phoneme stream for the
    frozen-pretraining scenario)."""
    if scenario.needs_pretrained:
        if pretrained_arrays is None:
            raise UsageError(f"scenario {scenario.id} requires a pretrained phoneme-stream checkpoint")
        phoneme_params = model.partition_params("phoneme_stream")
        for name, p in phoneme_params.items():
            if name not in pretrained_arrays:
                raise UsageError(f"pretrained checkpoint is missing {name}")
            if pretrained_arrays[name].shape != p.data.shape:
                raise UsageError(f"pretrained {name}: shape {pretrained_arrays[name].shape} != {p.data.shape}")
            p.data = pretrained_arrays[name].copy()
    model.set_trainable(scenario.trainable)


def scenario_loss(scenario: Scenario, inversion_pred, phoneme_pred, target: Tensor,
                  weights=(1.0, 1.0), reduction: str = "frame_mean", lengths=None) -> Tensor:
    """Per-utterance losses with only the scenario's terms included, as a
    [utterances, 1] tensor: one row per segment of ``lengths`` (a single
    row by default).  Each term is the per-utterance frame mean of
    ``squared_error``, so ``reduction`` can only be 'frame_mean'; the
    keyword stays for callers that name it."""
    if reduction != "frame_mean":
        raise ValueError(f"unknown reduction {reduction!r}")
    w_inv, w_phoneme = weights
    terms = []
    if "inversion" in scenario.loss_terms:
        terms.append(ad.mul(ad.squared_error(inversion_pred, target, lengths), w_inv))
    if "phoneme" in scenario.loss_terms:
        terms.append(ad.mul(ad.squared_error(phoneme_pred, target, lengths), w_phoneme))
    loss = terms[0]
    for t in terms[1:]:
        loss = ad.add(loss, t)
    return loss
