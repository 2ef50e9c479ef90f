"""Synthetic dialogue task with a controlled cross-modal information split.

Each generated instance has three independent latent labels:

* the source speaker, readable from the text (the last utterance is
  always spoken by the source);
* an action class, encoded only in the audio matrix as a class-specific
  orthonormal basis row plus Gaussian noise;
* a target class, encoded only in the video matrix the same way.

The gold explanation is the three tokens "<source> <action> <target>",
so a text-only model can learn the source but can do no better than
chance on the action and target. The gap between a fused model and a
text-only model on action-word accuracy therefore measures how much
audio information the fusion pathway actually transports.

Filler words are drawn independently of the labels, which makes the
text/action mutual information zero by construction.

``evaluate_variant`` scores one trained model on held-out instances: the
greedy explanations ``model.generate_explanations`` writes in one call go
to ``metrics.score_corpus``, which returns every score of a metric row. The
experiment report (``maf report``) turns those rows into the gap over
TextOnly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import DialogueInstance, Utterance
from .errors import ConfigError, ContractError
from .metrics import score_corpus
from .model import (ModelConfig, TrainedModel, _MAX_ALLOC_BYTES, _MAX_FRAMES, _check_fields, _ruled,
                    generate_explanations)

__all__ = ["SyntheticSpec", "generate", "evaluate_variant"]

_FILLERS = (
    "well", "you", "know", "this", "that", "really", "so", "very",
    "just", "quite", "honestly", "right", "come", "on", "look", "sure",
)

# description vocabulary for rich templates; the indices are deterministic
# functions of (action, target), so the clause is exactly recoverable from
# the modalities but needs them jointly
_DESCRIPTION_WORDS = ("des0", "des1", "des2", "des3", "des4", "des5", "des6", "des7")


def _description_clause(action: int, target: int) -> str:
    first = _DESCRIPTION_WORDS[(action + target) % len(_DESCRIPTION_WORDS)]
    second = _DESCRIPTION_WORDS[(2 * action + target) % len(_DESCRIPTION_WORDS)]
    return f"while {first} and {second}"


# Feature widths of every synthetic instance, whose one home is
# ``ModelConfig``'s default raw widths.
_AUDIO_DIM, _VIDEO_DIM = ModelConfig.audio_raw_dim, ModelConfig.video_raw_dim

# The corpus a spec makes, which ``generate`` holds at once, is limited to
# 1 GiB (``model._MAX_ALLOC_BYTES``): 8 bytes per feature value and 2 KiB
# per instance (2037 bytes measured per instance of one frame and one
# window). The instance count has no greatest value of its own.
_INSTANCE_BYTES = 2048


@dataclass
class SyntheticSpec:
    """Generator settings. Audio frames are ``_AUDIO_DIM`` wide and video
    windows ``_VIDEO_DIM``, ``ModelConfig``'s default raw widths, and an
    instance has at most ``model._MAX_FRAMES`` of each. Class patterns are
    rows of the identity, so a class count is at most its feature width; a
    class needs at least two values to carry a label."""

    num_instances: int = _ruled(600, lo=1)
    speakers: int = _ruled(6, lo=2)
    actions: int = _ruled(5, lo=2, hi=_AUDIO_DIM)
    targets: int = _ruled(6, lo=2, hi=_VIDEO_DIM)
    frames: int = _ruled(12, lo=1, hi=_MAX_FRAMES)
    windows: int = _ruled(8, lo=1, hi=_MAX_FRAMES)
    noise: float = _ruled(0.1, lo=0.0)
    seed: int = _ruled(1, lo=0)
    rich_templates: bool = False

    def validate(self) -> None:
        _check_fields(self)
        size = self.num_instances * (8 * (self.frames * _AUDIO_DIM + self.windows * _VIDEO_DIM)
                                     + _INSTANCE_BYTES)
        if size > _MAX_ALLOC_BYTES:
            raise ConfigError(f"the corpus would take {size} bytes, over the limit of "
                              f"{_MAX_ALLOC_BYTES}: num_instances x (8 x (frames x {_AUDIO_DIM} + "
                              f"windows x {_VIDEO_DIM}) + {_INSTANCE_BYTES})")


def speaker_name(i: int) -> str:
    return f"spk{i}"


def action_word(i: int) -> str:
    return f"act{i}"


def target_word(i: int) -> str:
    return f"tgt{i}"


def generate(spec: SyntheticSpec) -> list[DialogueInstance]:
    """Deterministic corpus for a spec; instances use independent derived
    seed streams, so the corpus is stable under reordering of the loop."""
    spec.validate()
    children = np.random.SeedSequence(spec.seed).spawn(spec.num_instances)
    out = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        source = int(rng.integers(spec.speakers))
        action = int(rng.integers(spec.actions))
        target = int(rng.integers(spec.targets))

        n_utts = int(rng.integers(2, 4))
        speakers = [int(rng.integers(spec.speakers)) for _ in range(n_utts - 1)] + [source]
        utterances = []
        for spk in speakers:
            words = rng.choice(len(_FILLERS), size=int(rng.integers(3, 6)))
            utterances.append(Utterance(
                speaker=speaker_name(spk),
                text=" ".join(_FILLERS[w] for w in words),
            ))

        # class pattern on every frame; orthonormal basis row + noise
        audio = np.zeros((spec.frames, _AUDIO_DIM))
        audio[:, action] = 1.0
        audio += spec.noise * rng.standard_normal(audio.shape)
        video = np.zeros((spec.windows, _VIDEO_DIM))
        video[:, target] = 1.0
        video += spec.noise * rng.standard_normal(video.shape)

        explanation = f"{speaker_name(source)} {action_word(action)} {target_word(target)}"
        description = None
        if spec.rich_templates:
            description = _description_clause(action, target)
            explanation = f"{explanation} {description}"

        out.append(DialogueInstance(
            id=f"syn-{spec.seed}-{i:05d}",
            utterances=utterances,
            audio_features=audio,
            video_features=video,
            explanation=explanation,
            sarcasm_source=speaker_name(source),
            sarcasm_target=target_word(target),
            action_word=action_word(action),
            description=description,
        ))
    return out


# ---- evaluation ---------------------------------------------------------------


def evaluate_variant(tm: TrainedModel, test: Sequence[DialogueInstance]) -> dict:
    """Every metric-row score of one trained model on held-out instances."""
    if not test:
        raise ContractError("evaluate_variant: empty test set")
    return score_corpus(generate_explanations(tm, test), test)
