"""Desk-scale sequence models: smoothed n-gram language models, Markov
channel translation models, beam/sampling decoders, and the seeded toy
translation task they are trained on.  Each name lives in its submodule
(``models``, ``decode``, ``taskgen``); the package re-exports only the
task builder and the trainers."""

from .models import train_channel, train_ngram_lm
from .taskgen import ToyTaskSpec, generate_toy_task

__all__ = ["ToyTaskSpec", "generate_toy_task", "train_channel", "train_ngram_lm"]
