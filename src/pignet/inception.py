"""Point inception layers and the feature-extraction stacks built from them."""

import numpy as np

from .errors import ConfigError
from .tensor import concat
from .layers import Module, channel_window_max


class InceptionLayer(Module):
    """Four-branch pointwise block with a channel max-pool branch.

    The entry convolution lifts the input to e channels; two sibling
    convolutions each produce e/2 channels from it; a channel-window max of
    the entry output feeds a final e-channel convolution. The four outputs
    are concatenated (entry, sibling, sibling, pooled) for 3e channels.
    """

    def __init__(self, c_in, e, rng, dtype=np.float64):
        if e < 2 or e % 2:
            raise ConfigError(f"inception filter count must be even, got {e}")
        self.c_in = c_in
        self.e = e
        self._add_rung("_a", c_in, e, rng, dtype)
        self._add_rung("_b", e, e // 2, rng, dtype)
        self._add_rung("_c", e, e // 2, rng, dtype)
        self._add_rung("_d", e, e, rng, dtype)
        self.out_channels = 3 * e

    def __call__(self, features, training=False):
        entry = self._rung("_a", features, training)
        left = self._rung("_b", entry, training)
        right = self._rung("_c", entry, training)
        pooled = self._rung("_d", channel_window_max(entry), training)
        return concat([entry, left, right, pooled], axis=-1)


class InceptionStack(Module):
    """Sequential inception layers; layer i+1 consumes 3 * e_i channels."""

    def __init__(self, plan, rng, c_in=3, dtype=np.float64):
        if not plan:
            raise ConfigError("inception plan must not be empty")
        width = c_in
        for i, e in enumerate(plan):
            layer = InceptionLayer(width, e, rng, dtype=dtype)
            setattr(self, f"layer{i}", layer)
            width = layer.out_channels
        self.out_channels = width

    @property
    def layers(self):
        return self._numbered("layer")

    def __call__(self, features, training=False):
        for layer in self.layers:
            features = layer(features, training)
        return features

