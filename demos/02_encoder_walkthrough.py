"""The encoder pipeline, stage by stage, at the published widths.

A sentence of n characters flows through: embedding lookup (n x 50),
five n-gram convolution sets of 100 maps each (n x 500), k-max pooling
back to the embedding width (n x 50), a highway gate mixing pooled
features with the raw embeddings (n x 50), and a bidirectional LSTM
(n x 200).
"""
import numpy as np

from segtag import encoder as enc
from segtag.encoder import CharIds, EncoderConfig

rng = np.random.default_rng(0)
n = 10


def init_params(cfg):
    """Draw the parameters the config's manifest lists, as a Model does, into
    its name -> Parameter map."""
    manifest = enc.parameter_manifest(cfg, n_unigrams=30, n_bigrams=0)
    return enc.named_parameters(manifest, enc.draw_parameters(manifest, rng), np.float32)


cfg = EncoderConfig(d=50, h=100, feature_map_sets=5, feature_maps=100)
params = init_params(cfg)
print("parameters:        ", ", ".join(params))
ids = CharIds(uni=rng.integers(0, 30, size=n))

x = enc.embed_sentence(ids, params["embed.unigram"], None, cfg)
print("embeddings:        ", x.shape)

bank = [(params[f"conv.q{q}.w"], params[f"conv.q{q}.b"]) for q in range(1, 6)]
z = enc.conv_feature_maps(x, bank)
print("conv feature maps: ", z.shape, " (uni-gram .. 5-gram, 100 maps each)")

pooled = enc.kmax_pool(z, cfg.d_in)
print("k-max pooled:      ", pooled.shape, " (k equals the embedding width)")

mixed = enc.highway_forward(x, pooled, params["highway.w"], params["highway.b"])
print("highway mixed:     ", mixed.shape)

h = enc.blstm_forward(mixed, (params["lstm.fwd.w"], params["lstm.fwd.b"]),
                      (params["lstm.bwd.w"], params["lstm.bwd.b"]))
print("BLSTM states:      ", h.shape, " (forward ++ backward)")

out = enc.encode(ids, params, cfg)
assert out.shape == (n, cfg.d_out)
print("\nencode() composes the whole stack:", out.shape)

# stack x recurrent spans the ablation grid: here, embeddings straight
# into a single-direction LSTM ("w/o CNN" row, LSTM column).
bare = EncoderConfig(d=50, h=100, stack="embed", recurrent="lstm")
print("w/o CNN + LSTM:    ", enc.encode(ids, init_params(bare), bare).shape)

# And the windowed MLP baseline, which replaces the whole stack.
mlp = EncoderConfig(d=50, h=100, stack="mlp", window=5)
print("MLP baseline (k=5):", enc.encode(ids, init_params(mlp), mlp).shape)

# The MLP reads no conv widths: it holds the canonical Q=0 and no map
# widths, and a config that sets them is refused instead of storing them.
print("MLP map widths:    ", mlp.feature_map_sets, mlp.feature_maps)
try:
    EncoderConfig(d=50, stack="mlp", feature_map_sets=5)
except enc.ConfigError as e:
    print("refused:           ", e)
