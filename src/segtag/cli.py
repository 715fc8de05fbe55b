"""Command-line operator surface: train, tag and evaluate.

Settings resolve in three layers: built-in defaults, then a line-oriented
"key = value" config file (# comments), then explicit command-line flags.
Logs go to stderr and data to stdout so pipelines compose.
"""
from __future__ import annotations

import argparse
import logging
import sys

from . import corpus as cp
from . import evaluation as ev
from . import modelfile as mf
from .autograd import NumericError
from .encoder import ConfigError, EncoderConfig
from .model import TAG_CHUNK_CHARS, Model
from .training import TrainConfig, train

log = logging.getLogger("segtag")

# `segtag tag` reads input lines in groups of about this many characters and
# tags each group in one call, so the model can pack lines of similar length
TAG_GROUP_CHARS = 4 * TAG_CHUNK_CHARS


def _bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (parser, default); every flag has its config-file twin, and a few
# model widths are config-only
SETTINGS = {
    "corpus": (str, None),
    "dev": (str, None),
    "embeddings": (str, None),
    "model": (str, None),
    "seed": (int, 1),
    "encoder": (str, "full"),          # full | mlp
    "recurrent": (str, "blstm"),       # none | lstm | blstm
    "conv": (_bool, True),
    "pooling": (_bool, True),
    "highway": (_bool, True),
    "bigrams": (_bool, False),
    "mode": (str, "both"),             # joint | seg | both
    "epochs": (int, 30),
    "batch": (int, 20),
    "lr": (float, 0.2),
    "margin": (float, 0.2),
    "l2": (float, 1e-4),
    "window": (int, 1),
    "d": (int, 50),
    "h": (int, 100),
    "feature_map_sets": (int, 5),
    "feature_map_size": (int, 100),
    "dev_fraction": (float, 0.1),
    "optimizer": (str, "adagrad"),
    "min_count": (int, 1),
    "bigram_min_count": (int, 2),
    "finetune_embeddings": (_bool, True),
    "observed_tags_only": (_bool, False),
    "constrain_transitions": (_bool, False),
    "strict": (_bool, True),
    "normalize_width": (_bool, False),
    "per_pos": (_bool, False),
}


class CliError(ValueError):
    pass


def parse_config_file(path):
    """Read "key = value" lines; unknown keys are errors naming the key."""
    values = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not eq or not key:
                raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            if key not in SETTINGS:
                raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
            parser, _ = SETTINGS[key]
            try:
                values[key] = parser(value)
            except ValueError as e:
                raise CliError(f"{path}:{lineno}: bad value for {key}: {e}") from None
    return values


def resolve_settings(args):
    """Defaults, overridden by the config file, overridden by explicit flags."""
    settings = {k: default for k, (_, default) in SETTINGS.items()}
    if getattr(args, "config", None):
        settings.update(parse_config_file(args.config))
    for key in SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def encoder_config_from(settings):
    if settings["encoder"] not in ("full", "mlp"):
        raise CliError(f"encoder must be 'full' or 'mlp', got {settings['encoder']!r}")
    common = dict(d=settings["d"], h=settings["h"], window=settings["window"],
                  use_bigram=settings["bigrams"])
    if settings["encoder"] == "mlp":
        return EncoderConfig(use_conv=False, use_pooling=False, use_highway=False,
                             recurrent="none", mlp_baseline=True, **common)
    conv = settings["conv"]
    pooling = settings["pooling"] and conv
    highway = settings["highway"] and pooling
    return EncoderConfig(feature_map_sets=settings["feature_map_sets"],
                         feature_maps=settings["feature_map_size"],
                         use_conv=conv, use_pooling=pooling, use_highway=highway,
                         recurrent=settings["recurrent"], **common)


def train_config_from(settings):
    return TrainConfig(
        alpha=settings["lr"], eta=settings["margin"], l2=settings["l2"],
        batch_size=settings["batch"], max_epochs=settings["epochs"],
        seed=settings["seed"], dev_fraction=settings["dev_fraction"],
        optimizer=settings["optimizer"],
        finetune_embeddings=settings["finetune_embeddings"],
    )


def _require(settings, key, command):
    if not settings[key]:
        raise CliError(f"segtag {command} needs --{key}")
    return settings[key]


def _read_corpus(path, settings, fold):
    """The sentences of a word/POS corpus file. A malformed token is refused
    naming the file and the line, and a file without sentences is refused."""
    with open(path, encoding="utf-8") as f:
        try:
            sentences = cp.parse_tagged_corpus(f, strict=settings["strict"],
                                               normalize_width=fold)
        except cp.CorpusFormatError as e:
            raise CliError(f"{path} {e}") from None
    if not sentences:
        raise CliError(f"no sentences in {path}")
    return sentences


def cmd_train(args):
    settings = resolve_settings(args)
    corpus_path = _require(settings, "corpus", "train")
    model_path = _require(settings, "model", "train")
    cfg = encoder_config_from(settings)
    train_cfg = train_config_from(settings)

    sentences = _read_corpus(corpus_path, settings, settings["normalize_width"])
    vocab, tagset = cp.build_vocab_and_tagset(
        sentences, min_count=settings["min_count"],
        bigram_min_count=settings["bigram_min_count"],
        use_bigram=settings["bigrams"],
        observed_tags_only=settings["observed_tags_only"])
    log.info("corpus: %d sentences, %d characters, %d joint tags",
             len(sentences), len(vocab.chars), len(tagset))

    model = Model(cfg, vocab, tagset, seed=settings["seed"],
                  constrain_transitions=settings["constrain_transitions"],
                  normalize_width=settings["normalize_width"])
    if settings["embeddings"]:
        _, stats = cp.load_pretrained_embeddings(
            settings["embeddings"], vocab, cfg.d, table=model.named["embed.unigram"])
        log.info("pre-trained embeddings: %s", stats)

    dev = None
    if settings["dev"]:
        dev = _read_corpus(settings["dev"], settings, settings["normalize_width"])
    best = train(sentences, model, train_cfg, dev=dev)
    model.train_cfg = train_cfg
    checksum = mf.save(model, model_path)
    f1 = "n/a" if best.dev_f1 is None else f"{best.dev_f1:.4f}"
    log.info("saved epoch %d (dev F1 %s) to %s, crc32 %08x",
             best.epoch, f1, model_path, checksum)
    return 0


def _tagged_lines(model, texts):
    """The output lines of raw input lines, a blank one kept blank, tagged in
    groups of about TAG_GROUP_CHARS characters to bound the tags held at once."""
    out, group, size = [], [], 0
    for i, text in enumerate(texts):
        group.append(list(text))
        size += len(text)
        if size >= TAG_GROUP_CHARS or i == len(texts) - 1:
            tagged = iter(model.tag_batch([chars for chars in group if chars]))
            out += [cp.format_words(chars, next(tagged)) if chars else "" for chars in group]
            group, size = [], 0
    return out


def _read_raw(fin, where, fold):
    """Every line of raw input, stripped as the corpus parser strips its
    lines (and width-folded if fold). A line with interior whitespace is
    refused, naming it: the space would be tagged as a character."""
    texts = []
    for lineno, line in enumerate(fin, start=1):
        text = line.strip()
        if len(text.split(maxsplit=1)) > 1:
            raise CliError(f"{where} line {lineno}: raw text holds whitespace; "
                           "give one unsegmented sentence per line")
        texts.append(cp.fold_width(text) if fold else text)
    return texts


def cmd_tag(args):
    """Tag raw lines. The whole input is read, checked and tagged before the
    output is opened, so a refused line or a failed tagging leaves no output
    file, and an existing one keeps its bytes."""
    settings = resolve_settings(args)
    model = mf.load(_require(settings, "model", "tag"))
    # a model trained on width-folded text says so in its file
    fold = settings["normalize_width"] or model.normalize_width
    if args.input in (None, "-"):
        texts = _read_raw(sys.stdin, "standard input", fold)
    else:
        with open(args.input, encoding="utf-8") as fin:
            texts = _read_raw(fin, args.input, fold)
    out = "".join(line + "\n" for line in _tagged_lines(model, texts))
    if args.output in (None, "-"):
        sys.stdout.write(out)
    else:
        with open(args.output, "w", encoding="utf-8") as fout:
            fout.write(out)
    return 0


def cmd_eval(args):
    settings = resolve_settings(args)
    modes = ("joint", "seg") if settings["mode"] == "both" else (settings["mode"],)
    if any(m not in ("joint", "seg") for m in modes):
        raise CliError(f"mode must be joint, seg or both, got {settings['mode']!r}")
    model = mf.load(_require(settings, "model", "eval"))
    fold = settings["normalize_width"] or model.normalize_width
    gold_path = _require(settings, "corpus", "eval")
    sentences = _read_corpus(gold_path, settings, fold)
    gold = [ev.decode_tags_to_words(s.tags) for s in sentences]
    pred = [ev.decode_tags_to_words(tags)
            for tags in model.tag_batch([s.chars for s in sentences])]
    print(ev.report(gold, pred, modes=modes, per_pos=settings["per_pos"]))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="segtag",
        description="joint character-level word segmentation and POS tagging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--model", help="model file path")

    t = sub.add_parser("train", help="train a model on a word/POS corpus")
    common(t)
    t.add_argument("--seed", type=int, help="initialization, shuffling and dev split seed")
    t.add_argument("--corpus", help="training corpus (word/POS lines)")
    t.add_argument("--dev", help="held-out corpus for model selection")
    t.add_argument("--embeddings", help="word2vec-format pre-trained characters")
    t.add_argument("--encoder", choices=("full", "mlp"))
    t.add_argument("--recurrent", choices=("none", "lstm", "blstm"))
    t.add_argument("--no-conv", dest="conv", action="store_const", const=False)
    t.add_argument("--no-pooling", dest="pooling", action="store_const", const=False)
    t.add_argument("--no-highway", dest="highway", action="store_const", const=False)
    t.add_argument("--bigrams", action="store_const", const=True)
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--margin", type=float)
    t.add_argument("--l2", type=float)
    t.add_argument("--window", type=int)
    t.set_defaults(func=cmd_train)

    g = sub.add_parser("tag", help="tag raw text, one character sequence per line")
    common(g)
    g.add_argument("input", nargs="?", default="-", help="input file or - for stdin")
    g.add_argument("output", nargs="?", default="-", help="output file or - for stdout")
    g.set_defaults(func=cmd_tag)

    e = sub.add_parser("eval", help="score a model against a gold corpus")
    common(e)
    e.add_argument("--corpus", help="gold corpus (word/POS lines)")
    e.add_argument("--mode", choices=("joint", "seg", "both"))
    e.add_argument("--per-pos", dest="per_pos", action="store_const", const=True,
                   help="append a per-POS breakdown")
    e.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigError, ValueError, OSError, NumericError) as e:
        print(f"segtag: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
