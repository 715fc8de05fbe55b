"""Command-line operator surface: train, tag and evaluate.

Settings resolve in three layers: built-in defaults, then a line-oriented
"key = value" config file (# comments), then explicit command-line flags.
--stack and --recurrent pick the encoder topology, which refuses a width it
does not read. Logs go to stderr and data to stdout so pipelines compose.
"""
from __future__ import annotations

import argparse
import io
import logging
import sys

from . import corpus as cp
from . import evaluation as ev
from . import modelfile as mf
from .autograd import NumericError
from .encoder import RECURRENT_KINDS, STACKS, WIDTHS, ConfigError, EncoderConfig
from .model import Model
from .training import TrainConfig, gold_and_predicted_spans, train

log = logging.getLogger("segtag")


def _bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (parser, default); every flag has its config-file twin, and a few
# model widths are config-only. The published defaults are the dataclasses'.
SETTINGS = {
    "corpus": (str, None),
    "dev": (str, None),
    "embeddings": (str, None),
    "model": (str, None),
    "seed": (int, TrainConfig.seed),
    "stack": (str, EncoderConfig.stack),          # encoder.STACKS
    "recurrent": (str, EncoderConfig.recurrent),  # encoder.RECURRENT_KINDS
    "bigrams": (_bool, EncoderConfig.use_bigram),
    "mode": (str, "both"),             # joint | seg | both
    "epochs": (int, TrainConfig.max_epochs),
    "batch": (int, TrainConfig.batch_size),
    "lr": (float, TrainConfig.alpha),
    "margin": (float, TrainConfig.eta),
    "l2": (float, TrainConfig.l2),
    "window": (int, EncoderConfig.window),
    "d": (int, EncoderConfig.d),
    **{key: (int, None) for key, _, _ in WIDTHS.values()},  # None: the topology's own
    "dev_fraction": (float, TrainConfig.dev_fraction),
    "optimizer": (str, TrainConfig.optimizer),
    "min_count": (int, 1),
    "bigram_min_count": (int, 2),
    "finetune_embeddings": (_bool, TrainConfig.finetune_embeddings),
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
    with open(path, encoding="utf-8-sig") as f:
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
    widths = {field: settings[key] for field, (key, _, _) in WIDTHS.items()}
    return EncoderConfig(d=settings["d"], stack=settings["stack"], recurrent=settings["recurrent"],
                         window=settings["window"], use_bigram=settings["bigrams"], **widths)


def train_config_from(settings):
    return TrainConfig(alpha=settings["lr"], eta=settings["margin"], l2=settings["l2"],
                       batch_size=settings["batch"], max_epochs=settings["epochs"],
                       seed=settings["seed"], dev_fraction=settings["dev_fraction"],
                       optimizer=settings["optimizer"],
                       finetune_embeddings=settings["finetune_embeddings"])


def _require(settings, key, command):
    if not settings[key]:
        raise CliError(f"segtag {command} needs --{key}")
    return settings[key]


def _read_corpus(path, settings, fold):
    """The sentences of a word/POS corpus file. A malformed token is refused
    naming the file and the line, and a file without sentences is refused."""
    with open(path, encoding="utf-8-sig") as f:
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
            settings["embeddings"], vocab, model.named["embed.unigram"])
        log.info("pre-trained embeddings: %s", stats)

    dev = None
    if settings["dev"]:
        dev = _read_corpus(settings["dev"], settings, settings["normalize_width"])
    best = train(sentences, model, train_cfg, dev=dev)
    checksum = mf.save(model, model_path)
    f1 = "n/a" if best.dev_f1 is None else f"{best.dev_f1:.4f}"
    log.info("saved epoch %d (dev F1 %s) to %s, crc32 %08x",
             best.epoch, f1, model_path, checksum)
    return 0


def _tagged_lines(model, texts):
    """The output lines of raw input lines, a blank one kept blank. The
    non-blank lines are tagged in one call, and each chunk's lines are
    rendered as the model decodes it, so no more than a chunk's tags are held."""
    out = [""] * len(texts)
    lines = [i for i, text in enumerate(texts) if text]
    for k, path in model.tagged([texts[i] for i in lines]):
        i = lines[k]
        out[i] = cp.format_words(texts[i], model.tagset.decode(path))
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
        # decoded as the input file is, whatever the locale: a leading
        # byte-order mark is not a character
        stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig")
        try:
            texts = _read_raw(stdin, "standard input", fold)
        finally:
            stdin.detach()      # leaves sys.stdin open
    else:
        with open(args.input, encoding="utf-8-sig") as fin:
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
    gold, pred = gold_and_predicted_spans(model, sentences)
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
    t.add_argument("--stack", choices=STACKS, help="feature stack level, or the mlp baseline")
    t.add_argument("--recurrent", choices=RECURRENT_KINDS)
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
