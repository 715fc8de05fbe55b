"""Command-line operator surface: train, tag and evaluate.

SETTINGS declares each setting once; the flags are generated from it, and a
command reads only its own keys: defaults, overridden by a "key = value"
config file (a # at the start of a line or after whitespace starts a
comment), overridden by flags. Logs go to stderr and data to stdout so
pipelines compose.
"""
from __future__ import annotations

import argparse
import logging
import re
import sys
from typing import NamedTuple

from . import corpus as cp
from . import evaluation as ev
from . import modelfile as mf
from .autograd import NumericError
from .encoder import RECURRENT_KINDS, STACKS, WIDTHS, ConfigError, EncoderConfig
from .files import decoded, read_text, replace_file
from .model import Model
from .training import OPTIMIZERS, TrainConfig, gold_and_predicted_words, train

log = logging.getLogger("segtag")
STDIO = "-"     # tag's input and output path for standard input and output


def _bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


class Setting(NamedTuple):
    parse: object           # text -> value
    default: object
    choices: tuple | None   # the values allowed; None: any the parser takes
    commands: tuple         # the commands that read it
    help: str | None        # its flag's help; None: a config-file key only

    def value(self, text):
        """A flag's or a config line's value, held to the choices."""
        try:
            value = self.parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        if self.choices is not None and value not in self.choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {value!r} (choose from {', '.join(map(repr, self.choices))})")
        return value


_TRAIN, _EVAL, _CORPUS, _ALL = ("train",), ("eval",), ("train", "eval"), ("train", "tag", "eval")
# Every setting, declared once. The published defaults are the dataclasses',
# a width left None takes the topology's own, and dev_fraction and
# bigram_min_count left None take the library's, where the run reads them.
SETTINGS = {
    "model": Setting(str, None, None, _ALL, "model file path"),
    "seed": Setting(int, TrainConfig.seed, None, _TRAIN, "seed for init, shuffling, dev split"),
    "corpus": Setting(str, None, None, _CORPUS, "training or gold corpus (word/POS lines)"),
    "dev": Setting(str, None, None, _TRAIN, "held-out corpus for model selection"),
    "embeddings": Setting(str, None, None, _TRAIN, "word2vec-format pre-trained characters"),
    "stack": Setting(str, EncoderConfig.stack, STACKS, _TRAIN, "feature stack level, or mlp"),
    "recurrent": Setting(str, EncoderConfig.recurrent, RECURRENT_KINDS, _TRAIN, "recurrent layer"),
    "bigrams": Setting(_bool, EncoderConfig.use_bigram, None, _TRAIN, "add bigram embeddings"),
    "epochs": Setting(int, TrainConfig.max_epochs, None, _TRAIN, "most training epochs"),
    "batch": Setting(int, TrainConfig.batch_size, None, _TRAIN, "sentences per update"),
    "lr": Setting(float, TrainConfig.alpha, None, _TRAIN, "initial learning rate"),
    "margin": Setting(float, TrainConfig.eta, None, _TRAIN, "margin per wrong position"),
    "l2": Setting(float, TrainConfig.l2, None, _TRAIN, "regularization coefficient"),
    "window": Setting(int, EncoderConfig.window, None, _TRAIN, "mlp context window"),
    "d": Setting(int, EncoderConfig.d, None, _TRAIN, None),
    **{key: Setting(int, None, None, _TRAIN, None) for key, _, _ in WIDTHS.values()},
    "dev_fraction": Setting(float, None, None, _TRAIN, None),
    "optimizer": Setting(str, TrainConfig.optimizer, OPTIMIZERS, _TRAIN, None),
    "min_count": Setting(int, 1, None, _TRAIN, None),
    "bigram_min_count": Setting(int, None, None, _TRAIN, None),
    "finetune_embeddings": Setting(_bool, TrainConfig.finetune_embeddings, None, _TRAIN, None),
    "observed_tags_only": Setting(_bool, False, None, _TRAIN, None),
    "constrain_transitions": Setting(_bool, False, None, _TRAIN, None),
    "mode": Setting(str, "both", ("joint", "seg", "both"), _EVAL, "the rows to report"),
    "per_pos": Setting(_bool, False, None, _EVAL, "append a per-POS breakdown"),
    "strict": Setting(_bool, True, None, _CORPUS, None),
    "normalize_width": Setting(_bool, False, None, _ALL, None),
}


class CliError(ValueError):
    pass


_COMMENT = re.compile(r"(?<!\S)#")     # a # that starts the line or follows whitespace


def parse_config_file(path, command):
    """Read "key = value" lines. A line that is not one, an unknown or
    repeated key, a key the command does not read and a value its flag
    would refuse are errors naming the file and the line."""
    values, first = {}, {}
    for lineno, raw in enumerate(read_text(path, "config"), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value, where = key.strip(), value.strip(), f"{path}:{lineno}"
        if not eq or not key:
            raise CliError(f"{where}: expected 'key = value', got {raw.strip()!r}")
        if key not in SETTINGS:
            raise CliError(f"{where}: unknown config key {key!r}")
        if key in first:
            raise CliError(f"{where}: config key {key!r} repeats line {first[key]}")
        if command not in SETTINGS[key].commands:
            raise CliError(f"{where}: segtag {command} does not read config key {key!r}")
        try:
            values[key] = SETTINGS[key].value(value)
        except argparse.ArgumentTypeError as e:
            raise CliError(f"{where}: bad value for {key}: {e}") from None
        first[key] = lineno
    return values


def resolve_settings(args):
    """The settings args.command reads, and only those: defaults, overridden
    by the config file, overridden by explicit flags."""
    settings = {key: s.default for key, s in SETTINGS.items() if args.command in s.commands}
    if args.config:
        settings.update(parse_config_file(args.config, args.command))
    settings.update({k: v for k in settings if (v := getattr(args, k, None)) is not None})
    return settings


def encoder_config_from(settings):
    widths = {field: settings[key] for field, (key, _, _) in WIDTHS.items()}
    return EncoderConfig(d=settings["d"], stack=settings["stack"], recurrent=settings["recurrent"],
                         window=settings["window"], use_bigram=settings["bigrams"], **widths)


def train_config_from(settings):
    return TrainConfig(alpha=settings["lr"], eta=settings["margin"], l2=settings["l2"],
                       batch_size=settings["batch"], max_epochs=settings["epochs"],
                       seed=settings["seed"], optimizer=settings["optimizer"],
                       finetune_embeddings=settings["finetune_embeddings"],
                       **_given(settings, "dev_fraction"))


def _given(settings, key):
    """settings[key] as a keyword argument, or none when it is unset, so the
    callee's default holds."""
    return {} if settings[key] is None else {key: settings[key]}


def _refuse_unread(settings):
    """Refuse a train setting that the run would not read."""
    for key, unread, why in (("dev_fraction", settings["dev"], "with a dev corpus (--dev)"),
                             ("bigram_min_count", not settings["bigrams"],
                              "without bigrams (--bigrams)")):
        if unread and settings[key] is not None:
            raise CliError(f"{key}={settings[key]!r} is not read {why}; leave it unset")


def _require(settings, key, command):
    if not settings[key]:
        raise CliError(f"segtag {command} needs --{key}")
    return settings[key]


def _read_corpus(path, what, settings, fold):
    """The sentences of a word/POS corpus file (`what` names it if it cannot
    be read). A malformed token is refused naming the file and the line, and
    a file without sentences is refused."""
    try:
        sentences = cp.parse_tagged_corpus(read_text(path, what), strict=settings["strict"],
                                           normalize_width=fold)
    except cp.CorpusFormatError as e:
        raise CliError(f"{path} {e}") from None
    if not sentences:
        raise CliError(f"no sentences in {path}")
    return sentences


def cmd_train(args):
    settings = resolve_settings(args)
    _refuse_unread(settings)
    corpus_path = _require(settings, "corpus", "train")
    model_path = _require(settings, "model", "train")
    cfg = encoder_config_from(settings)
    train_cfg = train_config_from(settings)

    sentences = _read_corpus(corpus_path, "corpus", settings, settings["normalize_width"])
    vocab, tagset = cp.build_vocab_and_tagset(
        sentences, min_count=settings["min_count"], use_bigram=settings["bigrams"],
        observed_tags_only=settings["observed_tags_only"],
        **_given(settings, "bigram_min_count"))
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
        dev = _read_corpus(settings["dev"], "dev corpus", settings, settings["normalize_width"])
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
    rule = ev.word_rule(model.tagset)
    for k, path in model.tagged([texts[i] for i in lines]):
        i = lines[k]
        out[i] = cp.format_words(texts[i], path, rule)
    return out


def _read_raw(path, fold):
    """Every line of raw input, from a file or standard input ("-"), stripped
    as the corpus parser strips its lines (and width-folded if fold). A line
    with interior whitespace is refused, naming it: the space would be
    tagged as a character."""
    name = "standard input" if path == STDIO else path
    lines = decoded(sys.stdin.buffer.read(), name) if path == STDIO else read_text(path, "input")
    texts = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if len(text.split(maxsplit=1)) > 1:
            raise CliError(f"{name} line {lineno}: raw text holds whitespace; "
                           "give one unsegmented sentence per line")
        texts.append(cp.fold_width(text) if fold else text)
    return texts


def cmd_tag(args):
    """Tag raw lines. The whole input is read, checked and tagged before the
    output is written, and files.replace_file writes it, so a refused line, a
    failed tagging or a failed write leaves no output file, and an existing
    one keeps its bytes."""
    settings = resolve_settings(args)
    model = mf.load(_require(settings, "model", "tag"))
    # a model trained on width-folded text says so in its file
    fold = settings["normalize_width"] or model.normalize_width
    texts = _read_raw(args.input, fold)
    out = "".join(line + "\n" for line in _tagged_lines(model, texts))
    if args.output == STDIO:
        sys.stdout.write(out)
    else:
        replace_file(args.output, "output", out.encode("utf-8"))
    return 0


def cmd_eval(args):
    settings = resolve_settings(args)
    modes = ("joint", "seg") if settings["mode"] == "both" else (settings["mode"],)
    model = mf.load(_require(settings, "model", "eval"))
    fold = settings["normalize_width"] or model.normalize_width
    gold_path = _require(settings, "corpus", "eval")
    sentences = _read_corpus(gold_path, "corpus", settings, fold)
    print(ev.report(*gold_and_predicted_words(model, sentences), modes=modes,
                    per_pos=settings["per_pos"]))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="segtag",
        description="joint character-level word segmentation and POS tagging")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, about in (("train", cmd_train, "train a model on a word/POS corpus"),
                                 ("tag", cmd_tag, "tag raw text, one character sequence per line"),
                                 ("eval", cmd_eval, "score a model against a gold corpus")):
        p = sub.add_parser(command, help=about)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key = value settings file")
        for key, s in SETTINGS.items():
            if command in s.commands and s.help is not None:     # per_pos: --per-pos
                how = (dict(action="store_const", const=True) if s.parse is _bool else
                       dict(type=s.value, metavar=s.choices and "{" + ",".join(s.choices) + "}"))
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=s.help, **how)
        if command == "tag":
            p.add_argument("input", nargs="?", default=STDIO, help="input file or - for stdin")
            p.add_argument("output", nargs="?", default=STDIO, help="output file or - for stdout")
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
