import contextlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtag import cli
from segtag import corpus as cp
from segtag import modelfile as mf
from segtag.autograd import NumericError
from segtag.model import Model
from segtag.toydata import toy_corpus
from util import PERFBENCH

TOY_MODEL = PERFBENCH / "models" / "toy.model"


@pytest.fixture()
def toy_files(tmp_path):
    sents = toy_corpus(16, seed=5)
    corpus = tmp_path / "train.txt"
    corpus.write_text(cp.serialize_corpus(sents), encoding="utf-8")
    config = tmp_path / "small.cfg"
    config.write_text(
        "# tiny widths so tests stay fast\n"
        "d = 8\n"
        "h = 8\n"
        "feature_map_sets = 2\n"
        "feature_map_size = 8\n"
        "epochs = 2\n"
        "batch = 8\n",
        encoding="utf-8")
    return corpus, config, tmp_path


def run_cli(*argv):
    return cli.main(list(argv))


class TestSettings:
    def test_published_defaults(self):
        args = cli.build_parser().parse_args(["train"])
        s = cli.resolve_settings(args)
        assert (s["d"], s["h"]) == (50, 100)
        assert (s["feature_map_sets"], s["feature_map_size"]) == (5, 100)
        assert (s["lr"], s["margin"], s["l2"], s["batch"]) == (0.2, 0.2, 1e-4, 20)
        assert s["window"] == 1
        cfg = cli.encoder_config_from(s)
        assert cfg.use_conv and cfg.use_pooling and cfg.use_highway
        assert cfg.recurrent == "blstm"

    def test_flags_override_file_overrides_defaults(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("epochs = 7\nlr = 0.05\n", encoding="utf-8")
        args = cli.build_parser().parse_args(
            ["train", "--config", str(config), "--epochs", "3"])
        s = cli.resolve_settings(args)
        assert s["epochs"] == 3       # flag beats file
        assert s["lr"] == 0.05        # file beats default
        assert s["batch"] == 20       # default survives

    def test_unknown_config_key_named(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("learning_rate = 0.1\n", encoding="utf-8")
        with pytest.raises(cli.CliError, match="learning_rate"):
            cli.parse_config_file(config)

    def test_comments_and_blanks_ignored(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("\n# comment\nepochs = 4  # trailing\n\n", encoding="utf-8")
        assert cli.parse_config_file(config) == {"epochs": 4}

    def test_mlp_topology_switch(self):
        args = cli.build_parser().parse_args(
            ["train", "--encoder", "mlp", "--window", "5"])
        cfg = cli.encoder_config_from(cli.resolve_settings(args))
        assert cfg.mlp_baseline and cfg.window == 5
        assert cfg.recurrent == "none" and not cfg.use_conv

    def test_no_conv_cascades(self):
        args = cli.build_parser().parse_args(["train", "--no-conv"])
        cfg = cli.encoder_config_from(cli.resolve_settings(args))
        assert not (cfg.use_conv or cfg.use_pooling or cfg.use_highway)


class TestTrainCommand:
    def test_trains_and_saves(self, toy_files, capsys):
        corpus, config, tmp = toy_files
        model_path = tmp / "m.model"
        rc = run_cli("train", "--config", str(config), "--corpus", str(corpus),
                     "--model", str(model_path), "--seed", "3")
        assert rc == 0
        assert model_path.exists()
        out = capsys.readouterr()
        assert out.out == ""                       # data stream untouched
        assert len([l for l in out.err.splitlines() if l and l[0].isdigit()]) == 2

    def test_deterministic_reruns_are_byte_identical(self, toy_files):
        corpus, config, tmp = toy_files
        paths = [tmp / "a.model", tmp / "b.model"]
        for p in paths:
            rc = run_cli("train", "--config", str(config), "--corpus", str(corpus),
                         "--model", str(p), "--seed", "7")
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_window_without_the_mlp_encoder_rejected(self, toy_files, capsys):
        corpus, config, tmp = toy_files
        model_path = tmp / "m.model"
        rc = run_cli("train", "--config", str(config), "--corpus", str(corpus),
                     "--model", str(model_path), "--window", "3")
        assert rc == 1
        assert "window" in capsys.readouterr().err
        assert not model_path.exists()

    def test_missing_corpus_flag(self, toy_files, capsys):
        _, config, tmp = toy_files
        rc = run_cli("train", "--config", str(config), "--model", str(tmp / "m.model"))
        assert rc == 1
        assert "--corpus" in capsys.readouterr().err

    def test_zero_epochs_rejected_before_training(self, toy_files, capsys):
        corpus, config, tmp = toy_files
        model_path = tmp / "m.model"
        rc = run_cli("train", "--config", str(config), "--corpus", str(corpus),
                     "--model", str(model_path), "--epochs", "0")
        assert rc == 1
        assert "max_epochs" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("flag, field", [("--lr", "alpha"), ("--margin", "eta"),
                                             ("--l2", "l2")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rates_rejected_before_training(self, toy_files, capsys,
                                                        flag, field, value):
        corpus, config, tmp = toy_files
        model_path = tmp / "m.model"
        rc = run_cli("train", "--config", str(config), "--corpus", str(corpus),
                     "--model", str(model_path), flag, value)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"segtag: {field}") and err.count("\n") == 1
        assert not model_path.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_numeric_error_is_one_line(self, toy_files, capsys):
        # a learning rate of 1e30 throws the first batch's update past float32
        # range, so the second batch's forward pass overflows
        corpus, config, tmp = toy_files
        model_path = tmp / "m.model"
        rc = run_cli("train", "--config", str(config), "--corpus", str(corpus),
                     "--model", str(model_path), "--lr", "1e30", "--batch", "2")
        assert rc == 1
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("segtag:")]
        assert len(lines) == 1 and "Traceback" not in err
        assert lines[0].startswith("segtag: epoch 1, batch 1, sentences [")
        assert lines[0].endswith("NaN/Inf")
        assert not model_path.exists()

    def test_empty_dev_file_is_named(self, toy_files, capsys):
        # an empty --dev file would train with no model selection at all
        corpus, config, tmp = toy_files
        dev, model_path = tmp / "dev.txt", tmp / "m.model"
        dev.write_text("\n", encoding="utf-8")
        rc = run_cli("train", "--config", str(config), "--corpus", str(corpus),
                     "--dev", str(dev), "--model", str(model_path))
        assert rc == 1
        assert capsys.readouterr().err == f"segtag: no sentences in {dev}\n"
        assert not model_path.exists()

    def test_malformed_corpus_names_the_file_and_line(self, toy_files, capsys):
        corpus, config, tmp = toy_files
        bad = tmp / "bad.txt"
        bad.write_text("ab/NN\nab/\n", encoding="utf-8")
        rc = run_cli("train", "--config", str(config), "--corpus", str(bad),
                     "--model", str(tmp / "m.model"))
        assert rc == 1
        assert capsys.readouterr().err == f"segtag: {bad} line 2: token 'ab/' is not word/POS\n"

    def test_pretrained_embeddings_are_loaded(self, toy_files, caplog):
        corpus, config, tmp = toy_files
        emb = tmp / "emb.txt"
        emb.write_text("2 8\n" + "a " + " ".join(["0.5"] * 8) + "\n"
                       + "b " + " ".join(["-0.5"] * 8) + "\n", encoding="utf-8")
        model_path = tmp / "m.model"
        with caplog.at_level("INFO"):
            rc = run_cli("train", "--config", str(config), "--corpus", str(corpus),
                         "--model", str(model_path), "--embeddings", str(emb))
        assert rc == 0
        assert "coverage" in caplog.text
        model = mf.load(model_path)
        # training updates the rows, but they must have started from the file;
        # with 2 epochs on a tiny corpus they stay near the seeded values
        row = model.named["embed.unigram"].data[model.vocab.char_id("a")]
        assert abs(float(row.mean()) - 0.5) < 0.45

    def test_non_embedding_file_is_named(self, toy_files, capsys):
        # a corpus file has no '<count> <dim>' header
        corpus, config, tmp = toy_files
        model_path = tmp / "m.model"
        rc = run_cli("train", "--config", str(config), "--corpus", str(corpus),
                     "--model", str(model_path), "--embeddings", str(corpus))
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"segtag: {corpus}: missing '<count> <dim>' header line\n"
        assert not model_path.exists()

    def test_overflowing_update_writes_no_model(self, tmp_path):
        # four sentences leave the 0.1 dev split empty, so no forward pass
        # runs after the one update that lr = 1e300 throws past float32's
        # range: the save refuses the parameters instead of writing a model
        # that loading refuses. A subprocess, so the overflow stays a warning.
        corpus = tmp_path / "train.txt"
        corpus.write_text(cp.serialize_corpus(toy_corpus(4, seed=5)), encoding="utf-8")
        config = tmp_path / "hot.cfg"
        config.write_text("d = 8\nh = 8\nfeature_map_sets = 2\nfeature_map_size = 8\n"
                          "lr = 1e300\nepochs = 1\n", encoding="utf-8")
        model_path = tmp_path / "m.model"
        proc = subprocess.run([sys.executable, "-m", "segtag.cli", "train", "--config",
                               str(config), "--corpus", str(corpus), "--model", str(model_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        lines = [line for line in proc.stderr.splitlines() if line.startswith("segtag:")]
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert lines[0].startswith("segtag: parameter '") and "NaN/Inf" in lines[0]
        assert not model_path.exists()


class TestTagCommand:
    @pytest.fixture()
    def trained(self, toy_files):
        corpus, config, tmp = toy_files
        model_path = tmp / "m.model"
        assert run_cli("train", "--config", str(config), "--corpus", str(corpus),
                       "--model", str(model_path)) == 0
        return model_path, tmp

    def test_empty_input_empty_output(self, trained, tmp_path):
        model_path, _ = trained
        fin = tmp_path / "in.txt"
        fout = tmp_path / "out.txt"
        fin.write_text("", encoding="utf-8")
        rc = run_cli("tag", "--model", str(model_path), str(fin), str(fout))
        assert rc == 0
        assert fout.read_text(encoding="utf-8") == ""

    def test_blank_line_round_trips(self, trained, tmp_path):
        model_path, _ = trained
        fin = tmp_path / "in.txt"
        fout = tmp_path / "out.txt"
        fin.write_text("ab\n\ncde\n", encoding="utf-8")
        rc = run_cli("tag", "--model", str(model_path), str(fin), str(fout))
        assert rc == 0
        lines = fout.read_text(encoding="utf-8").split("\n")
        assert lines[1] == ""
        assert all("/" in l for l in (lines[0], lines[2]))

    def test_lines_are_tagged_in_groups_and_written_in_order(self, trained, tmp_path):
        model_path, _ = trained
        rng = np.random.default_rng(9)
        lines = ["" if i % 7 == 0 else "".join(rng.choice(list("abcdefghijklxy"),
                                                          size=int(rng.integers(1, 40))))
                 for i in range(600)]
        lines.insert(60, "abcdefghijkl" * (cli.TAG_CHUNK_CHARS // 12 + 1))   # longer than a chunk
        assert len(lines[60]) > cli.TAG_CHUNK_CHARS
        assert sum(map(len, lines)) > 2 * cli.TAG_GROUP_CHARS
        fin = tmp_path / "in.txt"
        fout = tmp_path / "out.txt"
        fin.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("tag", "--model", str(model_path), str(fin), str(fout)) == 0
        got = fout.read_text(encoding="utf-8").split("\n")
        assert got[-1] == "" and len(got) == len(lines) + 1
        model = mf.load(model_path)
        for line, out in zip(lines, got):
            chars = list(line)
            assert out == (cp.format_words(chars, model.tag_chars(chars)) if chars else "")

    def test_surrounding_whitespace_is_stripped(self, tmp_path):
        fin = tmp_path / "in.txt"
        fout = tmp_path / "out.txt"
        fin.write_text("  abcde\t\n \t \nfgh \r\n", encoding="utf-8")
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 0
        lines = fout.read_text(encoding="utf-8").split("\n")
        assert lines[1] == "" and len(lines) == 4
        model = mf.load(TOY_MODEL)
        assert lines[0] == cp.format_words(list("abcde"), model.tag_chars(list("abcde")))
        # the tool's own parser reads its output back
        assert [s.chars for s in cp.parse_tagged_corpus(lines)] == [list("abcde"), list("fgh")]

    def test_interior_whitespace_is_refused_naming_the_line(self, tmp_path, capsys):
        fin = tmp_path / "in.txt"
        fin.write_text("abc\nabcde fgh\n", encoding="utf-8")
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(tmp_path / "o.txt")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"segtag: {fin} line 2: raw text holds whitespace")

    def test_refused_line_leaves_no_output(self, tmp_path, capsys):
        # the refused line comes after more than one group of tagged lines
        rng = np.random.default_rng(4)
        lines = ["".join(rng.choice(list("abcdefghijkl"), size=360)) for _ in range(20)]
        assert sum(map(len, lines)) > cli.TAG_GROUP_CHARS
        fin = tmp_path / "in.txt"
        fin.write_text("\n".join(lines + ["ab cd"]) + "\n", encoding="utf-8")
        fout = tmp_path / "out.txt"
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 1
        assert capsys.readouterr().err.startswith(f"segtag: {fin} line 21: ")
        assert not fout.exists()
        # an existing output file keeps its bytes
        fout.write_bytes(b"kept\n")
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 1
        assert fout.read_bytes() == b"kept\n"

    def test_failed_tagging_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        # 20 lines of 360 characters make two groups; the second group's
        # tagging fails after the first group was tagged
        rng = np.random.default_rng(4)
        lines = ["".join(rng.choice(list("abcdefghijkl"), size=360)) for _ in range(20)]
        fin = tmp_path / "in.txt"
        fin.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls, tag_batch = [], Model.tag_batch

        def failing(model, sentences):
            calls.append(len(sentences))
            if len(calls) == 2:
                raise NumericError("tensor contains NaN/Inf")
            return tag_batch(model, sentences)

        monkeypatch.setattr(Model, "tag_batch", failing)
        fout = tmp_path / "out.txt"
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 1
        assert capsys.readouterr().err == "segtag: tensor contains NaN/Inf\n"
        assert len(calls) == 2 and not fout.exists()
        # an existing output file keeps its bytes
        fout.write_bytes(b"kept\n")
        calls.clear()
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 1
        assert fout.read_bytes() == b"kept\n"

    def test_deterministic_output(self, trained, tmp_path):
        model_path, _ = trained
        fin = tmp_path / "in.txt"
        fin.write_text("abcdegh\nijkl\n", encoding="utf-8")
        outs = []
        for name in ("o1.txt", "o2.txt"):
            fout = tmp_path / name
            assert run_cli("tag", "--model", str(model_path), str(fin), str(fout)) == 0
            outs.append(fout.read_text(encoding="utf-8"))
        assert outs[0] == outs[1]

    def test_unseen_characters_never_crash(self, trained, tmp_path):
        model_path, _ = trained
        fin = tmp_path / "in.txt"
        fout = tmp_path / "out.txt"
        fin.write_text("xyz!?\n", encoding="utf-8")
        rc = run_cli("tag", "--model", str(model_path), str(fin), str(fout))
        assert rc == 0
        line = fout.read_text(encoding="utf-8").strip()
        assert line.count("/") >= 1
        assert "".join(tok.rsplit("/", 1)[0] for tok in line.split()) == "xyz!?"


class TestEvalCommand:
    def test_report_modes(self, toy_files, capsys):
        corpus, config, tmp = toy_files
        model_path = tmp / "m.model"
        assert run_cli("train", "--config", str(config), "--corpus", str(corpus),
                       "--model", str(model_path)) == 0
        capsys.readouterr()
        rc = run_cli("eval", "--model", str(model_path), "--corpus", str(corpus))
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("joint\t") and lines[1].startswith("seg\t")

        rc = run_cli("eval", "--model", str(model_path), "--corpus", str(corpus),
                     "--mode", "seg")
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("seg\t") and "joint" not in out

    def test_overfit_toy_training_set_scores_high(self, tmp_path, capsys):
        # end-to-end: train on the toy corpus, then eval on the same file
        sents = toy_corpus(50, seed=0)
        corpus = tmp_path / "train.txt"
        corpus.write_text(cp.serialize_corpus(sents), encoding="utf-8")
        config = tmp_path / "toy.cfg"
        config.write_text("d = 16\nh = 16\nfeature_map_sets = 3\n"
                          "feature_map_size = 16\nepochs = 10\n", encoding="utf-8")
        model_path = tmp_path / "m.model"
        assert run_cli("train", "--config", str(config), "--corpus", str(corpus),
                       "--model", str(model_path), "--seed", "1") == 0
        capsys.readouterr()
        assert run_cli("eval", "--model", str(model_path), "--corpus", str(corpus),
                       "--mode", "joint") == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        f1 = float(line.split("\t")[3])
        assert f1 >= 0.99, line

    def test_bad_mode_is_named_before_the_model_is_loaded(self, toy_files, capsys):
        # the model path does not exist: the mode must be refused first
        corpus, _, tmp = toy_files
        config = tmp / "eval.cfg"
        config.write_text("mode = jiont\n", encoding="utf-8")
        rc = run_cli("eval", "--config", str(config), "--model", str(tmp / "absent.model"),
                     "--corpus", str(corpus))
        assert rc == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "'jiont'" in out.err and "absent.model" not in out.err

    def test_malformed_gold_in_strict_mode_prints_no_report(self, toy_files, capsys):
        corpus, config, tmp = toy_files
        model_path = tmp / "m.model"
        assert run_cli("train", "--config", str(config), "--corpus", str(corpus),
                       "--model", str(model_path)) == 0
        bad = tmp / "bad.txt"
        bad.write_text("ab/NN\nbroken line\n", encoding="utf-8")
        capsys.readouterr()
        rc = run_cli("eval", "--model", str(model_path), "--corpus", str(bad))
        assert rc == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "line 2" in out.err


def full_width(text):
    """The full-width form of ASCII letters, which fold_width maps back."""
    return "".join(chr(ord(c) + 0xFEE0) for c in text)


class TestWidthFolding:
    def test_model_trained_on_folded_text_folds_tag_and_eval_input(self, toy_files, capsys):
        # a model trained with normalize_width = true has only half-width
        # characters in its vocabulary; tag and eval must fold full-width input
        # whether or not the setting is repeated
        _, config, tmp = toy_files
        wide = [cp.Sentence([full_width(c) for c in s.chars], s.tags)
                for s in toy_corpus(16, seed=5)]
        corpus = tmp / "wide.txt"
        corpus.write_text(cp.serialize_corpus(wide), encoding="utf-8")
        raw = tmp / "wide_raw.txt"
        raw.write_text("".join("".join(s.chars) + "\n" for s in wide), encoding="utf-8")
        folding = tmp / "folding.cfg"
        folding.write_text(config.read_text(encoding="utf-8") + "normalize_width = true\n",
                           encoding="utf-8")
        model_path = tmp / "m.model"
        assert run_cli("train", "--config", str(folding), "--corpus", str(corpus),
                       "--model", str(model_path)) == 0
        assert mf.load(model_path).normalize_width

        reports, tagged = [], []
        for extra in (["--config", str(folding)], []):
            capsys.readouterr()
            assert run_cli("eval", *extra, "--model", str(model_path),
                           "--corpus", str(corpus)) == 0
            reports.append(capsys.readouterr().out)
            out = tmp / f"tagged{len(tagged)}.txt"
            assert run_cli("tag", *extra, "--model", str(model_path), str(raw), str(out)) == 0
            tagged.append(out.read_text(encoding="utf-8"))
        assert reports[0] == reports[1]
        assert tagged[0] == tagged[1]
        assert "".join(tagged[0].split()).isascii()   # folded before tagging


def test_console_entry_point(toy_files):
    corpus, config, tmp = toy_files
    model_path = tmp / "m.model"
    cmd = [sys.executable, "-m", "segtag.cli", "train", "--config", str(config),
           "--corpus", str(corpus), "--model", str(model_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert model_path.exists()


# tagged sentences of toy characters (x is never in a vocabulary)
_sentence = st.lists(st.builds("{}/{}".format, st.text("abcx", min_size=1, max_size=3),
                               st.sampled_from(["NN", "VV"])), min_size=1, max_size=4).map(" ".join)
_settings = st.fixed_dictionaries({
    "encoder": st.sampled_from(["full", "full", "mlp"]),
    "recurrent": st.sampled_from(["none", "lstm", "blstm"]),
    "conv": st.booleans(), "pooling": st.booleans(), "highway": st.booleans(),
    "bigrams": st.booleans(), "bigram_min_count": st.integers(1, 2),
    "d": st.integers(1, 4), "h": st.integers(1, 4),
    "feature_map_sets": st.integers(1, 3), "feature_map_size": st.integers(2, 6),
    "epochs": st.integers(1, 2), "batch": st.integers(1, 4),
    "dev_fraction": st.sampled_from(["0", "0.3"]),
    "constrain_transitions": st.booleans(), "observed_tags_only": st.booleans(),
    "optimizer": st.sampled_from(["adagrad", "sgd"]),
})
# a line appended to one of the files; each is refused (window = 3 unless
# the encoder is mlp)
_FAULTS = [("cfg", "learning_rate = 1"), ("cfg", "d 4"), ("cfg", "lr = nan"),
           ("cfg", "epochs = 0"), ("cfg", "window = 3"), ("train", "ab/"),
           ("gold", "/NN"), ("raw", "a b")]


def _main(*argv):
    """(exit code, stderr) of one in-process run; any exception escaping
    main fails the test with its traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, err.getvalue()


@settings(max_examples=500, deadline=None)
@given(config=_settings, train=st.lists(_sentence, min_size=1, max_size=6),
       gold=st.lists(_sentence, max_size=3),
       raw=st.lists(st.sampled_from(["", "ab", "cxa", "bbbbbbb"]), max_size=4),
       mode=st.sampled_from(["joint", "seg", "both"]),
       fault=st.one_of(st.none(), st.sampled_from(_FAULTS)))
def test_main_exits_cleanly_on_generated_inputs(config, train, gold, raw, mode, fault):
    # train, tag and eval exit 0 or 1, with one "segtag:" line exactly when
    # they fail, and train and tag leave their file exactly when they succeed
    files = {"cfg": [f"{k} = {v}" for k, v in config.items()],
             "train": train, "gold": gold, "raw": raw}
    if fault:
        files[fault[0]] = files[fault[0]] + [fault[1]]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, lines in files.items():
            (tmp / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        model, out = tmp / "m.model", tmp / "out.txt"
        runs = [("train", "--config", str(tmp / "cfg"), "--corpus", str(tmp / "train"),
                 "--model", str(model)),
                ("tag", "--model", str(model), str(tmp / "raw"), str(out)),
                ("eval", "--model", str(model), "--corpus", str(tmp / "gold"), "--mode", mode)]
        for argv in runs:
            rc, err = _main(*argv)
            assert rc in (0, 1), (argv, rc, err)
            assert len([l for l in err.splitlines() if l.startswith("segtag:")]) == rc, err
            written = {"train": model, "tag": out}.get(argv[0])
            assert written is None or written.exists() == (rc == 0), (argv, err)
