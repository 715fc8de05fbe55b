import contextlib
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtag import cli
from segtag import encoder as enc
from segtag import evaluation as ev
from segtag import corpus as cp
from segtag import lattice as lt
from segtag import modelfile as mf
from segtag.autograd import NumericError
from segtag.encoder import RECURRENT_KINDS, STACKS
from segtag.model import Model, length_chunks
from segtag.toydata import toy_corpus
from util import PERFBENCH, char_id, serialize_corpus, small_tagging_caps

TOY_MODEL = PERFBENCH / "models" / "toy.model"


@pytest.fixture()
def toy_files(tmp_path):
    sents = toy_corpus(16, seed=5)
    corpus = tmp_path / "train.txt"
    corpus.write_text(serialize_corpus(sents), encoding="utf-8")
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
        assert (s["lr"], s["margin"], s["l2"], s["batch"]) == (0.2, 0.2, 1e-4, 20)
        assert s["window"] == 1
        # the widths are left to the topology, which reads all three
        assert (s["h"], s["feature_map_sets"], s["feature_map_size"]) == (None, None, None)
        cfg = cli.encoder_config_from(s)
        assert (cfg.d, cfg.h, cfg.feature_map_sets, cfg.feature_maps) == (50, 100, 5, (100,) * 5)
        assert cfg.stack == "highway"
        assert cfg.recurrent == "blstm"
        # dev_fraction left unset takes TrainConfig's
        assert s["dev_fraction"] is None and cli.train_config_from(s).dev_fraction == 0.1

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
            cli.parse_config_file(config, "train")

    def test_comments_and_blanks_ignored(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("\n# comment\nepochs = 4  # trailing\n\n", encoding="utf-8")
        assert cli.parse_config_file(config, "train") == {"epochs": 4}

    def test_a_hash_inside_a_value_is_part_of_it(self, tmp_path):
        # a comment starts a line or follows whitespace; gold#1.txt is one file name
        config = tmp_path / "c.cfg"
        config.write_text("corpus = gold#1.txt\n\t# indented comment\n"
                          "model = m#2.model\t# trailing\n", encoding="utf-8")
        assert cli.parse_config_file(config, "eval") == {"corpus": "gold#1.txt",
                                                         "model": "m#2.model"}

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("\ufeffepochs = 4\nlr = 0.5\n", encoding="utf-8")
        assert cli.parse_config_file(config, "train") == {"epochs": 4, "lr": 0.5}

    def test_bad_boolean_names_the_key_and_line(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("epochs = 2\nbigrams = maybe\n", encoding="utf-8")
        with pytest.raises(cli.CliError) as info:
            cli.parse_config_file(config, "train")
        assert str(info.value) == f"{config}:2: bad value for bigrams: not a boolean: 'maybe'"

    def test_mlp_topology_switch(self):
        args = cli.build_parser().parse_args(
            ["train", "--stack", "mlp", "--window", "5"])
        cfg = cli.encoder_config_from(cli.resolve_settings(args))
        assert cfg.stack == "mlp" and cfg.window == 5
        assert cfg.recurrent == "none"

    def test_stack_setting_is_the_config_stack(self, tmp_path):
        # each encoder.STACKS level by flag and by config key; the flag wins
        config = tmp_path / "c.cfg"
        for stack in STACKS:
            config.write_text(f"stack = {stack}\n", encoding="utf-8")
            for argv in (["--stack", stack], ["--config", str(config)],
                         ["--config", str(config), "--stack", stack]):
                args = cli.build_parser().parse_args(["train", *argv])
                assert cli.encoder_config_from(cli.resolve_settings(args)).stack == stack
        assert cli.encoder_config_from(cli.resolve_settings(
            cli.build_parser().parse_args(["train"]))).stack == "highway"
        config.write_text("stack = cnn\n", encoding="utf-8")
        args = cli.build_parser().parse_args(["train", "--config", str(config)])
        with pytest.raises(cli.CliError) as info:
            cli.encoder_config_from(cli.resolve_settings(args))
        assert str(info.value) == (f"{config}:1: bad value for stack: invalid choice: 'cnn' "
                                   f"(choose from {', '.join(map(repr, STACKS))})")

    def test_stack_and_recurrent_flags_take_the_encoder_choices(self, capsys):
        parser = cli.build_parser()
        for flag, key, choices in (("--stack", "stack", STACKS),
                                   ("--recurrent", "recurrent", RECURRENT_KINDS)):
            for choice in choices:
                assert getattr(parser.parse_args(["train", flag, choice]), key) == choice
            with pytest.raises(SystemExit):
                parser.parse_args(["train", flag, "cnn"])
            err = capsys.readouterr().err
            assert "invalid choice" in err and all(c in err for c in choices)

    def test_a_repeated_key_names_both_lines(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("epochs = 3\nlr = 0.5\nepochs = 5\n", encoding="utf-8")
        with pytest.raises(cli.CliError) as info:
            cli.parse_config_file(config, "train")
        assert str(info.value) == f"{config}:3: config key 'epochs' repeats line 1"

    @pytest.mark.parametrize("command, key, value", [
        ("train", "stack", "cnn"), ("train", "recurrent", "gru"),
        ("train", "optimizer", "adam"), ("eval", "mode", "jiont")])
    def test_a_value_out_of_range_names_the_file_and_line(self, tmp_path, command, key, value):
        # the flag's choices, held to by the config file's value too
        config = tmp_path / "c.cfg"
        config.write_text(f"# {key} out of range\n{key} = {value}\n", encoding="utf-8")
        args = cli.build_parser().parse_args([command, "--config", str(config)])
        with pytest.raises(cli.CliError) as info:
            cli.resolve_settings(args)
        choices = ", ".join(map(repr, cli.SETTINGS[key].choices))
        assert str(info.value) == (f"{config}:2: bad value for {key}: invalid choice: "
                                   f"{value!r} (choose from {choices})")


class _Reads(dict):
    """Settings that record the keys read from them."""

    def __init__(self, settings):
        super().__init__(settings)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _sample_value(key):
    """A value of the setting's type that its parser and choices accept."""
    setting = cli.SETTINGS[key]
    if setting.choices:
        return setting.choices[0]
    return "x" if setting.parse is str else 4 if setting.default is None else setting.default


_COMMANDS = ("train", "tag", "eval")


class TestSettingsTable:
    @pytest.mark.parametrize("command, key", [
        (command, key) for command in _COMMANDS for key, setting in cli.SETTINGS.items()
        if command not in setting.commands])
    def test_a_key_the_command_does_not_read_is_refused(self, tmp_path, command, key):
        config = tmp_path / "c.cfg"
        config.write_text(f"# {command} does not read {key}\n{key} = {_sample_value(key)}\n",
                          encoding="utf-8")
        args = cli.build_parser().parse_args([command, "--config", str(config)])
        with pytest.raises(cli.CliError) as info:
            cli.resolve_settings(args)
        assert str(info.value) == f"{config}:2: segtag {command} does not read config key {key!r}"

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_a_command_reads_every_key_it_declares(self, toy_files, monkeypatch, command):
        corpus, _, tmp = toy_files
        embeddings = tmp / "emb.txt"
        embeddings.write_text("1 4\na 0.1 0.2 0.3 0.4\n", encoding="utf-8")
        raw = tmp / "raw.txt"
        raw.write_text("abcdefg\n", encoding="utf-8")
        model = {"train": tmp / "m.model", "tag": TOY_MODEL, "eval": TOY_MODEL}[command]
        values = {
            "model": model, "seed": 3, "corpus": corpus, "dev": corpus,
            "embeddings": embeddings, "stack": "highway", "recurrent": "blstm",
            "bigrams": "true", "epochs": 1, "batch": 8, "lr": 0.1, "margin": 0.2,
            "l2": 0.0001, "window": 1, "d": 4, "h": 4, "feature_map_sets": 3,
            "feature_map_size": 4, "dev_fraction": 0.1, "optimizer": "sgd", "min_count": 1,
            "bigram_min_count": 2, "finetune_embeddings": "false",
            "observed_tags_only": "true", "constrain_transitions": "true", "mode": "both",
            "per_pos": "true", "strict": "true", "normalize_width": "true"}
        assert set(values) == set(cli.SETTINGS)
        declared = {key for key, setting in cli.SETTINGS.items() if command in setting.commands}
        config = tmp / "every.cfg"
        # dev_fraction is read only without a dev corpus, so dev is left unset
        config.write_text("".join(f"{key} = {values[key]}\n" for key in declared - {"dev"}),
                          encoding="utf-8")
        seen, resolve = [], cli.resolve_settings
        monkeypatch.setattr(cli, "resolve_settings",
                            lambda args: seen.append(_Reads(resolve(args))) or seen[-1])
        argv = [command, "--config", str(config)]
        assert cli.main(argv + ([str(raw), str(tmp / "out.txt")] if command == "tag" else [])) == 0
        assert len(seen) == 1 and set(seen[0]) == declared
        assert seen[0].read == declared

    def test_each_command_keeps_its_flags(self, capsys):
        # generated from the table: a key's flag dashes its underscores
        want = {"train": "--config --model --seed --corpus --dev --embeddings --stack "
                         "--recurrent --bigrams --epochs --batch --lr --margin --l2 --window",
                "tag": "--config --model",
                "eval": "--config --model --corpus --mode --per-pos"}
        for command, flags in want.items():
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args([command, "--help"])
            text = capsys.readouterr().out
            assert set(re.findall(r"--[a-z0-9-]+", text)) == {"--help", *flags.split()}
        assert "--mode {joint,seg,both}" in text


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
        assert "segtag: window=3 needs stack='mlp' (--stack mlp)" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("recurrent", ["lstm", "blstm"])
    def test_mlp_encoder_refuses_a_recurrent_layer(self, toy_files, capsys, recurrent):
        # given as flags, then as config keys
        corpus, config, tmp = toy_files
        mlp_config = tmp / "mlp.cfg"
        mlp_config.write_text(f"stack = mlp\nrecurrent = {recurrent}\n", encoding="utf-8")
        for extra in (["--config", str(config), "--stack", "mlp", "--recurrent", recurrent],
                      ["--config", str(mlp_config)]):
            rc = run_cli("train", "--corpus", str(corpus), "--model", str(tmp / "m.model"), *extra)
            lines = capsys.readouterr().err.splitlines()
            assert rc == 1 and len(lines) == 1
            assert lines[0].startswith("segtag: stack='mlp' (--stack mlp) runs without")
            assert lines[0].endswith(f"recurrent={recurrent!r} (--recurrent)")
            assert not (tmp / "m.model").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--stack", "mlp"], "feature_map_sets=2 (setting feature_map_sets) is not read by "
                             "stack='mlp' with recurrent='none'"),
        (["--recurrent", "none"], "h=8 (setting h) is not read by stack='highway' with "
                                  "recurrent='none'"),
        (["--stack", "embed"], "feature_map_sets=2 (setting feature_map_sets) is not read by "
                               "stack='embed' with recurrent='blstm'"),
    ])
    def test_a_width_the_topology_does_not_read_is_refused(self, toy_files, capsys,
                                                            flags, named):
        # toy_files' config sets h, feature_map_sets and feature_map_size
        corpus, config, tmp = toy_files
        model_path = tmp / "m.model"
        rc = run_cli("train", "--config", str(config), "--corpus", str(corpus),
                     "--model", str(model_path), *flags)
        assert rc == 1
        assert capsys.readouterr().err == f"segtag: {named}; leave it unset\n"
        assert not model_path.exists()

    @pytest.mark.parametrize("line, dev, named", [
        ("dev_fraction = 0.5", True, "dev_fraction=0.5 is not read with a dev corpus (--dev)"),
        ("bigram_min_count = 7", False,
         "bigram_min_count=7 is not read without bigrams (--bigrams)"),
    ], ids=["dev_fraction", "bigram_min_count"])
    def test_a_setting_the_run_does_not_read_is_refused(self, toy_files, capsys,
                                                         line, dev, named):
        corpus, config, tmp = toy_files
        config.write_text(config.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        model_path = tmp / "m.model"
        rc = run_cli("train", "--config", str(config), "--corpus", str(corpus),
                     "--model", str(model_path), *(["--dev", str(corpus)] if dev else []))
        assert rc == 1
        assert capsys.readouterr().err == f"segtag: {named}; leave it unset\n"
        assert not model_path.exists()

    @pytest.mark.parametrize("stack", STACKS)
    @pytest.mark.parametrize("recurrent", [None, "none"])
    def test_each_topology_trains_with_the_widths_it_reads(self, toy_files, stack, recurrent):
        # a config that sets only the widths the topology reads
        corpus, _, tmp = toy_files
        unread = enc.unread_widths(stack, recurrent)
        widths = {"h": 6, "feature_map_sets": 2, "feature_maps": 8}
        config = tmp / "reads.cfg"
        config.write_text("d = 8\nepochs = 1\n" + "".join(
            f"{enc.WIDTHS[field][0]} = {value}\n" for field, value in widths.items()
            if field not in unread), encoding="utf-8")
        model_path = tmp / "m.model"
        flags = ["--stack", stack] + (["--recurrent", recurrent] if recurrent else [])
        assert run_cli("train", "--config", str(config), "--corpus", str(corpus),
                       "--model", str(model_path), *flags) == 0
        saved = mf.load(model_path).cfg
        want = recurrent or ("none" if stack == "mlp" else "blstm")
        assert (saved.stack, saved.recurrent) == (stack, want)
        assert saved.h == (0 if "h" in unread else 6)
        assert saved.feature_maps == (() if "feature_maps" in unread else (8, 8))

    def test_pooled_width_refusal_names_the_settings_and_d(self, toy_files, capsys):
        # pooling restores the embedding width: d, or 3d = 6 with bigrams on
        corpus, _, tmp = toy_files
        config = tmp / "narrow.cfg"
        config.write_text("d = 2\nbigrams = true\nfeature_map_sets = 2\nfeature_map_size = 2\n",
                          encoding="utf-8")
        model_path = tmp / "m.model"
        rc = run_cli("train", "--config", str(config), "--corpus", str(corpus),
                     "--model", str(model_path))
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("segtag: ")
        for part in ("feature_map_sets=2", "feature_map_size", "feature_maps", "4 feature maps",
                     "pooling width 6 = 3d for d=2", "bigrams triple d"):
            assert part in lines[0]
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
        row = model.named["embed.unigram"].data[char_id(model.vocab, "a")]
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
        corpus.write_text(serialize_corpus(toy_corpus(4, seed=5)), encoding="utf-8")
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

    def test_byte_order_mark_is_not_tagged(self, tmp_path):
        fin, fout = tmp_path / "in.txt", tmp_path / "out.txt"
        outputs = []
        for text in ("abcdefg\nkab\n", "\ufeffabcdefg\nkab\n"):
            fin.write_text(text, encoding="utf-8")
            assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 0
            outputs.append(fout.read_text(encoding="utf-8"))
        assert outputs[0] == outputs[1]
        assert "\ufeff" not in outputs[1]

    def test_standard_input_is_read_as_the_input_file_is(self, tmp_path, monkeypatch, capsys):
        # a latin-1 locale codec would read the mark as three characters; the
        # bytes are decoded as UTF-8 with the mark dropped, as a file's are
        fin = tmp_path / "in.txt"
        fin.write_text("abcdefg\nkab\n", encoding="utf-8")
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin)) == 0
        want = capsys.readouterr().out
        for data in (b"abcdefg\nkab\n", b"\xef\xbb\xbfabcdefg\nkab\n"):
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="latin-1")
            monkeypatch.setattr(sys, "stdin", stdin)
            assert run_cli("tag", "--model", str(TOY_MODEL)) == 0
            assert capsys.readouterr().out == want
            assert not stdin.closed

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

    def test_lines_are_tagged_in_chunks_and_written_in_order(self, trained, tmp_path):
        # tagging caps scaled down (the command runs in this process, so the
        # model it loads reads them too): runs of 128 characters, chunks of
        # 512, so that a few thousand characters fill more than eight chunks
        model_path, _ = trained
        model = mf.load(model_path)
        with small_tagging_caps(model, 128, 512):
            cap = model.tag_chunk_chars
            rng = np.random.default_rng(9)
            lines = ["" if i % 7 == 0 else "".join(rng.choice(list("abcdefghijklxy"),
                                                              size=int(rng.integers(1, 40))))
                     for i in range(cap // 2)]
            lines.insert(60, "abcdefghijkl" * (cap // 12 + 1))   # longer than a chunk
            assert len(lines[60]) > cap
            assert sum(map(len, lines)) > 8 * cap
            fin = tmp_path / "in.txt"
            fout = tmp_path / "out.txt"
            fin.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert run_cli("tag", "--model", str(model_path), str(fin), str(fout)) == 0
        got = fout.read_text(encoding="utf-8").split("\n")
        assert got[-1] == "" and len(got) == len(lines) + 1
        rule = ev.word_rule(model.tagset)
        for line, out in zip(lines, got):
            chars = list(line)
            assert out == (cp.format_words(chars, model.tag_ids(chars), rule) if chars else "")

    def test_surrounding_whitespace_is_stripped(self, tmp_path):
        fin = tmp_path / "in.txt"
        fout = tmp_path / "out.txt"
        fin.write_text("  abcde\t\n \t \nfgh \r\n", encoding="utf-8")
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 0
        lines = fout.read_text(encoding="utf-8").split("\n")
        assert lines[1] == "" and len(lines) == 4
        model = mf.load(TOY_MODEL)
        assert lines[0] == cp.format_words(list("abcde"), model.tag_ids(list("abcde")),
                                           ev.word_rule(model.tagset))
        # the tool's own parser reads its output back
        assert [s.chars for s in cp.parse_tagged_corpus(lines)] == [list("abcde"), list("fgh")]

    def test_interior_whitespace_is_refused_naming_the_line(self, tmp_path, capsys):
        fin = tmp_path / "in.txt"
        fin.write_text("abc\nabcde fgh\n", encoding="utf-8")
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(tmp_path / "o.txt")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"segtag: {fin} line 2: raw text holds whitespace")

    def test_refused_line_leaves_no_output(self, tmp_path, capsys):
        # the refused line comes after more than four chunks' worth of lines
        rng = np.random.default_rng(4)
        lines = ["".join(rng.choice(list("abcdefghijkl"), size=360)) for _ in range(40)]
        assert sum(map(len, lines)) > 4 * mf.load(TOY_MODEL).tag_chunk_chars
        fin = tmp_path / "in.txt"
        fin.write_text("\n".join(lines + ["ab cd"]) + "\n", encoding="utf-8")
        fout = tmp_path / "out.txt"
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 1
        assert capsys.readouterr().err.startswith(f"segtag: {fin} line 41: ")
        assert not fout.exists()
        # an existing output file keeps its bytes
        fout.write_bytes(b"kept\n")
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 1
        assert fout.read_bytes() == b"kept\n"

    def test_failed_tagging_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        # 20 lines of 360 characters make three chunks; the second chunk's
        # tagging fails after the first chunk was tagged
        rng = np.random.default_rng(4)
        lines = ["".join(rng.choice(list("abcdefghijkl"), size=360)) for _ in range(20)]
        fin = tmp_path / "in.txt"
        fin.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls, lattice = [], Model.lattice

        def failing(model, ids):
            calls.append(len(ids.lengths))
            if len(calls) == 2:
                raise NumericError("tensor contains NaN/Inf")
            return lattice(model, ids)

        monkeypatch.setattr(Model, "lattice", failing)
        fout = tmp_path / "out.txt"
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 1
        assert capsys.readouterr().err == "segtag: tensor contains NaN/Inf\n"
        assert len(calls) == 2 and not fout.exists()
        # an existing output file keeps its bytes
        fout.write_bytes(b"kept\n")
        calls.clear()
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 1
        assert fout.read_bytes() == b"kept\n"

    def test_failed_write_keeps_the_previous_output(self, tmp_path):
        # a file-size limit of half the output, set in the tagging process
        # only; with SIGXFSZ ignored the write fails with EFBIG
        fin, fout = tmp_path / "in.txt", tmp_path / "out.txt"
        fin.write_text("".join("".join(s.chars) + "\n" for s in toy_corpus(300, seed=2)),
                       encoding="utf-8")
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 0
        before = fout.read_bytes()
        script = (
            "import resource, signal, sys\n"
            "from segtag import cli\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE,\n"
            "                   (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
            "sys.exit(cli.main(sys.argv[2:]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(len(before) // 2), "tag",
                               "--model", str(TOY_MODEL), str(fin), str(fout)],
                              capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"segtag: cannot write output to {fout}: ")
        assert fout.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["in.txt", "out.txt"]

    def test_output_that_is_not_a_regular_file_is_written_in_place(self, tmp_path):
        # a pipe, like /dev/stdout or the /dev/null device, is written to,
        # not renamed over by a regular file
        fin, fout, fifo = tmp_path / "in.txt", tmp_path / "out.txt", tmp_path / "out.fifo"
        fin.write_text("abcdefg\nkab\n", encoding="utf-8")
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fout)) == 0
        want = fout.read_bytes()
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)   # fewer bytes than a pipe holds
        try:
            assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(fifo)) == 0
            assert os.read(reader, 2 * len(want)) == want
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["in.txt", "out.fifo", "out.txt"]

    def test_one_viterbi_per_chunk_over_the_whole_input(self, tmp_path, monkeypatch):
        # lines of mixed length, blank ones among them, worth several chunks
        # and more than four 4,096-character groups: they are sorted and cut
        # over the whole input, not group by group, so each chunk but the last
        # is filled to the cap
        cap = mf.load(TOY_MODEL).tag_chunk_chars
        rng = np.random.default_rng(12)
        lines = ["" if i % 9 == 0 else "".join(rng.choice(list("abcdefghijkl"),
                                                          size=int(rng.integers(3, 120))))
                 for i in range(600)]
        assert sum(map(len, lines)) > max(4 * 4096, 8 * cap)
        fin = tmp_path / "in.txt"
        fin.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls, viterbi = [], lt.viterbi

        def counted(lat):
            calls.append(lat.n)
            return viterbi(lat)

        monkeypatch.setattr(lt, "viterbi", counted)
        assert run_cli("tag", "--model", str(TOY_MODEL), str(fin), str(tmp_path / "o.txt")) == 0
        want = list(length_chunks([len(line) for line in lines if line], cap))
        assert len(calls) == len(want)

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

    def test_byte_order_mark_is_not_a_gold_character(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        reports = []
        for bom in ("", "\ufeff"):
            gold.write_text(bom + "ab/NN cde/NN k/PU\n", encoding="utf-8")
            assert run_cli("eval", "--model", str(TOY_MODEL), "--corpus", str(gold),
                           "--per-pos") == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_overfit_toy_training_set_scores_high(self, tmp_path, capsys):
        # end-to-end: train on the toy corpus, then eval on the same file
        sents = toy_corpus(50, seed=0)
        corpus = tmp_path / "train.txt"
        corpus.write_text(serialize_corpus(sents), encoding="utf-8")
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
        corpus.write_text(serialize_corpus(wide), encoding="utf-8")
        raw = tmp / "wide_raw.txt"
        raw.write_text("".join("".join(s.chars) + "\n" for s in wide), encoding="utf-8")
        folding = tmp / "folding.cfg"
        folding.write_text(config.read_text(encoding="utf-8") + "normalize_width = true\n",
                           encoding="utf-8")
        model_path = tmp / "m.model"
        assert run_cli("train", "--config", str(folding), "--corpus", str(corpus),
                       "--model", str(model_path)) == 0
        assert mf.load(model_path).normalize_width

        only_folding = tmp / "only_folding.cfg"     # tag and eval read no width
        only_folding.write_text("normalize_width = true\n", encoding="utf-8")
        reports, tagged = [], []
        for extra in (["--config", str(only_folding)], []):
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


# the second line of each input holds a byte that is not UTF-8; the file
# starts with a byte-order mark and ends its lines with CR LF
_NOT_UTF8 = {"config": (b"epochs = 1", b"batch = 4\xff"),
             "corpus": (b"ab/NN cde/VV", b"ab/NN c\xffde/VV"),
             "dev": (b"ab/NN cde/VV", b"ab/NN c\xffde/VV"),
             "embeddings": (b"1 8", b"a\xff" + b" 0.5" * 8),
             "gold": (b"ab/NN cde/VV", b"ab/NN c\xffde/VV"),
             "raw": (b"abcde", b"ab\xffcde"),
             "stdin": (b"abcde", b"ab\xffcde")}


@pytest.mark.parametrize("name", list(_NOT_UTF8))
def test_a_byte_that_is_not_utf8_is_refused_naming_its_input_and_line(toy_files, capsys,
                                                                      monkeypatch, name):
    corpus, config, tmp = toy_files
    bad = tmp / "bad.txt"
    data = b"\xef\xbb\xbf" + b"\r\n".join(_NOT_UTF8[name]) + b"\r\n"
    bad.write_bytes(data)
    model, out = tmp / "m.model", tmp / "out.txt"
    train = ["train", "--config", str(config), "--corpus", str(corpus), "--model", str(model)]
    argv = {"config": train[:2] + [str(bad)] + train[3:],
            "corpus": train[:4] + [str(bad)] + train[5:],
            "dev": train + ["--dev", str(bad)],
            "embeddings": train + ["--embeddings", str(bad)],
            "gold": ["eval", "--model", str(TOY_MODEL), "--corpus", str(bad)],
            "raw": ["tag", "--model", str(TOY_MODEL), str(bad), str(out)],
            "stdin": ["tag", "--model", str(TOY_MODEL), "-", str(out)]}[name]
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert cli.main(argv) == 1
    where = "standard input" if name == "stdin" else bad
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("segtag")] == [
        f"segtag: {where} line 2: not UTF-8 (byte 0xff: invalid start byte)"]
    assert not model.exists() and not out.exists()


@pytest.mark.parametrize("name, what", [("config", "config"), ("corpus", "corpus"),
                                        ("dev", "dev corpus"), ("embeddings", "embeddings"),
                                        ("gold", "corpus"), ("raw", "input"),
                                        ("model", "model")])
def test_a_missing_input_is_named_with_what_it_holds(toy_files, capsys, name, what):
    corpus, config, tmp = toy_files
    missing = tmp / "nothere.txt"
    model, out = tmp / "m.model", tmp / "out.txt"
    train = ["train", "--config", str(config), "--corpus", str(corpus), "--model", str(model)]
    argv = {"config": train[:2] + [str(missing)] + train[3:],
            "corpus": train[:4] + [str(missing)] + train[5:],
            "dev": train + ["--dev", str(missing)],
            "embeddings": train + ["--embeddings", str(missing)],
            "gold": ["eval", "--model", str(TOY_MODEL), "--corpus", str(missing)],
            "raw": ["tag", "--model", str(TOY_MODEL), str(missing), str(out)],
            "model": ["eval", "--model", str(missing), "--corpus", str(corpus)]}[name]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("segtag")] == [
        f"segtag: cannot read {what} from {missing}: [Errno 2] No such file or directory"]
    assert not model.exists() and not out.exists()


def test_a_dash_is_a_file_name_for_every_input_but_raw_text(toy_files, capsys, monkeypatch):
    # only tag's raw input reads standard input for "-"; --corpus - is a file
    corpus, _, tmp = toy_files
    (tmp / "-").write_bytes(corpus.read_bytes())
    monkeypatch.chdir(tmp)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"")))
    reports = []
    for path in (str(corpus), "-"):
        assert cli.main(["eval", "--model", str(TOY_MODEL), "--corpus", path]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


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


def _reads_only(config):
    """The drawn settings with recurrent = none under mlp, which runs none,
    and without the widths that the topology does not read, nor
    bigram_min_count without bigrams."""
    if config["stack"] == "mlp":
        config = {**config, "recurrent": "none"}
    unread = [enc.WIDTHS[field][0]
              for field in enc.unread_widths(config["stack"], config["recurrent"])]
    unread += [] if config["bigrams"] else ["bigram_min_count"]
    return {key: value for key, value in config.items() if key not in unread}


_settings = st.fixed_dictionaries({
    "stack": st.sampled_from(STACKS),
    "recurrent": st.sampled_from(RECURRENT_KINDS),
    "bigrams": st.booleans(), "bigram_min_count": st.integers(1, 2),
    "d": st.integers(1, 4), "h": st.integers(1, 4),
    "feature_map_sets": st.integers(1, 3), "feature_map_size": st.integers(2, 6),
    "epochs": st.integers(1, 2), "batch": st.integers(1, 4),
    "dev_fraction": st.sampled_from(["0", "0.3"]),
    "constrain_transitions": st.booleans(), "observed_tags_only": st.booleans(),
    "optimizer": st.sampled_from(["adagrad", "sgd"]),
}).map(_reads_only)
# a line appended to one of the files; each is refused (window = 3 unless
# the stack is mlp)
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
