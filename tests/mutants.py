"""Planted defects, and the tests that must catch each one.

Each entry names a file, an exact text in it, the text that replaces it, and
the tests expected to fail once it is replaced. For each entry the runner
exports ``HEAD`` with ``git archive`` into a temporary directory, applies the
entry there, and runs only that entry's tests against the export's ``src``:

    python tests/mutants.py

A mutant is killed only when pytest exits 1 (tests failed); exit 0 means it
survived, and any other exit code is an error. The runner exits 0 only when
every mutant is killed. The tier-1 suite checks that each entry's old text
occurs exactly once in its file, so an entry cannot silently stop applying.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the repository root
    old: str        # occurs exactly once in path
    new: str
    tests: tuple    # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("word keys without the sentence-end break",
           "src/segtag/evaluation.py",
           "last[np.cumsum(lengths) - 1] = True",
           "None",
           ("tests/test_evaluation.py::TestWordKeys",)),
    Mutant("goes_on without the POS test",
           "src/segtag/evaluation.py",
           "opens[:, None] & continues & (pos[:, None] == pos))",
           "opens[:, None] & continues)",
           ("tests/test_evaluation.py::TestDecode", "tests/test_evaluation.py::TestWordKeys",
            "tests/test_lattice.py::TestBmesMask")),
    Mutant("Viterbi ties broken toward the largest index",
           "src/segtag/lattice.py",
           "cand.argmax(axis=2, out=ptr)",
           "np.subtract(n_tags - 1, cand[:, :, ::-1].argmax(axis=2), out=ptr)",
           ("tests/test_lattice.py::TestViterbi",
            "tests/test_batching.py::test_packed_viterbi_equals_brute_force_on_masked_lattices")),
    Mutant("backpointers stored as int8",
           "src/segtag/lattice.py",
           "np.min_scalar_type(n_tags - 1)",
           "np.int8",
           ("tests/test_lattice.py::TestViterbi::test_wide_tag_sets_match_brute_force",)),
    Mutant("_packed_steps: reversed steps one position off",
           "src/segtag/autograd.py",
           "step = size - 1 - pos if reverse else pos",
           "step = size - pos if reverse else pos",
           ("tests/test_batching.py::TestRaggedLayers",)),
    Mutant("arc_count_diff counts the arcs across sentence boundaries",
           "src/segtag/lattice.py",
           "within[np.cumsum(_check_lengths(lengths, len(path)))[:-1] - 1] = 0",
           "within[np.cumsum(_check_lengths(lengths, len(path)))[:-1] - 1] = 1",
           ("tests/test_lattice.py::TestPathDiffHelpers",)),
    Mutant("arc_count_diff ignores the transition mask",
           "src/segtag/lattice.py",
           "counts[trans.mask] = 0",
           "counts[trans.mask] += 0",
           ("tests/test_lattice.py::TestMask",)),
    Mutant("the window fold skips zeroing the cross-sentence rows",
           "src/segtag/autograd.py",
           "        block[cut] = 0.0\n        out[src] += block[rows]",
           "        out[src] += block[rows]",
           ("tests/test_batching.py::TestRaggedLayers",)),
    Mutant("an LSTM step multiplier whose o slot holds dc",
           "src/segtag/encoder.py",
           "mult[:m, 1] = dh",
           "mult[:m, 1] = dc",
           ("tests/test_encoder.py::TestLstm", "tests/test_encoder.py::TestBlstm")),
    Mutant("LSTM backward without the forget-gate carry",
           "src/segtag/encoder.py",
           "dc[:m_next] += dc_carry[:m_next]",
           "dc[:m_next] += 0.0",
           ("tests/test_encoder.py::TestLstm", "tests/test_encoder.py::TestBlstm")),
    Mutant("the untaped LSTM reads c_{t-1} from the slot it writes",
           "src/segtag/encoder.py",
           "[t % 2 * m0 for t in range(len(steps))]",
           "[0 for t in range(len(steps))]",
           ("tests/test_encoder.py::TestBlstm::test_untaped_forward_equals_the_taped_forward",)),
    Mutant("the conv bank adds its biases in reverse order",
           "src/segtag/encoder.py",
           "np.concatenate([b.data for _, _, b in filters])",
           "np.concatenate([b.data for _, _, b in filters][::-1])",
           ("tests/test_encoder.py::TestConvFeatureMaps::test_matches_scalar_oracle",)),
    Mutant("k-max ties kept from the highest index down",
           "src/segtag/encoder.py",
           "tied & (np.cumsum(tied, axis=1)",
           "tied & (np.cumsum(tied[:, ::-1], axis=1)[:, ::-1]",
           ("tests/test_encoder.py::TestKmaxPool",)),
    Mutant("k-max skips the partial last block of rows",
           "src/segtag/encoder.py",
           "for lo in range(0, n, step):",
           "for lo in range(0, n - n % step, step):",
           ("tests/test_encoder.py::TestKmaxPool::test_row_blocks_match_oracle",)),
    Mutant("k-max tie detection reads the wrong sorted column",
           "src/segtag/encoder.py",
           "ranked[:, width - k - 1] == kth[:, 0]",
           "ranked[:, width - k - 2] == kth[:, 0]",
           ("tests/test_encoder.py::TestKmaxPool::test_tie_breaks_to_lower_index",
            "tests/test_encoder.py::TestKmaxPool::test_tie_heavy_rows_match_oracle")),
    Mutant("the conv bank and MLP window skip the overflow guard",
           "src/segtag/encoder.py",
           '_guard(f"{what} pre-activation", x.data, [(w.data, b.data) for _, w, b in filters])',
           "None",
           ("tests/test_encoder.py::TestConvFeatureMaps"
            "::test_overflowing_pre_activation_raises_unless_checks_are_off",)),
    Mutant("the highway gate skips the overflow guard",
           "src/segtag/encoder.py",
           '_guard("highway_forward gate pre-activation", xd, [(wd, b.data)])',
           "None",
           ("tests/test_encoder.py::TestHighway::test_overflowing_gate_raises",)),
    Mutant("the LSTM skips the overflow guard",
           "src/segtag/encoder.py",
           '_guard(f"{op} gate pre-activations", x, [(wd[:d], b.data)], wd[d:])',
           "None",
           ("tests/test_encoder.py::TestLstm::test_overflowing_gates_are_a_numeric_error",
            "tests/test_encoder.py::TestLstm"
            "::test_a_pre_activation_whose_half_is_finite_still_overflows")),
    Mutant("the guard ignores its bias",
           "src/segtag/encoder.py",
           "bound = size * w.shape[0] * peak(w) + peak(b) + carried",
           "bound = size * w.shape[0] * peak(w) + carried",
           ("tests/test_encoder.py::TestOverflowGuard"
            "::test_an_admitted_call_has_finite_pre_activations",)),
    Mutant("an LSTM direction reads h_{t-1} from the other direction's columns",
           "src/segtag/encoder.py",
           "back(g, blocks[k])",
           "back(g, blocks[k - 1])",
           ("tests/test_encoder.py::TestBlstm::test_gradients_match_finite_differences",
            "tests/test_autograd.py::test_every_op_matches_finite_differences")),
    Mutant("a tape node keeps its inputs but drops its backward closure",
           "src/segtag/autograd.py",
           "out._prev, out._backward = inputs, backward",
           "out._prev = inputs",
           ("tests/test_autograd.py::test_every_op_matches_finite_differences",)),
    Mutant("mf.load skips the checksum",
           "src/segtag/modelfile.py",
           "if zlib.crc32(body) != stored:",
           "if False:",
           ("tests/test_modelfile.py::TestLoad",)),
    Mutant("the v1/v2 reader does not skip the old POS label list",
           "src/segtag/modelfile.py",
           "if version < 3:     # the POS label list",
           "if False:",
           ("tests/test_modelfile.py::TestVersions",)),
    Mutant("the stored flag bytes of pool and highway swapped",
           "src/segtag/modelfile.py",
           '"pool": (1, 1, 0, 0),\n                "highway": (1, 1, 1, 0)',
           '"pool": (1, 1, 1, 0),\n                "highway": (1, 1, 0, 0)',
           ("tests/test_modelfile.py::TestLoad::test_stack_flag_bytes_are_pinned",
            "tests/test_modelfile.py::TestVersions")),
    Mutant("a width the topology does not read keeps its published value",
           "src/segtag/encoder.py",
           "setattr(self, field, canonical if field in unread else published)",
           "setattr(self, field, published)",
           ("tests/test_encoder.py::TestConfigValidation",
            "tests/test_modelfile.py::TestVersions"
            "::test_stored_widths_the_topology_does_not_read_are_dropped")),
    Mutant("AdaGrad without its epsilon",
           "src/segtag/training.py",
           "root = p.accumulator + ADAGRAD_EPS",
           "root = p.accumulator + 0.0",
           ("tests/test_training.py::TestApplyUpdate",)),
    Mutant("tagging ignores its chunk cap",
           "src/segtag/model.py",
           "self.chunks(sentences, self.tag_chunk_chars,",
           "self.chunks(sentences, float('inf'),",
           ("tests/test_cli.py::TestTagCommand::test_one_viterbi_per_chunk_over_the_whole_input",)),
    Mutant("tagging ignores its sentence cap",
           "src/segtag/model.py",
           "self.tag_chunk_sentences):",
           "math.inf):",
           ("tests/test_batching.py::test_many_short_lines_peak_memory",
            "tests/test_batching.py::test_tagging_chunks_cap_characters_and_sentences")),
    Mutant("training ignores its chunk cap",
           "src/segtag/training.py",
           "batch], LOCAL_CHARS)",
           "batch], float('inf'))",
           ("tests/test_training.py::TestTrainEpoch"
            "::test_memory_is_bounded_by_the_chunk_not_the_batch",)),
    Mutant("training chunks at half the cap",
           "src/segtag/training.py",
           "batch], LOCAL_CHARS)",
           "batch], LOCAL_CHARS // 2)",
           ("tests/test_training.py::TestTrainEpoch::test_a_batch_within_the_cap_is_one_chunk",)),
    Mutant("Model.tagged splits a chunk's path one row off",
           "src/segtag/model.py",
           "(path[lo:hi] for lo, hi",
           "(path[lo + 1:hi + 1] for lo, hi",
           ("tests/test_batching.py::test_batched_tagging_equals_one_sentence_at_a_time",)),
    Mutant("a run of the local stack drops its last sentence",
           "src/segtag/model.py",
           "ids.sentences(first, last)",
           "ids.sentences(first, last - 1)",
           ("tests/test_batching.py::test_batched_tagging_equals_one_sentence_at_a_time",)),
    Mutant("Model.tagged yields inside no_grad()",
           "src/segtag/model.py",
           "(ids))\n            ends = np.cumsum(ids.lengths).tolist()\n            yield",
           "(ids))\n                ends = np.cumsum(ids.lengths).tolist()\n                yield",
           ("tests/test_batching.py::test_tagging_leaves_the_tape_on_between_chunks",)),
    Mutant("a command accepts a config key it does not read",
           "src/segtag/cli.py",
           "if command not in SETTINGS[key].commands:",
           "if False:",
           ("tests/test_cli.py::TestSettingsTable"
            "::test_a_key_the_command_does_not_read_is_refused",)),
    Mutant("config values skip the choices check",
           "src/segtag/cli.py",
           "values[key] = SETTINGS[key].value(value)",
           "values[key] = SETTINGS[key].parse(value)",
           ("tests/test_cli.py::TestSettings::test_a_value_out_of_range_names_the_file_and_line",)),
    Mutant("cmd_tag writes its output in place",
           "src/segtag/cli.py",
           'replace_file(args.output, "output", out.encode("utf-8"))',
           'open(args.output, "w", encoding="utf-8").write(out)',
           ("tests/test_cli.py::TestTagCommand::test_failed_write_keeps_the_previous_output",)),
    Mutant("replace_file renames over a pipe or a device",
           "src/segtag/files.py",
           "if not _regular_or_missing(path):",
           "if False:",
           ("tests/test_cli.py::TestTagCommand"
            "::test_output_that_is_not_a_regular_file_is_written_in_place",)),
)


def export(dest):
    """The files of HEAD, written under dest by a local git archive."""
    archive = subprocess.Popen(["git", "archive", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait():
        raise RuntimeError(f"git archive HEAD exited {archive.returncode}")


def apply(mutant, root):
    path = Path(root) / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.path}: {mutant.old!r} occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant):
    """pytest's exit code for mutant's tests on an export of HEAD with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="segtag-mutant-") as tmp:
        export(tmp)
        apply(mutant, tmp)
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        env.setdefault("HYPOTHESIS_PROFILE", "ci")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main():
    verdicts = {0: "SURVIVED", 1: "killed"}
    bad = 0
    for mutant in MUTANTS:
        code = run(mutant)
        verdict = verdicts.get(code, f"ERROR (pytest exit {code})")
        bad += code != 1
        print(f"{verdict:<24} {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
