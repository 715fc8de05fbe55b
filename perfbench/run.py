"""The segtag benchmark: characters per second for tagging and for training.

    python3 perfbench/run.py                    # every workload, tracing off
    python3 perfbench/run.py --trace 1          # every workload, per-layer numbers
    python3 perfbench/run.py --workload tag_toy --seed 3 --seconds 20 --trace 0

Workloads, and why each is in the set. ``BENCHMARK.json`` gates tag_toy and
train_toy only; tag_wide runs the same way on request but is left out of the
gated set, see below.

* tag_toy: ``segtag eval`` on 100 toy-language sentences of 10-20 words
  (~26 characters, 12 joint tags). Short sentences make per-sentence fixed
  costs (vocabulary lookup, tape construction, Model dispatch, span decoding)
  weigh most; Viterbi over 12 tags is a small share.
* tag_wide: ``segtag eval`` on 40 sentences of 150-250 characters from a
  600-character, 128-tag language with constrained transitions. Long
  sentences stretch the per-step LSTM loop, and n*|T|^2 makes Viterbi and the
  masked transitions matter. Not gated: a 200-character sentence builds a
  tape of ~6,600 tensors whose reference cycles outlive the young GC
  generations, so about half of each pass is full (generation 2) collections.
  That pointer-chasing work is bound by memory latency, which other tenants
  of a shared host move: on a 2-vCPU VM the collector's share of one pass
  swung from 0.54 s to 2.16 s within a minute while the rest of the pass
  stayed within 1.31-1.69 s, and the chars_per_s of ten 30-second runs on
  different seeds had an interquartile range of up to 31% of the median.
  tag_toy and train_toy reach every module tag_wide does, with less of the
  collector in their time; only the masked-transition (constrained) branch
  of ``lattice`` is tag_wide's alone.
* train_toy: ``training.train_epoch`` with ``TrainConfig()`` defaults, one
  epoch over 100 toy sentences from a fresh model, cycling through four
  initialization seeds. Every sentence violates the margin in a first epoch,
  so each one runs forward, loss-augmented Viterbi, backward and its share of
  the AdaGrad updates.

All models use the published widths (d=50, h=100, Q=5, l_q=100, BLSTM). The
tag workloads use the committed models in ``perfbench/models`` (see
``make_models.py``); inputs are generated from ``--seed`` into
``perfbench/out``. The process pins OpenBLAS to one thread before numpy loads.

With ``--trace 0`` a run reports the end-to-end metrics:

* chars_per_s: input characters per second of the pass at the 90th
  percentile of throughput (one pass in ten is faster). Other tenants of a
  shared host slow the memory-bound part of a pass, chiefly the garbage
  collection of autograd tapes, by up to 4x for stretches of 5-50 seconds,
  so the median pass depends on when a run happened; the fast tail is the
  program when the host disturbs it least. Passes of tag_toy and train_toy
  last 0.5-1 s, so a run has dozens of them. The median and quartiles are
  printed too.
* setup_s: median of set-ups timed one after each timed pass (and one
  before the first), so that they span the run as the passes do and a
  stretch of host contention moves a few of them, not all. Each starts
  after a full garbage collection, as set-up in a fresh process would, so
  the previous pass's tapes are not collected on its clock. Tag workloads:
  ``modelfile.load`` plus parsing the gold file. train_toy: parsing the
  corpus, ``build_vocab_and_tagset`` and ``Model(...)``.
* peak_rss_mb: peak resident set size of the process.
* joint_f1: joint F1 from the ``segtag eval`` report of the workload's
  reference model on its gold sentences (for train_toy: the toy model on the
  training corpus; a one-epoch model scores near 0).

With ``--trace 1`` half the time runs untraced and half with every public
entry point of ``segtag.*`` rebound to a timing wrapper (``spans.py``); the
run reports per-layer self time per input character (``python.gc`` is the
time in cyclic garbage collections, taken out of the spans they interrupted),
exact counts, and the tracing overhead, and writes every span to
``perfbench/out``.

Output checks count as failed operations: the report's gold word count equals
the generator's, ``segtag tag`` output covers every input character and
scores the same F1 as ``segtag eval``, F1 stays above a floor no untrained
model reaches, and after each training epoch the loss and every parameter are
finite (a NumericError is a failure too). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)   # read when numpy loads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import segtag  # noqa: E402

if not Path(segtag.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"segtag must come from {SRC}, not {segtag.__file__}")

from segtag import cli  # noqa: E402
from segtag import corpus as cp  # noqa: E402
from segtag import evaluation as ev  # noqa: E402
from segtag import modelfile as mf  # noqa: E402
from segtag import training as tr  # noqa: E402
from segtag.autograd import NumericError  # noqa: E402
from segtag.encoder import EncoderConfig  # noqa: E402
from segtag.model import Model  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

OUT = HERE / "out"
MODELS = HERE / "models"
WORKLOADS = ("tag_toy", "tag_wide", "train_toy")
MIN_PASSES = 3
SETUP_REPEATS = 15
TRAIN_INITS = (1, 2, 3, 4)
JOINT_F1_FLOOR = 0.9

END_TO_END_UNITS = {"chars_per_s": "chars/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "joint_f1": "ratio"}
PER_CHAR_SPANS = ("encoder.lstm", "encoder.kmax", "encoder.conv", "encoder.highway",
                  "encoder.embed", "autograd.backward", "lattice.viterbi",
                  "lattice.emission", "lattice.loss_aug_viterbi", "lattice.path_terms",
                  "training.update", "training.glue", "corpus.encode",
                  "evaluation.decode", "evaluation.score", "model.glue", "python.gc")
PER_CALL_SPANS = {"modelfile.load_s": "modelfile.load", "corpus.parse_s": "corpus.parse",
                  "corpus.vocab_s": "corpus.vocab", "model.init_s": "model.init"}
PER_LAYER_UNITS = {
    **{f"{name}_us": "us/char" for name in PER_CHAR_SPANS},
    **{metric: "s" for metric in PER_CALL_SPANS},
    "training.update_calls": "1/epoch",
    "training.violation_ratio": "ratio",
    "training.loss": "hinge",
    "autograd.tensors_per_char": "1/char",
    "trace.unattributed_us": "us/char",
    "trace.overhead_ratio": "ratio",
}
STATS_UNITS = {"train_loss": "hinge", "violation_ratio": "ratio"}


class Phases:
    """Operations attempted and failed, per phase of a run."""

    def __init__(self):
        self.counts = {}

    def add(self, phase, attempted, failed=0):
        a, f = self.counts.get(phase, (0, 0))
        self.counts[phase] = (a + attempted, f + failed)

    def check(self, phase, ok, what):
        self.add(phase, 1, 0 if ok else 1)
        if not ok:
            print(f"check failed: {what}", file=sys.stderr)

    @property
    def attempted(self):
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self):
        return sum(f for _, f in self.counts.values())


def blas_info():
    """OpenBLAS version and the thread count it runs with, asked of the library."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads_pinned": BLAS_THREADS, "blas_threads_runtime": threads}


def environment():
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, **blas_info()}


def quiet_cli(argv):
    """segtag.cli.main with its standard output captured: (exit code, text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def parse_report(text):
    """{mode: (P, R, F, correct, gold, pred)} from a ``segtag eval`` report."""
    rows = {}
    for line in text.splitlines():
        mode, *fields = line.split("\t")
        rows[mode] = tuple(float(x) for x in fields[:3]) + tuple(int(x) for x in fields[3:])
    return rows


def eval_pass(model_path, gold_path, n_words):
    """One ``segtag eval``: (seconds, ok, joint F1)."""
    start = time.perf_counter()
    code, text = quiet_cli(["eval", "--model", str(model_path), "--corpus", str(gold_path)])
    seconds = time.perf_counter() - start
    joint = parse_report(text).get("joint") if code == 0 else None
    ok = joint is not None and joint[4] == n_words
    if not ok:
        print(f"eval of {gold_path.name} failed: exit {code}, report {text!r}", file=sys.stderr)
    return seconds, ok, joint[2] if joint else 0.0


def measure(run_pass, seconds, multiple=1):
    """Call run_pass(i) -> (seconds, ok) until `seconds` have gone by, at least
    MIN_PASSES times and a multiple of `multiple` times; a pass that raises
    counts as failed. Returns (pass seconds, passes failed)."""
    samples, failed = [], 0
    start = time.perf_counter()
    while (len(samples) < MIN_PASSES or len(samples) % multiple
           or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        try:
            dt, ok = run_pass(len(samples))
        except Exception:
            traceback.print_exc()
            dt, ok = time.perf_counter() - t0, False
        samples.append(dt)
        failed += not ok
    return samples, failed


class Workload:
    """Sentences written to a gold file; subclasses time one pass over them."""

    multiple = 1    # passes come in multiples of this

    def __init__(self, name, sentences):
        self.name = name
        self.sentences = sentences
        self.n_chars = wl.n_chars(sentences)
        self.n_words = wl.n_words(sentences)
        self.gold = OUT / f"{name}.gold"
        wl.write_gold(self.gold, sentences)

    def pass_stats(self):
        return {}


class TagWorkload(Workload):
    """``segtag eval`` over a seeded gold file with a committed model."""

    def __init__(self, name, lang, sentences):
        super().__init__(name, sentences)
        self.model_path = MODELS / f"{lang}.model"
        self.raw = OUT / f"{name}.raw"
        wl.write_raw(self.raw, sentences)
        self.tagged = []
        self.f1 = 0.0

    def setup(self):
        mf.load(self.model_path)
        with open(self.gold, encoding="utf-8") as f:
            cp.parse_tagged_corpus(f)

    def warm_up(self, phases):
        """Run ``segtag tag`` on the raw text and check that each output line
        covers its input."""
        tagged = OUT / f"{self.name}.tagged"
        code, _ = quiet_cli(["tag", "--model", str(self.model_path), str(self.raw), str(tagged)])
        lines = tagged.read_text(encoding="utf-8").splitlines() if code == 0 else []
        covered = len(lines) == len(self.sentences)
        phases.check("checks", covered, f"segtag tag exit {code}, {len(lines)} lines")
        for i, (line, sentence) in enumerate(zip(lines, self.sentences)):
            words = "".join(token[:token.rfind("/")] for token in line.split())
            ok = words == "".join(w for w, _ in sentence)
            phases.check("checks", ok, f"tagged sentence {i} does not cover its characters")
            covered = covered and ok
        if covered:
            self.tagged = lines

    def joint_f1(self, phases):
        """The F1 of the ``segtag eval`` passes, checked against the F1 of the
        ``segtag tag`` output."""
        tag_f1 = -1.0
        if self.tagged:
            with open(self.gold, encoding="utf-8") as f:
                gold = [ev.decode_tags_to_words(s.tags) for s in cp.parse_tagged_corpus(f)]
            pred = [ev.decode_tags_to_words(s.tags) for s in cp.parse_tagged_corpus(self.tagged)]
            tag_f1 = ev.score_prf(gold, pred)[2]
        phases.check("checks", round(tag_f1, 4) == self.f1,
                     f"segtag tag scores F1 {tag_f1:.4f}, segtag eval {self.f1:.4f}")
        return self.f1

    def timed_pass(self, region):
        def run(_):
            with region():
                seconds, ok, self.f1 = eval_pass(self.model_path, self.gold, self.n_words)
            return seconds, ok

        return run


class TrainWorkload(Workload):
    """One ``train_epoch`` from a fresh model per pass, cycling TRAIN_INITS."""

    multiple = len(TRAIN_INITS)

    def __init__(self, name, sentences):
        super().__init__(name, sentences)
        self.cfg = EncoderConfig()
        self.train_cfg = tr.TrainConfig()
        self.losses = {}
        self.violations = {}

    def setup(self):
        with open(self.gold, encoding="utf-8") as f:
            self.corpus = cp.parse_tagged_corpus(f)
        self.vocab, self.tagset = cp.build_vocab_and_tagset(self.corpus)
        Model(self.cfg, self.vocab, self.tagset, seed=TRAIN_INITS[0])

    def warm_up(self, phases):
        _, ok = self.timed_pass(contextlib.nullcontext)(0)
        phases.check("checks", ok, "warm-up epoch")

    def joint_f1(self, phases):
        """Joint F1 of the toy reference model on the training corpus."""
        _, ok, f1 = eval_pass(MODELS / "toy.model", self.gold, self.n_words)
        phases.check("checks", ok, "segtag eval report")
        return f1

    def timed_pass(self, region):
        def run(i):
            init = TRAIN_INITS[i % len(TRAIN_INITS)]
            model = Model(self.cfg, self.vocab, self.tagset, seed=init)
            with region():
                start = time.perf_counter()
                try:
                    stats = tr.train_epoch(self.corpus, model, self.train_cfg, epoch=1)
                except NumericError:
                    traceback.print_exc()
                    return time.perf_counter() - start, False
                seconds = time.perf_counter() - start
            self.losses[init] = stats.mean_loss
            self.violations[init] = stats.violations / len(self.corpus)
            finite = np.isfinite(stats.mean_loss) and all(
                np.all(np.isfinite(p.data)) for _, p in model.parameters())
            if not finite:
                print(f"init {init}: non-finite loss or parameters after the epoch",
                      file=sys.stderr)
            return seconds, bool(finite)

        return run

    def pass_stats(self):
        """Mean over initializations of the epoch's hinge loss and of the
        share of sentences that violated the margin (and so ran backward)."""
        if not self.losses:
            return {}
        return {"train_loss": statistics.fmean(self.losses.values()),
                "violation_ratio": statistics.fmean(self.violations.values())}


def make_workload(name, seed):
    OUT.mkdir(exist_ok=True)
    if name == "tag_toy":
        return TagWorkload(name, "toy", wl.toy_sentences(100, seed))
    if name == "tag_wide":
        return TagWorkload(name, "wide", wl.wide_sentences(40, seed))
    return TrainWorkload(name, wl.toy_sentences(100, seed))


def timed_setups(workload, phases, region=contextlib.nullcontext, repeats=SETUP_REPEATS):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            with region():
                workload.setup()
            ok = True
        except Exception:
            traceback.print_exc()
            ok = False
        samples.append(time.perf_counter() - start)
        phases.add("setup", 1, 0 if ok else 1)
    return samples


def timed_passes(workload, seconds, phases, region=contextlib.nullcontext, after_pass=None):
    run_pass = workload.timed_pass(region)

    def run(i):
        result = run_pass(i)
        if after_pass is not None:
            after_pass()
        return result

    samples, failed = measure(run, seconds, workload.multiple)
    per_pass = len(workload.sentences)
    phases.add("passes", per_pass * len(samples), per_pass * failed)
    return [workload.n_chars / s for s in samples]


def fast_tail(throughputs):
    """The 90th percentile of per-pass throughputs."""
    return statistics.quantiles(throughputs, n=10)[-1]


def describe(name, values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"{name} {statistics.median(values):.6g} {unit}  "
            f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})")


def end_to_end(workload, args, phases):
    setups = timed_setups(workload, phases, repeats=1)

    def clean_setup():
        gc.collect()
        setups.extend(timed_setups(workload, phases, repeats=1))

    workload.warm_up(phases)
    cps = timed_passes(workload, args.seconds, phases, after_pass=clean_setup)
    f1 = workload.joint_f1(phases)
    phases.check("checks", f1 >= JOINT_F1_FLOOR, f"joint F1 {f1:.4f} < {JOINT_F1_FLOOR}")
    metrics = {"chars_per_s": fast_tail(cps), "setup_s": statistics.median(setups),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "joint_f1": f1}
    print(f"chars_per_s {metrics['chars_per_s']:.6g} chars/s  (90th percentile of "
          f"{len(cps)} passes of {workload.n_chars} chars)")
    print(describe("chars_per_s_passes", cps, "chars/s"))
    print(describe("setup_s", setups, "s"))
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    print(f"joint_f1 {f1:.4f} ratio")
    for key, value in workload.pass_stats().items():
        print(f"{key} {value:.6g} {STATS_UNITS[key]}")
    return metrics, {"chars_per_s": cps, "setup_s": setups}


def per_layer(workload, args, phases):
    setup_tracer, tracer = spans.Tracer(), spans.Tracer()
    timed_setups(workload, phases, setup_tracer.installed)
    workload.warm_up(phases)
    plain = timed_passes(workload, args.seconds / 2, phases)
    traced = timed_passes(workload, args.seconds / 2, phases, tracer.installed)
    wall = sum(workload.n_chars / c for c in traced)
    chars = workload.n_chars * len(traced)
    own = tracer.self_times()
    us = 1e6 / chars
    metrics = {f"{name}_us": own.get(name, 0.0) * us for name in PER_CHAR_SPANS}
    for metric, name in PER_CALL_SPANS.items():
        calls = setup_tracer.durations(name) + tracer.durations(name)
        metrics[metric] = statistics.median(calls) if calls else 0.0
    stats = workload.pass_stats()
    epochs = len(traced) if isinstance(workload, TrainWorkload) else 0
    metrics["training.update_calls"] = (len(tracer.durations("training.update")) / epochs
                                        if epochs else 0.0)
    metrics["training.violation_ratio"] = stats.get("violation_ratio", 0.0)
    metrics["training.loss"] = stats.get("train_loss", 0.0)
    metrics["autograd.tensors_per_char"] = tracer.tensors / chars
    metrics["trace.unattributed_us"] = (wall - sum(own.values())) * us
    metrics["trace.overhead_ratio"] = fast_tail(traced) / fast_tail(plain)
    tracer.dump(OUT / f"spans-{workload.name}-seed{args.seed}.json")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {PER_LAYER_UNITS[name]}")
    return metrics, {"chars_per_s_untraced": plain, "chars_per_s_traced": traced}


def run_one(args):
    env = environment()
    print(f"# {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    workload = make_workload(args.workload, args.seed)
    phases = Phases()
    measure_fn = per_layer if args.trace else end_to_end
    metrics, samples = measure_fn(workload, args, phases)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for phase, (attempted, failed) in phases.counts.items():
        print(f"phase {phase}: attempted {attempted} failed {failed}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "phases": phases.counts,
              "samples": samples, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": phases.failed == 0,
        "attempted": phases.attempted,
        "failed": phases.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in a fresh process, so peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
        if not result.get("correct"):
            print(f"{name}: FAILED (exit {done.returncode})")
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
