"""Importing segtag keeps freed heap memory in the process (glibc only): a
tagging pass or training epoch repeated on a warm heap reuses the arrays the
pass before it freed instead of faulting fresh pages in."""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Tags ~2,600 toy characters three times and trains two epochs on them, from
# a fresh process so the heap starts empty; prints the minor page faults of
# each pass.
SCRIPT = """
import json, resource
from segtag import corpus as cp, training as tr
from segtag.encoder import EncoderConfig
from segtag.model import Model
from segtag.toydata import toy_corpus

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

def counted(run):
    before = faults()
    run()
    return faults() - before

sents = toy_corpus(100, seed=4, min_words=10, max_words=20)
vocab, tagset = cp.build_vocab_and_tagset(sents)
model = Model(EncoderConfig(), vocab, tagset, seed=1)
chars = [s.chars for s in sents]
tag = [counted(lambda: model.tag_batch(chars)) for _ in range(3)]
train = [counted(lambda: tr.train_epoch(sents, model, tr.TrainConfig(), epoch=e))
         for e in range(2)]
print(json.dumps({"chars": sum(map(len, chars)), "tag": tag, "train": train}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's allocator only")
def test_repeated_passes_do_not_refault_the_heap():
    # at glibc's defaults a repeated pass here takes 0-3 minor faults
    # (tagging) and ~5,100 (training); with the settings, 0-3. Here only the
    # training half needs them (a repeated in-process segtag eval does too,
    # see README). One BLAS thread, as in the benchmark.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert 2000 <= counts["chars"] <= 3000, counts
    repeated = counts["tag"][1:] + counts["train"][1:]
    assert max(repeated) < 200, counts
