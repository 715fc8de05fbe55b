"""Joint character-level word segmentation and POS tagging.

A from-scratch numpy implementation: embeddings feed n-gram convolutions,
k-max pooling, a highway layer and a (bi)directional LSTM; per-position tag
scores plus a learned transition matrix form a lattice decoded with Viterbi
and trained with a max-margin criterion.

Importing the package tunes glibc's allocator once for the whole process
(`_keep_freed_heap`), so that the arrays each tagging or training chunk
frees are reused by the next chunk instead of being returned to the kernel
and faulted back in page by page.
"""
import ctypes

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1      # glibc <malloc.h>
_M_MMAP_THRESHOLD = -3
_MIB = 1 << 20


def _keep_freed_heap():
    """Serve blocks of up to 32 MiB from the heap, and trim the heap only when
    more than 64 MiB at its top are free.

    With glibc's defaults a block of a few MB gets its own mmap, returned to
    the kernel when freed, and the heap top is trimmed once a free leaves a
    few MB there, so every chunk re-faults the arrays the chunk before it
    freed. 32 MiB is the most glibc's own sliding mmap threshold reaches on a
    64-bit system; larger blocks still get their own mmap and go back to the
    kernel when freed. The trim threshold caps the freed memory the process
    keeps. Neither setting changes any arithmetic. Where the C library has no
    mallopt (macOS, Windows) this does nothing; musl's mallopt ignores it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):    # no C library, or no mallopt in it
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 * _MIB)
    mallopt(_M_TRIM_THRESHOLD, 64 * _MIB)


_keep_freed_heap()
