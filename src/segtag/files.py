"""Reading inputs and replacing output files.

Every input file is read by `read_bytes`. Every text input (config, corpus
and embedding files, raw text) is decoded by `decoded`, a file through
`read_text`, and every regular output file (a model, tagged text) is written
by `replace_file`.
"""
from __future__ import annotations

import contextlib
import io
import os
import shutil
import stat


def decoded(data, name):
    """The lines of UTF-8 bytes read from the input called name, as
    open(path, encoding="utf-8-sig") yields them whatever the locale: a
    leading byte-order mark dropped, and CR LF or CR ending a line as LF.

    A byte that is not UTF-8 is a ValueError naming the input and its line.
    """
    try:
        data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        before = e.object[:e.start]
        lineno = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise ValueError(f"{name} line {lineno}: not UTF-8 "
                         f"(byte 0x{e.object[e.start]:02x}: {e.reason})") from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")


def read_bytes(path, what):
    """The bytes of the file at path. A file that cannot be read is an
    OSError naming what it holds and path."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise OSError(f"cannot read {what} from {path}: [Errno {e.errno}] {e.strerror}") from e


def read_text(path, what):
    """The lines of the UTF-8 text file at path, read by `read_bytes` and
    checked by `decoded`."""
    return decoded(read_bytes(path, what), path)


def replace_file(path, what, *chunks):
    """Write the byte chunks to a temporary file beside path and rename it
    onto path, so a failed write leaves path as it was. An existing file
    keeps its mode, and a symbolic link is written through. A path that
    exists and is not a regular file (a device, a pipe) is written in place.
    A failure is an OSError naming what is written and path.
    """
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"     # in target's directory, so os.replace renames it
    try:
        if not _regular_or_missing(path):
            with open(path, "wb") as f:
                f.writelines(chunks)
            return
        with open(tmp, "xb") as f:
            try:
                f.writelines(chunks)
                f.close()
                with contextlib.suppress(FileNotFoundError):
                    shutil.copymode(target, tmp)
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
    except OSError as e:
        raise OSError(f"cannot write {what} to {path}: {e}") from e


def _regular_or_missing(path):
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return True
