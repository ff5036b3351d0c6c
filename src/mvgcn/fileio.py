"""Atomic artifact writes.

A file is written to a temporary sibling in the same directory and moved
over its target with ``os.replace`` only once writing has finished. A reader
sees either the previous file or the complete new one, never a partial
write, and a failure part-way through leaves the previous file untouched.
"""

import os
import threading
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, newline=None, binary=False):
    """Handle, text (UTF-8) or ``binary``, whose contents replace ``path``
    when the block exits normally; on any exception the temporary file is
    removed."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        if binary:
            handle = open(tmp, "wb")
        else:
            handle = open(tmp, "w", encoding="utf-8", newline=newline)
        with handle as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
