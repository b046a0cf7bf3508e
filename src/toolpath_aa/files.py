"""Output files that appear whole or not at all.

Each file is written beside its target under a temporary name and moved
into place with `os.replace`, so a failed run leaves an existing target
as it was and no half-written file behind. Files opened on one
`contextlib.ExitStack` move only once every one is written, as the stack
unwinds. There is no fsync: this guards against a failed or killed run,
not against a power loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def replace_atomically(path, newline=None, binary=False):
    """Yield a text file (a binary one if `binary`) that replaces `path`
    when the block exits cleanly; on an exception the temporary file is
    removed."""
    head, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fh = (open(tmp, "xb") if binary
              else open(tmp, "x", encoding="utf-8", newline=newline))
    except OSError as exc:
        exc.filename = path     # name the target, not its temporary name
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
