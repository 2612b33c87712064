"""The one file writer: checkpoints, metrics, the vocabulary, reports and
JSONL all go through ``atomic_write``, so a crash mid-write never leaves a
truncated file behind."""

import os
import tempfile


def atomic_write(content, path):
    """Write ``content`` (str, stored as UTF-8, or bytes) to ``path``: a temp
    file in the target directory, then a rename over ``path``. The directory
    must exist."""
    if isinstance(content, str):
        content = content.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(content)
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # open()'s mode for a new file; mkstemp's is 0o600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
