"""What a run hands back: its exit codes, and files written whole or not at all."""

import os
from pathlib import Path

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_CONFIG = 3
EXIT_FAILED = 4


def write_atomic(path: Path, text: str) -> None:
    """Write a temporary sibling, then rename it over ``path``: no reader sees a partial file."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")  # output names are unique per batch
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
