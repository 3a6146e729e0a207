"""Atomic text-artifact writes (tmp + ``os.replace``).

Every ``figN_*``/``tableN_*`` text artifact — whether written by
``repro reproduce``, ``repro report`` or the benchmark suite — and the
ledger's ``manifest.json``, ``manifest.md`` and ``metrics.jsonl`` (via
:func:`repro.obs.exporters.write_jsonl`) go through
:func:`atomic_write_text`, the same write discipline the spool
and the run cache already use: the content lands in a hidden sibling
temp file and is renamed into place in one ``os.replace``, so an
interrupted regeneration can never leave a truncated artifact behind
for the next reader (or the manifest) to trust.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write *text* to *path* atomically; parents are created.

    The temp name embeds the pid so concurrent writers (two benchmark
    shards regenerating the same artifact) never collide on the temp
    file; the last ``os.replace`` wins with a complete file either way.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    temp.write_text(text)
    os.replace(temp, path)
    return path
