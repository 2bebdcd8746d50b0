"""Stable label hashing: deterministic across processes and versions.

Builtin ``hash`` is salted per interpreter (``PYTHONHASHSEED``), so any
identifier derived from it differs between the processes of a
multi-process fabric and between reruns — exactly the failure mode a
seed-deterministic system cannot tolerate.  Every place the repo needs
"a number (or short tag) derived from a name" goes through this module
instead: SHA-256 of the UTF-8 label, truncated.

Used by the sweep runner (per-point seed offsets that survive point
reordering) and by the fabric (cell ids and the fabric-wide lease
namespace, which must agree between the broker process and every cell
process it spawns).
"""

from __future__ import annotations

import hashlib

__all__ = ["label_digest", "label_hash", "label_tag"]


def label_digest(label: str) -> bytes:
    """The 32-byte SHA-256 digest of ``label`` (UTF-8)."""
    return hashlib.sha256(label.encode("utf-8")).digest()


def label_hash(label: str, *, bits: int = 32) -> int:
    """A stable nonnegative integer derived from ``label``.

    Truncates the SHA-256 digest to ``bits`` bits (1..256, default 32
    — the historical sweep-seed width).  The same label yields the
    same value in every process on every Python version.
    """
    if not 1 <= bits <= 256:
        raise ValueError(f"bits must be in [1, 256], got {bits}")
    n_bytes = (bits + 7) // 8
    value = int.from_bytes(label_digest(label)[:n_bytes], "big")
    return value >> (n_bytes * 8 - bits)


def label_tag(label: str) -> str:
    """A short stable hex tag for ``label``: eight hex characters.

    The fabric names cells with these: ``label_tag("omega-32#3")`` is
    identical in the broker and in the cell process it addresses, so
    ``cell_id:lease_id`` lease names are consistent fabric-wide.
    """
    return label_digest(label).hex()[:8]
