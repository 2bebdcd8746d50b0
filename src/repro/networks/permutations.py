"""Interstage wiring permutations for the classic multistage networks.

A multistage network's structure is determined by the permutation each
stage boundary applies to its wires.  All functions here map a wire
index ``i`` in ``[0, size)`` to its destination index; ``size`` must be
a power of two except for :func:`identity` and the Clos transposes.
"""

from __future__ import annotations

__all__ = [
    "identity",
    "perfect_shuffle",
    "inverse_shuffle",
    "butterfly",
    "bit_reversal",
    "blockwise",
    "transpose",
    "log2_exact",
]


def log2_exact(size: int) -> int:
    """``log2(size)`` for exact powers of two; raises otherwise."""
    if size <= 0 or size & (size - 1):
        raise ValueError(f"{size} is not a positive power of two")
    return size.bit_length() - 1


def _check_wire(i: int, size: int) -> None:
    """The range check every wiring shares: ``i`` must be in ``[0, size)``."""
    if not 0 <= i < size:
        raise ValueError(f"wire {i} outside [0, {size})")


def identity(i: int, size: int) -> int:
    """The identity wiring (straight wires)."""
    _check_wire(i, size)
    return i


def perfect_shuffle(i: int, size: int) -> int:
    """Stone's perfect shuffle: rotate the index bits left by one.

    ``sigma(i) = 2i mod (N-1)`` for ``0 < i < N-1`` — interleaves the
    two halves of a card deck.  The Omega network applies this before
    every stage.
    """
    n = log2_exact(size)
    _check_wire(i, size)
    return ((i << 1) | (i >> (n - 1))) & (size - 1)


def inverse_shuffle(i: int, size: int) -> int:
    """The inverse (un)shuffle: rotate the index bits right by one."""
    n = log2_exact(size)
    _check_wire(i, size)
    return (i >> 1) | ((i & 1) << (n - 1))


def butterfly(i: int, size: int, k: int) -> int:
    """The k-th butterfly: exchange bit ``k`` with bit 0.

    ``butterfly(i, size, k)`` pairs wires whose indices differ in bit
    ``k`` into adjacent box ports — the wiring of the indirect binary
    n-cube / multistage cube networks.
    """
    n = log2_exact(size)
    if not 0 <= k < n:
        raise ValueError(f"bit {k} outside [0, {n})")
    _check_wire(i, size)
    if k == 0:
        return i
    b0 = i & 1
    bk = (i >> k) & 1
    out = i & ~((1 << k) | 1)
    return out | (b0 << k) | bk


def bit_reversal(i: int, size: int) -> int:
    """Reverse the index bits (the FFT permutation)."""
    n = log2_exact(size)
    _check_wire(i, size)
    out = 0
    for b in range(n):
        out |= ((i >> b) & 1) << (n - 1 - b)
    return out


def blockwise(perm, block: int):
    """Apply ``perm`` independently within consecutive blocks.

    Returns a wiring function ``f(i, size)`` that splits the ``size``
    wires into blocks of ``block`` wires and applies
    ``perm(offset, block)`` inside each — how the baseline and Beneš
    networks recurse into halves.
    """
    def wired(i: int, size: int) -> int:
        if size % block:
            raise ValueError(f"size {size} not a multiple of block {block}")
        base = (i // block) * block
        return base + perm(i - base, block)

    return wired


def transpose(rows: int, cols: int):
    """Matrix-transpose wiring for the Clos network's full bipartite stages.

    Wire ``i = r * cols + c`` (port ``c`` of box ``r``) is sent to
    ``c * rows + r`` (port ``r`` of box ``c``): every box of one stage
    gets exactly one link to every box of the next.
    """
    def wired(i: int, size: int) -> int:
        if size != rows * cols:
            raise ValueError(f"size {size} != {rows}x{cols}")
        r, c = divmod(i, cols)
        return c * rows + r

    return wired
