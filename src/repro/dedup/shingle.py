"""Tokenized w-shingling of Verilog text.

Shingles are overlapping windows of ``w`` whitespace-separated tokens,
computed on comment-stripped, whitespace-normalized text so that purely
cosmetic edits (reindentation, fork comments) do not defeat duplicate
detection — the same normalization VeriGen-style dedup relies on.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Set

import numpy as np

from repro.utils.textnorm import strip_comments

DEFAULT_SHINGLE_WIDTH = 5


def _tokens(text: str) -> List[str]:
    # str.split() already splits on whitespace runs and drops the ends,
    # with the same notion of whitespace as normalize_whitespace's ``\s``,
    # so normalizing first would not change the tokens.
    return strip_comments(text).split()


def shingles(text: str, width: int = DEFAULT_SHINGLE_WIDTH) -> Set[str]:
    """The set of w-token shingles of ``text``."""
    if width < 1:
        raise ValueError("shingle width must be >= 1")
    tokens = _tokens(text)
    if not tokens:
        return set()
    if len(tokens) <= width:
        return {" ".join(tokens)}
    # zip over the width shifted views yields each window as a tuple.
    return set(map(" ".join, zip(*[tokens[i:] for i in range(width)])))


def _stable_hash64(shingle: str) -> int:
    digest = hashlib.blake2b(shingle.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def shingle_hashes(
    text: str,
    width: int = DEFAULT_SHINGLE_WIDTH,
    memo: Optional[Dict[str, int]] = None,
) -> "np.ndarray":
    """64-bit stable hashes of the shingle set, as a sorted numpy array.

    Hashing to integers lets MinHash permutations run vectorized; sorting
    makes the representation canonical for caching and testing.  ``memo``
    maps shingles to their hashes and gains the ones hashed here, so a
    caller hashing many documents can share it and hash each distinct
    shingle once; the values do not depend on it.
    """
    found = shingles(text, width)
    if memo is None:
        memo = {}
    for shingle in found.difference(memo):
        memo[shingle] = _stable_hash64(shingle)
    hashed = np.fromiter(
        map(memo.__getitem__, found), dtype=np.uint64, count=len(found)
    )
    hashed.sort()
    return hashed
