"""MinHash signatures over shingle-hash sets.

Uses the standard family of universal hash permutations
``h_i(x) = (a_i * x + b_i) mod p`` with the Mersenne prime ``p = 2^31 - 1``.
With ``a, b, x < 2^31`` the product ``a*x + b`` stays below ``2^63``, so the
whole permutation evaluates exactly in vectorized uint64 arithmetic.  The
expected fraction of matching signature components between two documents
equals their Jaccard similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dedup.shingle import DEFAULT_SHINGLE_WIDTH, shingle_hashes
from repro.utils.rng import DeterministicRNG

_PRIME = np.uint64((1 << 31) - 1)
DEFAULT_NUM_PERMUTATIONS = 128


@dataclass(frozen=True)
class MinHashSignature:
    """Signature vector for one document."""

    values: np.ndarray  # shape (num_permutations,), dtype uint64

    def __len__(self) -> int:
        return len(self.values)


def estimate_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    """Estimated Jaccard similarity = fraction of equal components."""
    if len(a) != len(b):
        raise ValueError("signatures have different permutation counts")
    if len(a) == 0:
        return 1.0
    return float(np.count_nonzero(a.values == b.values)) / len(a)


class MinHasher:
    """Computes MinHash signatures with a fixed, seeded permutation set."""

    def __init__(
        self,
        num_permutations: int = DEFAULT_NUM_PERMUTATIONS,
        seed: int = 0x5EED,
        shingle_width: int = DEFAULT_SHINGLE_WIDTH,
    ) -> None:
        if num_permutations < 1:
            raise ValueError("need at least one permutation")
        rng = DeterministicRNG(seed)
        prime = int(_PRIME)
        self.num_permutations = num_permutations
        self.shingle_width = shingle_width
        self._a = np.array(
            [rng.randint(1, prime - 1) for _ in range(num_permutations)],
            dtype=np.uint64,
        )
        self._b = np.array(
            [rng.randint(0, prime - 1) for _ in range(num_permutations)],
            dtype=np.uint64,
        )

    def signature_of_hashes(self, hashes: np.ndarray) -> MinHashSignature:
        """Signature from precomputed 64-bit shingle hashes."""
        if hashes.size == 0:
            # Empty documents share a canonical all-max signature.
            return MinHashSignature(
                values=np.full(self.num_permutations, _PRIME, dtype=np.uint64)
            )
        x = hashes.astype(np.uint64) % _PRIME
        mins = np.empty(self.num_permutations, dtype=np.uint64)
        for i in range(self.num_permutations):
            mins[i] = ((self._a[i] * x + self._b[i]) % _PRIME).min()
        return MinHashSignature(values=mins)

    def signature(self, text: str) -> MinHashSignature:
        """Signature of raw text (shingling + hashing + permutations)."""
        return self.signature_of_hashes(shingle_hashes(text, self.shingle_width))

    def signatures_of_hashes(self, hash_arrays) -> "list[MinHashSignature]":
        """Batch form of :meth:`signature_of_hashes` over many documents.

        Concatenates all shingle-hash arrays and evaluates each permutation
        once per *distinct* value of the batch (documents of one corpus
        share most shingles), then gathers the permuted values back per
        document and takes per-document segment minima
        (``np.minimum.reduceat``).  The arithmetic is the exact same
        ``(a*x + b) mod p`` in uint64, so every returned signature is
        bit-identical to the per-document path — only the Python-level
        loop count drops from ``permutations * documents`` to
        ``permutations``.  One permutation's row is alive at a time, so
        memory stays linear in the batch.
        """
        out: "list[MinHashSignature]" = [None] * len(hash_arrays)  # type: ignore[list-item]
        nonempty = [i for i, arr in enumerate(hash_arrays) if arr.size]
        for i, arr in enumerate(hash_arrays):
            if not arr.size:
                out[i] = MinHashSignature(
                    values=np.full(self.num_permutations, _PRIME, dtype=np.uint64)
                )
        if not nonempty:
            return out
        concat = (
            np.concatenate([hash_arrays[i] for i in nonempty]).astype(np.uint64)
            % _PRIME
        )
        distinct, inverse = np.unique(concat, return_inverse=True)
        sizes = np.array([hash_arrays[i].size for i in nonempty], dtype=np.int64)
        offsets = np.zeros(len(nonempty), dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        # permutation-major, so each permutation writes one contiguous row
        mins = np.empty((self.num_permutations, len(nonempty)), dtype=np.uint64)
        for p in range(self.num_permutations):
            row = (self._a[p] * distinct + self._b[p]) % _PRIME
            mins[p] = np.minimum.reduceat(row[inverse], offsets)
        for j, i in enumerate(nonempty):
            out[i] = MinHashSignature(values=mins[:, j].copy())
        return out

    def signatures(self, texts) -> "list[MinHashSignature]":
        """Batch signatures of raw texts; equals ``[signature(t) for t in texts]``.

        The shingle-hash memo lives for this call only: documents of one
        batch hash each distinct shingle once, and nothing is kept on
        the hasher, so it pickles (and checkpoints) the same before and
        after.
        """
        memo: "dict[str, int]" = {}
        return self.signatures_of_hashes(
            [shingle_hashes(t, self.shingle_width, memo) for t in texts]
        )
