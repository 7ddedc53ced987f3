"""Locality-sensitive hashing index over MinHash signatures.

Used by the index builder to find all column pairs whose estimated Jaccard
similarity exceeds a threshold without comparing every pair — the classic
banding construction: signatures are cut into ``bands`` bands of ``rows``
rows; two signatures collide if any band matches exactly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Iterable

from ..errors import InvalidRequestError
from .minhash import MinHash


class LSHIndex:
    """Banded LSH index mapping keys to MinHash signatures.

    Banding consumes the dense (densified) ``signature`` vector.  One index
    must hold one seed: the first signature added pins it, and adding or
    querying with a signature of another seed raises a typed
    :class:`~repro.errors.InvalidRequestError` instead of silently
    bucketing incomparable minima."""

    def __init__(self, num_perm: int = 64, bands: int = 16):
        if num_perm % bands != 0:
            raise ValueError(
                f"num_perm ({num_perm}) must be divisible by bands ({bands})"
            )
        self.num_perm = num_perm
        self.bands = bands
        self.rows = num_perm // bands
        self._buckets: list[dict[tuple, list[Hashable]]] = [
            defaultdict(list) for _ in range(bands)
        ]
        self._signatures: dict[Hashable, MinHash] = {}
        #: seed pinned by the first signature added
        self._seed: int | None = None

    def __len__(self) -> int:
        return len(self._signatures)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._signatures

    def _check_seed(self, signature: MinHash, pin: bool) -> None:
        if signature.num_perm != self.num_perm:
            raise ValueError("signature width does not match index")
        if self._seed is None:
            if pin:
                self._seed = signature.seed
        elif signature.seed != self._seed:
            raise InvalidRequestError(
                f"signature seed {signature.seed} does not match the "
                f"index's {self._seed}: mixed sketch families cannot "
                f"share LSH bands"
            )

    def add(self, key: Hashable, signature: MinHash) -> None:
        self._check_seed(signature, pin=True)
        if key in self._signatures:
            raise KeyError(f"key {key!r} already indexed")
        self._signatures[key] = signature
        for band, bucket in enumerate(self._buckets):
            lo = band * self.rows
            band_key = tuple(signature.signature[lo : lo + self.rows])
            bucket[band_key].append(key)

    def remove(self, key: Hashable) -> None:
        """Drop a key from every band bucket (incremental index maintenance)."""
        try:
            signature = self._signatures.pop(key)
        except KeyError:
            raise KeyError(f"key {key!r} is not indexed") from None
        for band, bucket in enumerate(self._buckets):
            lo = band * self.rows
            band_key = tuple(signature.signature[lo : lo + self.rows])
            keys = bucket[band_key]
            keys.remove(key)
            if not keys:
                del bucket[band_key]

    def candidates(self, signature: MinHash) -> set[Hashable]:
        """Raw colliding keys for ``signature``, without similarity scoring.

        With ``bands == num_perm`` (one row per band) this is *exact-recall*:
        every indexed signature sharing at least one minimum with the query —
        i.e. every pair with estimated Jaccard > 0 — collides.
        """
        self._check_seed(signature, pin=False)
        out: set[Hashable] = set()
        for band, bucket in enumerate(self._buckets):
            lo = band * self.rows
            band_key = tuple(signature.signature[lo : lo + self.rows])
            out.update(bucket.get(band_key, ()))
        return out

    def query(self, signature: MinHash, min_jaccard: float = 0.0) -> list[tuple[Hashable, float]]:
        """Candidate keys colliding with ``signature``, with their estimated
        Jaccard similarity, filtered by ``min_jaccard`` and sorted best-first.
        """
        scored = []
        for key in self.candidates(signature):
            sim = signature.jaccard(self._signatures[key])
            if sim >= min_jaccard:
                scored.append((key, sim))
        scored.sort(key=lambda kv: (-kv[1], str(kv[0])))
        return scored

    def similar_pairs(self, min_jaccard: float = 0.5) -> list[tuple[Hashable, Hashable, float]]:
        """All indexed pairs whose estimated similarity >= threshold."""
        seen: set[frozenset] = set()
        out = []
        for bucket in self._buckets:
            for keys in bucket.values():
                for i, a in enumerate(keys):
                    for b in keys[i + 1 :]:
                        pair = frozenset((a, b))
                        if pair in seen:
                            continue
                        seen.add(pair)
                        sim = self._signatures[a].jaccard(self._signatures[b])
                        if sim >= min_jaccard:
                            out.append((a, b, sim))
        out.sort(key=lambda t: (-t[2], str(t[0]), str(t[1])))
        return out

    def keys(self) -> Iterable[Hashable]:
        return self._signatures.keys()
