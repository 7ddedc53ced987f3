"""MinHash signatures for set-overlap estimation.

The metadata engine summarizes every column with a MinHash signature (the
paper's "signatures of its contents", Section 5.1); the index builder then
estimates Jaccard similarity between columns from the signatures alone to
propose join candidates without scanning raw data.

Token hashing is a 64-bit FNV-1a fold finalized with a splitmix64-style
mixer, reduced into ``[0, 2**31 - 1)``.  The hash is deterministic across
processes (Python's builtin ``hash`` is salted per-process and unsuitable)
and — unlike a per-token cryptographic digest — has two interchangeable,
bit-identical implementations:

* :func:`_hash_token` — the scalar hash, memoized process-wide;
* :func:`_hash_token_batch` — a vectorized numpy fold over one packed byte
  matrix (``np.frombuffer`` reinterpretation of the concatenated token
  buffer), which is what makes bulk column profiling a handful of C-level
  array operations instead of a Python loop per token.

:func:`hash_tokens` picks between them by batch size, so signatures are
identical to a token-at-a-time scalar fold by construction (the scalar
reference profiler in ``tests/oracles`` folds that way, and
``tests/test_columnar_profiling.py`` checks both agree).

The sketch is **one-permutation hashing with probe densification**: each
token is hashed *once*, translated by a seed-derived offset, bucketed into
``num_perm`` bins by its high bits (``(h * num_perm) // P``), and the raw
state is the per-bin minimum — O(tokens) work instead of the
O(tokens x num_perm) of a k-permutation fold.  Sets smaller than
``num_perm`` leave bins empty; each empty bin copies the minimum of the
first filled bin along its own probe sequence (Shrivastava, "Optimal
Densification for Fast and Accurate Minwise Hashing", ICML 2017).  A bin's
probe sequence is a fixed pseudo-random permutation of all bins, a function
of ``(num_perm, seed, bin, attempt)`` only, so two signatures borrow from
the same donor exactly when that donor is the first bin filled in both —
which keeps the Jaccard estimate unbiased — and, unlike rotation
densification (copy the nearest filled bin to the left), runs of empty bins
draw independent donors instead of all repeating one.  The sequences are
keyed once per ``(num_perm, seed)``; densifying is one gather and one
``argmin`` over (empty bins x filled bins), and a permutation reaches a
filled bin within ``num_perm`` attempts, so no attempt loop or fallback is
needed.

:meth:`MinHash.to_bytes` serializes the header plus the raw bins (the
densified view is recomputed on load), and comparing or merging signatures
built under different seeds raises a typed
:class:`~repro.errors.InvalidRequestError` instead of silently producing
garbage estimates.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

from ..errors import InvalidRequestError

#: size of the token-hash universe ``[0, _PRIME)`` (the Mersenne prime
#: 2^31 - 1); also the empty-bin sentinel of the raw OPH state
_PRIME = (1 << 31) - 1

_M64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MIX_1 = 0xFF51AFD7ED558CCD
_MIX_2 = 0xC4CEB9FE1A85EC53

#: process-wide token-hash memo: corpora share vocabularies heavily, so the
#: hash of a token is computed once and reused across every column and
#: dataset registered in this process.  Bounded so adversarially unique
#: corpora cannot grow it without limit (entries are never evicted; once the
#: cap is hit new tokens are hashed without being remembered).
_TOKEN_CACHE: dict[str, int] = {}
_TOKEN_CACHE_CAP = 1 << 20

#: batches at least this large take the vectorized path
_VECTORIZE_MIN = 24
#: tokens longer than this (bytes) force the scalar path — the padded byte
#: matrix is dense, so one huge token would inflate it for the whole batch
_VECTORIZE_MAX_TOKEN = 512
#: batches above this size skip the memo entirely: huge distinct sets are
#: key-like (mostly one-shot), and probing/populating a million-entry dict
#: costs more than re-running the vectorized fold on a repeat
_MEMO_MAX_BATCH = 4096
#: the dense (n, max_len) byte matrix is processed at most this many
#: tokens at a time, bounding transient memory on huge distinct sets
_BATCH_CHUNK = 1 << 16


def _hash_bytes_raw(data: bytes) -> int:
    """FNV-1a over raw bytes, splitmix64-style finalizer, mod ``_PRIME``.

    The scalar reference for every hashing path in this module: string
    tokens hash their UTF-8 bytes through it, packed numeric values their
    fixed-width canonical encoding (see :func:`hash_packed`)."""
    x = _FNV_OFFSET
    for byte in data:
        x = ((x ^ byte) * _FNV_PRIME) & _M64
    x = ((x ^ (x >> 33)) * _MIX_1) & _M64
    x = ((x ^ (x >> 33)) * _MIX_2) & _M64
    x ^= x >> 33
    return x % _PRIME


def _hash_token_raw(token: str) -> int:
    """The scalar hash computation itself (no memo).  Must stay
    bit-identical to :func:`_hash_token_batch`."""
    return _hash_bytes_raw(token.encode())


def _hash_token(token: str) -> int:
    """Scalar reference hash of one token string, memoized."""
    h = _TOKEN_CACHE.get(token)
    if h is None:
        h = _hash_token_raw(token)
        if len(_TOKEN_CACHE) < _TOKEN_CACHE_CAP:
            _TOKEN_CACHE[token] = h
    return h


def _finalize_mod(h: np.ndarray) -> np.ndarray:
    """Shared vectorized finalizer: splitmix64-style mix of a uint64 batch,
    reduced mod ``_PRIME`` into int64."""
    thirty_three = np.uint64(33)
    h = (h ^ (h >> thirty_three)) * np.uint64(_MIX_1)
    h = (h ^ (h >> thirty_three)) * np.uint64(_MIX_2)
    h ^= h >> thirty_three
    return (h % np.uint64(_PRIME)).astype(np.int64)


def _hash_token_batch(tokens: Sequence[str]) -> np.ndarray:
    """Vectorized token hashing: bit-identical to ``map(_hash_token, ...)``.

    Tokens are packed into one (n, max_len) byte matrix — built with a
    single ``np.frombuffer`` reinterpretation of the concatenated buffer —
    and the FNV-1a fold runs position-by-position across the whole batch.
    Rows are processed in descending-length order so each position folds a
    contiguous *slice* (the rows still alive at that position) instead of a
    boolean-masked gather/scatter pair — the masked version paid two fancy
    index operations per byte position, a fixed per-column cost that
    dominated wide-corpus ingest.
    """
    n = len(tokens)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n > _BATCH_CHUNK:
        # per-token hashes are independent: chunking bounds the dense
        # matrix without changing any value
        return np.concatenate([
            _hash_token_batch(tokens[lo:lo + _BATCH_CHUNK])
            for lo in range(0, n, _BATCH_CHUNK)
        ])
    if max(map(len, tokens)) > _VECTORIZE_MAX_TOKEN:
        # the fallback deliberately bypasses the memo: callers routed a
        # large one-shot batch here precisely to keep it out of the cache
        return np.fromiter(
            map(_hash_token_raw, tokens), dtype=np.int64, count=n
        )
    joined = "\x1f".join(tokens)
    data = joined.encode()
    if len(data) == len(joined):
        # pure-ASCII batch (the common case for canonical reprs): byte
        # lengths equal character lengths, so one encode covers everything
        # and the separators are simply ignored by the fold below.
        lens = np.fromiter(map(len, tokens), dtype=np.int64, count=n)
        flat = np.frombuffer(data + b"\x1f", dtype=np.uint8)
        pad = 1  # each row also holds its trailing separator byte
    else:
        enc = [t.encode() for t in tokens]
        lens = np.fromiter(map(len, enc), dtype=np.int64, count=n)
        flat = np.frombuffer(b"".join(enc), dtype=np.uint8)
        pad = 0
    max_len = int(lens.max()) if n else 0
    if max_len > _VECTORIZE_MAX_TOKEN:
        # multibyte characters can push byte lengths past the cap even
        # when character lengths sat below it
        return np.fromiter(
            map(_hash_token_raw, tokens), dtype=np.int64, count=n
        )
    cols = np.arange(max_len + pad)
    fill_mask = cols[None, :] < (lens + pad)[:, None]
    arr = np.zeros((n, max_len + pad), dtype=np.uint8)
    arr[fill_mask] = flat  # row-major fill order == concatenation order
    min_len = int(lens.min())
    if min_len == max_len:
        # uniform-length batch (ids, fixed-format codes): no reordering,
        # every position folds the full column
        order = None
        srt = arr
        alive = None
    else:
        order = np.argsort(-lens, kind="stable")
        srt = arr[order]
        neg_lens = -lens[order]
        # alive[i] = how many rows still have a byte at position i; rows
        # are length-descending so they form a prefix
        alive = np.searchsorted(neg_lens, -np.arange(max_len), side="left")
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    fnv_prime = np.uint64(_FNV_PRIME)
    for i in range(max_len):
        k = n if alive is None else int(alive[i])
        hk = h[:k]
        np.bitwise_xor(hk, srt[:k, i].astype(np.uint64), out=hk)
        np.multiply(hk, fnv_prime, out=hk)
    res = _finalize_mod(h)
    if order is None:
        return res
    out = np.empty(n, dtype=np.int64)
    out[order] = res
    return out


def hash_tokens(tokens: Sequence[str]) -> np.ndarray:
    """Per-token hashes in ``[0, _PRIME)`` as an int64 array.

    Small batches go through the memoized scalar reference; large batches
    consult the memo in bulk and fall through to the vectorized fold on any
    miss (then remember the batch, bounded by the cache cap).  Both routes
    return bit-identical values.
    """
    n = len(tokens)
    if n < _VECTORIZE_MIN:
        return np.fromiter(map(_hash_token, tokens), dtype=np.int64, count=n)
    if n > _MEMO_MAX_BATCH:
        return _hash_token_batch(tokens)
    cached = list(map(_TOKEN_CACHE.get, tokens))
    if None not in cached:
        return np.asarray(cached, dtype=np.int64)
    miss_idx = [i for i, h in enumerate(cached) if h is None]
    if len(miss_idx) == n:
        # cold batch (first sight of the whole vocabulary): skip the
        # scatter-back entirely and bulk-populate the memo
        hashes = _hash_token_batch(tokens)
        if len(_TOKEN_CACHE) + n <= _TOKEN_CACHE_CAP:
            _TOKEN_CACHE.update(zip(tokens, hashes.tolist()))
        return hashes
    # hash only the misses and scatter them back: on shared-vocabulary
    # corpora a batch typically carries a handful of first-sight tokens
    # among mostly memoized ones
    miss_hashes = _hash_token_batch([tokens[i] for i in miss_idx])
    for i, h in zip(miss_idx, miss_hashes.tolist()):
        cached[i] = h
    if len(_TOKEN_CACHE) + len(miss_idx) <= _TOKEN_CACHE_CAP:
        _TOKEN_CACHE.update((tokens[i], cached[i]) for i in miss_idx)
    return np.asarray(cached, dtype=np.int64)


def hash_packed(matrix: np.ndarray) -> np.ndarray:
    """Vectorized hash of fixed-width byte rows: row ``i`` of the
    ``(n, width)`` uint8 matrix hashes exactly like
    ``_hash_bytes_raw(matrix[i].tobytes())``.

    This is the repr-free numeric path: canonical struct-packed values
    (see ``repro.relation.columnar.pack_value``) hash without ever
    materializing a Python string.
    """
    if matrix.ndim != 2:
        raise ValueError("hash_packed expects an (n, width) byte matrix")
    n, width = matrix.shape
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    fnv_prime = np.uint64(_FNV_PRIME)
    for i in range(width):
        np.bitwise_xor(h, matrix[:, i].astype(np.uint64), out=h)
        np.multiply(h, fnv_prime, out=h)
    return _finalize_mod(h)


def stable_hash(value: object) -> int:
    """Deterministic hash of a value's canonical string form, in [0, 2^31)."""
    return _hash_token(repr(value))


def _splitmix64(x: int) -> int:
    """splitmix64 finalizer of one 64-bit integer."""
    x = (x * 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _seed_offset(seed: int) -> int:
    """Seed-derived additive offset, in ``[0, _PRIME)``.

    Each token is hashed once with the unseeded shared token hash; the
    seed enters as a mod-``_PRIME`` translation (a bijection on the hash
    universe), so different seeds yield independent-looking bin layouts
    while the token-hash memo stays shared across all seeds."""
    return _splitmix64(seed) % _PRIME


#: (num_perm, seed) -> read-only probe-key table, see :func:`_probe_keys`
_PROBE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _probe_keys(num_perm: int, seed: int) -> np.ndarray:
    """``keys[j, d]``: empty bin ``j``'s probe sequence visits the bins in
    ascending ``keys[j]`` order.

    The keys are a splitmix64 hash of ``(num_perm, seed, j, d)``, so each
    bin's sequence is a pseudo-random permutation of all bins — drawn
    without replacement, it meets every filled bin within ``num_perm``
    attempts — and the first filled bin along it is the filled ``d`` of
    least key.  Built once per ``(num_perm, seed)`` and shared by every
    signature of that family."""
    key = (num_perm, seed)
    keys = _PROBE_CACHE.get(key)
    if keys is None:
        x = np.arange(num_perm * num_perm, dtype=np.uint64)
        x += np.uint64(_splitmix64(seed) ^ num_perm)
        x *= np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        keys = x.reshape(num_perm, num_perm)
        keys.setflags(write=False)
        _PROBE_CACHE[key] = keys
    return keys


class MinHash:
    """A fixed-width one-permutation MinHash signature over a set of values.

    The raw per-bin minima live in ``_bins`` (the mergeable, serialized
    state, ``_PRIME`` marking an empty bin); ``signature`` is their
    densified ``num_perm``-wide view, which LSH banding and Jaccard
    estimation consume (see the module docstring).
    """

    __slots__ = ("num_perm", "seed", "_bins", "signature", "count")

    def __init__(self, num_perm: int = 64, seed: int = 7):
        if num_perm < 1:
            raise ValueError("num_perm must be >= 1")
        self.num_perm = num_perm
        self.seed = seed
        self._bins = np.full(num_perm, _PRIME, dtype=np.int64)
        self.signature = self._bins.copy()
        #: distinct tokens folded in (per update call; duplicate tokens never
        #: inflate it, so ``count == 0`` means "no value ever inserted" and
        #: the emptiness semantics of :meth:`jaccard` are exact)
        self.count = 0

    def update(self, value: object) -> None:
        self.update_many([value])

    def update_many(self, values: Iterable[object]) -> None:
        """Fold values in by their canonical (``repr``) token strings."""
        tokens = set(map(repr, values))
        if tokens:
            self._fold(hash_tokens(list(tokens)))
            self.count += len(tokens)

    def update_tokens(self, tokens: Iterable[str]) -> None:
        """Fold pre-canonicalized token strings (the profiler's bulk entry
        point for str and ``any`` columns); :func:`hash_tokens` picks the
        hash route per batch."""
        distinct = (
            tokens if isinstance(tokens, (set, frozenset)) else set(tokens)
        )
        if not distinct:
            return
        batch = list(distinct)
        self._fold(hash_tokens(batch))
        self.count += len(batch)

    def update_hashes(self, hashes: np.ndarray, distinct: int) -> None:
        """Fold precomputed *distinct* token hashes (values in
        ``[0, _PRIME)``) and account ``distinct`` insertions.  The
        profiler's packed-numeric path hashes canonical byte rows via
        :func:`hash_packed` and lands here without any string detour."""
        if len(hashes):
            self._fold(np.asarray(hashes, dtype=np.int64))
            self.count += distinct

    def _fold(self, hashes: np.ndarray) -> None:
        # one-permutation fold: seed-translate, sort, bucket by high bits.
        # The bin index (h * num_perm) // _PRIME is monotone in h, so after
        # sorting, the first occurrence of each bin value *is* that bin's
        # minimum — no scatter-minimum pass needed.
        offset = _seed_offset(self.seed)
        if offset:
            hashes = hashes + offset
            np.subtract(hashes, _PRIME, out=hashes, where=hashes >= _PRIME)
        s = np.sort(hashes)
        bins = (s * self.num_perm) // _PRIME
        first = np.empty(len(s), dtype=bool)
        first[0] = True
        np.not_equal(bins[1:], bins[:-1], out=first[1:])
        np.minimum.at(self._bins, bins[first], s[first])
        self._densify()

    def _densify(self) -> None:
        """Recompute the dense ``signature`` from the raw per-bin minima:
        every empty bin copies the minimum of the first filled bin along
        its probe sequence (:func:`_probe_keys`).  Filled bins hold values
        from their own bin's hash range, so a borrowed slot never matches
        a filled one.  Pure and deterministic, so densified signatures
        replay bit-identically from the serialized raw bins."""
        bins = self._bins
        filled = bins != _PRIME
        sig = bins.copy()
        donors = np.flatnonzero(filled)
        if 0 < len(donors) < self.num_perm:
            empty = np.flatnonzero(~filled)
            keys = _probe_keys(self.num_perm, self.seed)
            first = keys[np.ix_(empty, donors)].argmin(axis=1)
            sig[empty] = bins[donors[first]]
        self.signature = sig

    @classmethod
    def of(
        cls, values: Iterable[object], num_perm: int = 64, seed: int = 7,
    ) -> "MinHash":
        mh = cls(num_perm=num_perm, seed=seed)
        mh.update_many(values)
        return mh

    @classmethod
    def of_tokens(
        cls, tokens: Iterable[str], num_perm: int = 64, seed: int = 7,
    ) -> "MinHash":
        mh = cls(num_perm=num_perm, seed=seed)
        mh.update_tokens(tokens)
        return mh

    def _check_comparable(self, other: "MinHash", op: str) -> None:
        if self.num_perm != other.num_perm:
            raise ValueError("signatures have different widths")
        if self.seed != other.seed:
            raise InvalidRequestError(
                f"cannot {op} MinHash signatures with different seeds "
                f"({self.seed} vs {other.seed}): estimates would be garbage"
            )

    def jaccard(self, other: "MinHash") -> float:
        """Estimated Jaccard similarity with another signature."""
        self._check_comparable(other, "compare")
        if self.count == 0 and other.count == 0:
            return 1.0
        if self.count == 0 or other.count == 0:
            return 0.0
        return float(np.mean(self.signature == other.signature))

    def merge(self, other: "MinHash") -> "MinHash":
        """Signature of the union of both underlying sets (``count`` becomes
        an upper bound on the union's distinct insertions).  The union's
        minima live in the raw bins, so the merged state is densified
        afresh rather than mixing borrowed slots."""
        self._check_comparable(other, "merge")
        merged = MinHash.__new__(MinHash)
        merged.num_perm = self.num_perm
        merged.seed = self.seed
        merged.count = self.count + other.count
        merged._bins = np.minimum(self._bins, other._bins)
        merged._densify()
        return merged

    def digest(self) -> tuple[int, ...]:
        return tuple(int(v) for v in self.signature)

    #: serialized header: num_perm, seed, count (little-endian, fixed width)
    _HEADER = struct.Struct("<iiq")

    def to_bytes(self) -> bytes:
        """Round-trippable serialization: header (num_perm, seed, count)
        followed by the raw per-bin minima as little-endian int64 (the
        densified view is recomputed on load, so merged/updated replays
        stay bit-identical)."""
        header = self._HEADER.pack(self.num_perm, self.seed, self.count)
        return header + self._bins.astype("<i8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "MinHash":
        """Rebuild a signature serialized by :meth:`to_bytes`, bit-identical;
        a payload of any other length raises ``ValueError``."""
        num_perm, seed, count = cls._HEADER.unpack_from(data)
        expected = cls._HEADER.size + 8 * num_perm
        if len(data) != expected:
            raise ValueError(
                f"corrupt MinHash payload: {len(data)} bytes, "
                f"expected {expected}"
            )
        mh = cls(num_perm=num_perm, seed=seed)
        mh._bins = np.frombuffer(
            data, dtype="<i8", offset=cls._HEADER.size
        ).astype(np.int64)
        mh._densify()
        mh.count = count
        return mh


def containment(small: set, big: set) -> float:
    """Exact containment |small ∩ big| / |small| (used as ground truth)."""
    if not small:
        return 0.0
    return len(small & big) / len(small)


def jaccard_exact(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)
