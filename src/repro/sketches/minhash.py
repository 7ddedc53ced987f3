"""MinHash signatures for set-overlap estimation.

The metadata engine summarizes every column with a MinHash signature (the
paper's "signatures of its contents", Section 5.1); the index builder then
estimates Jaccard similarity between columns from the signatures alone to
propose join candidates without scanning raw data.

Token hashing is a 64-bit FNV-1a fold finalized with a splitmix64-style
mixer, reduced into ``[0, 2**31 - 1)``.  The scheme is deterministic across
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
reference profilers in ``tests/oracles`` fold that way, and
``tests/test_columnar_profiling.py`` checks both agree).

Two sketch *schemes* share that token-hash layer:

* ``"classic"`` — the k-permutation fold: every token hash goes through
  ``num_perm`` universal hashes ``(a_i * h + b_i) mod P`` and the signature
  is the per-permutation minimum.  Accurate, well-understood, and kept as
  the property-tested oracle.
* ``"oph"`` — one-permutation hashing with rotation densification: each
  token is hashed *once*, bucketed into ``num_perm`` bins by its high bits
  (``(h * num_perm) // P``), and the signature is the per-bin minimum;
  empty bins borrow from the nearest filled bin to their left (circular),
  offset by a rotation constant per step so borrowed slots still compare
  meaningfully across signatures.  ~``num_perm``× fewer hash applications
  per token, same LSH banding compatibility, unbiased Jaccard estimates
  (Shrivastava & Li style densification).

Both schemes serialize through :meth:`MinHash.to_bytes` with a scheme tag
(legacy tag-less payloads deserialize as ``"classic"``), and mixing schemes
or seeds in :meth:`MinHash.jaccard`/:meth:`MinHash.merge` raises a typed
:class:`~repro.errors.InvalidRequestError` instead of silently producing
garbage estimates.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

from ..errors import InvalidRequestError

#: modulus for universal hashing; small enough that a*h+b fits in int64.
#: A Mersenne prime (2^31 - 1), so ``x mod _PRIME`` reduces to shifts and
#: masks — see :meth:`MinHash._fold_classic`.
_PRIME = (1 << 31) - 1

_M64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MIX_1 = 0xFF51AFD7ED558CCD
_MIX_2 = 0xC4CEB9FE1A85EC53

#: rotation constant for OPH densification: empty bin at distance d from
#: its donor takes ``(donor + d * _ROT) mod _PRIME`` so two signatures
#: agree on a borrowed slot only when they agree on donor *and* distance
_ROT = 1481765933

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


#: (num_perm, seed) -> shared immutable permutation coefficient arrays;
#: profiling sketches one column per MinHash, so re-deriving the same
#: coefficients from a fresh generator per column was measurable overhead
_PERM_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _permutations(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    key = (num_perm, seed)
    ab = _PERM_CACHE.get(key)
    if ab is None:
        rng = np.random.default_rng(seed)
        a = rng.integers(1, _PRIME, size=num_perm, dtype=np.int64)
        b = rng.integers(0, _PRIME, size=num_perm, dtype=np.int64)
        a.setflags(write=False)
        b.setflags(write=False)
        ab = _PERM_CACHE[key] = (a, b)
    return ab


def _seed_offset(seed: int) -> int:
    """Seed-derived additive offset for the OPH scheme, in ``[0, _PRIME)``.

    OPH hashes each token once with the unseeded shared token hash; the
    seed enters as a mod-``_PRIME`` translation (a bijection on the hash
    universe), so different seeds yield independent-looking bin layouts
    while the token-hash memo stays shared across all seeds."""
    x = (seed * 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x % _PRIME


_SCHEMES = ("classic", "oph")
_SCHEME_CODES = {"classic": 0, "oph": 1}
_SCHEME_NAMES = {code: name for name, code in _SCHEME_CODES.items()}


class MinHash:
    """A fixed-width MinHash signature over a set of values.

    ``scheme`` selects the sketching algorithm (see module docstring):
    ``"classic"`` folds every token through ``num_perm`` universal hashes;
    ``"oph"`` buckets single-hashed tokens into ``num_perm`` bins and
    densifies empty bins by rotation.  ``signature`` is always the dense
    ``num_perm``-wide vector LSH banding and Jaccard estimation consume;
    for OPH the raw per-bin minima live in ``_bins`` (the mergeable,
    serialized state) and ``signature`` is their densified view.
    """

    __slots__ = (
        "num_perm", "seed", "scheme", "_a", "_b", "_bins",
        "signature", "count",
    )

    def __init__(
        self, num_perm: int = 64, seed: int = 7, scheme: str = "classic"
    ):
        if num_perm < 1:
            raise ValueError("num_perm must be >= 1")
        if scheme not in _SCHEMES:
            raise ValueError(
                f"unknown MinHash scheme {scheme!r} (expected one of "
                f"{', '.join(_SCHEMES)})"
            )
        self.num_perm = num_perm
        self.seed = seed
        self.scheme = scheme
        if scheme == "classic":
            self._a, self._b = _permutations(num_perm, seed)
            self._bins = None
        else:
            self._a = self._b = None
            self._bins = np.full(num_perm, _PRIME, dtype=np.int64)
        self.signature = np.full(num_perm, _PRIME, dtype=np.int64)
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
        point — its columnar view already holds one ``repr`` per value);
        :func:`hash_tokens` picks the hash route per batch."""
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

    #: token-axis chunk width of the universal-hash fold: keeps the
    #: (num_perm, chunk) temporaries cache-resident on wide token sets
    _FOLD_CHUNK = 4096

    def _fold(self, hashes: np.ndarray) -> None:
        if self.scheme == "classic":
            self._fold_classic(hashes)
        else:
            self._fold_oph(hashes)

    def _fold_classic(self, hashes: np.ndarray) -> None:
        # (k, n) matrix of universal hashes; min over values per
        # permutation (a*h+b < 2**62 always fits int64).  The reduction
        # mod the Mersenne prime 2^31-1 uses two shift/mask folds plus a
        # conditional subtract instead of int64 division — bit-identical
        # to np.mod and several times cheaper, which matters because this
        # matrix is the single hottest allocation of classic ingest.
        a_col = self._a[:, None]
        b_col = self._b[:, None]
        for lo in range(0, len(hashes), self._FOLD_CHUNK):
            part = hashes[lo:lo + self._FOLD_CHUNK]
            view = a_col * part[None, :]
            view += b_col
            hi = view >> 31
            np.bitwise_and(view, _PRIME, out=view)
            view += hi
            np.right_shift(view, 31, out=hi)
            np.bitwise_and(view, _PRIME, out=view)
            view += hi
            # after two folds values sit in [0, _PRIME + 1]
            np.subtract(view, _PRIME, out=view, where=view >= _PRIME)
            np.minimum(self.signature, view.min(axis=1), out=self.signature)

    def _fold_oph(self, hashes: np.ndarray) -> None:
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
        idx = bins[first]
        np.minimum.at(self._bins, idx, s[first])
        self._densify()

    def _densify(self) -> None:
        """Recompute the dense ``signature`` from the raw per-bin minima:
        every empty bin borrows from the nearest filled bin to its left
        (circular), offset by ``distance * _ROT`` mod ``_PRIME``.  Pure and
        deterministic, so densified signatures replay bit-identically from
        the serialized raw bins."""
        bins = self._bins
        empty = bins == _PRIME
        if not empty.any():
            self.signature = bins.copy()
            return
        if empty.all():
            self.signature = bins.copy()  # still the virgin sentinel vector
            return
        k = self.num_perm
        idx = np.arange(k)
        src = np.where(empty, -1, idx)
        np.maximum.accumulate(src, out=src)
        last = int(src[-1])  # index of the last filled bin
        wrapped = src < 0
        donor = np.where(wrapped, last, src)
        dist = idx - donor
        dist[wrapped] += k
        sig = bins.copy()
        sig[empty] = (bins[donor[empty]] + dist[empty] * _ROT) % _PRIME
        self.signature = sig

    @classmethod
    def of(
        cls, values: Iterable[object], num_perm: int = 64, seed: int = 7,
        scheme: str = "classic",
    ) -> "MinHash":
        mh = cls(num_perm=num_perm, seed=seed, scheme=scheme)
        mh.update_many(values)
        return mh

    @classmethod
    def of_tokens(
        cls, tokens: Iterable[str], num_perm: int = 64, seed: int = 7,
        scheme: str = "classic",
    ) -> "MinHash":
        mh = cls(num_perm=num_perm, seed=seed, scheme=scheme)
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
        if self.scheme != other.scheme:
            raise InvalidRequestError(
                f"cannot {op} MinHash signatures with different schemes "
                f"({self.scheme!r} vs {other.scheme!r}): estimates would "
                f"be garbage"
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
        an upper bound on the union's distinct insertions)."""
        self._check_comparable(other, "merge")
        merged = MinHash.__new__(MinHash)
        merged.num_perm = self.num_perm
        merged.seed = self.seed
        merged.scheme = self.scheme
        merged._a, merged._b = self._a, self._b
        merged.count = self.count + other.count
        if self.scheme == "classic":
            merged._bins = None
            merged.signature = np.minimum(self.signature, other.signature)
        else:
            # union minima live in the raw bins; densify the merged state
            # rather than mixing borrowed (densified) slots
            merged._bins = np.minimum(self._bins, other._bins)
            merged._densify()
        return merged

    def digest(self) -> tuple[int, ...]:
        return tuple(int(v) for v in self.signature)

    #: serialized header: num_perm, seed, count (little-endian, fixed
    #: width), followed by one scheme-tag byte since schema v2
    _HEADER = struct.Struct("<iiq")

    def to_bytes(self) -> bytes:
        """Round-trippable serialization: header (num_perm, seed, count),
        one scheme-tag byte, then the scheme's *raw state* as little-endian
        int64 — the classic signature vector, or OPH's per-bin minima (the
        densified view is recomputed on load, so merged/updated replays
        stay bit-identical)."""
        header = self._HEADER.pack(self.num_perm, self.seed, self.count)
        state = self.signature if self.scheme == "classic" else self._bins
        return (
            header
            + bytes([_SCHEME_CODES[self.scheme]])
            + state.astype("<i8").tobytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "MinHash":
        """Rebuild a signature serialized by :meth:`to_bytes`, bit-identical.

        Payloads written before the scheme tag existed (header + state,
        no tag byte) deserialize as ``"classic"`` — classic stores replay
        unchanged across the upgrade."""
        num_perm, seed, count = cls._HEADER.unpack_from(data)
        legacy = cls._HEADER.size + 8 * num_perm
        tagged = legacy + 1
        if len(data) == legacy:
            scheme, offset = "classic", cls._HEADER.size
        elif len(data) == tagged:
            code = data[cls._HEADER.size]
            scheme = _SCHEME_NAMES.get(code)
            if scheme is None:
                raise ValueError(f"unknown MinHash scheme tag {code}")
            offset = cls._HEADER.size + 1
        else:
            raise ValueError(
                f"corrupt MinHash payload: {len(data)} bytes, "
                f"expected {legacy} or {tagged}"
            )
        mh = cls(num_perm=num_perm, seed=seed, scheme=scheme)
        state = np.frombuffer(data, dtype="<i8", offset=offset).astype(
            np.int64
        )
        if scheme == "classic":
            mh.signature = state
        else:
            mh._bins = state
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
