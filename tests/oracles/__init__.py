"""Reference oracles: the slow, obviously-correct implementations the
production paths in ``src/`` are checked against.

Each module holds the oracle for one layer, moved here unchanged from the
library so that ``src/`` ships one production path per layer:

* :mod:`oracles.execution` — the iteration engine (eager operators applied
  node-for-node) the columnar engine must match bit-for-bit;
* :mod:`oracles.planning` — the exhaustive product-sweep enumerator and the
  hop-count join-path connector, as :class:`~repro.integration.DoDEngine`
  subclasses;
* :mod:`oracles.indexing` — the O(C²) full rebuild the incrementally
  patched join index must equal;
* :mod:`oracles.profiling` — the value-at-a-time profiler the columnar
  profiler must match bit-for-bit;
* :mod:`oracles.legacy` — the sketching the one-permutation MinHash
  replaced: the classic k-permutation fold, its value-at-a-time profiler,
  and the pre-fastpath per-value ingest and hashing replicas the ingest
  benchmarks time production against;
* :mod:`oracles.valuation` — the scalar Shapley and KNN-Shapley loops the
  batched estimators must match to floating-point accumulation order.

The equivalence tests under ``tests/`` and the benchmarks under
``benchmarks/`` import them from here (``tests/`` is on the pytest
``pythonpath``).
"""
