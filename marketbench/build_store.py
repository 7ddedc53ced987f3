"""Write the ``ingest`` workload's base store (an untimed step).

The base corpus is registered through ``DataMarket(store=…)`` — the code
under test — in a process of its own, so the benchmark process starts
from a cold store it never wrote::

    python3 marketbench/build_store.py --seed 1 --store base.db
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))

    import corpus
    from repro import DataMarket

    market = DataMarket(store=args.store)
    for spec in corpus.ingest_base(args.seed):
        market.register_dataset(
            corpus.build_relation(spec), seller=corpus.seller_of(spec.domain)
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
