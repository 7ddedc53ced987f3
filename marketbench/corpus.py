"""Seeded inputs for the market-loop benchmark.

Everything here is a pure function of the workload seed: the base corpus,
every cycle's op sequence, and the rows of every dataset version.  The
program under test only ever sees the generated relations and requests.

Corpus shape
------------
Four *domains* with disjoint entity keys and domain-prefixed column names.
The names were chosen so that no two names of different domains reach the
discovery layer's name-match threshold (0.55): a request in one domain
never matches a column of another, so the join graph has one component per
domain and the plan cache's component-scoped invalidation applies.  Every
attribute column draws its values from a range of its own, so only the key
columns overlap and become join edges.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

#: domain prefix -> (key column, attribute columns)
DOMAINS: dict[str, tuple[str, tuple[str, ...]]] = {
    "wx": ("wx_station", (
        "wx_temp", "wx_cloud", "wx_lightning", "wx_drizzle", "wx_breeze",
        "wx_humidity", "wx_visibility", "wx_price", "wx_refund",
        "wx_vendor", "wx_receipt", "wx_markup", "wx_pulse", "wx_dose",
    )),
    "rt": ("rt_sku", (
        "rt_rain", "rt_ozone", "rt_pollen", "rt_zephyr", "rt_dewpoint",
        "rt_brand", "rt_loyalty", "rt_allergy", "rt_enzyme", "rt_clinic",
        "rt_headway", "rt_terminal", "rt_zinc", "rt_oxygen",
    )),
    "hc": ("hc_patient", (
        "hc_gust", "hc_frost", "hc_fog", "hc_monsoon", "hc_cyclone",
        "hc_aurora", "hc_uv", "hc_promo", "hc_shelf", "hc_wholesale",
        "hc_bundle", "hc_glucose", "hc_chol", "hc_ward",
    )),
    "tr": ("tr_vehicle", (
        "tr_snow", "tr_pressure", "tr_barometer", "tr_solar", "tr_mist",
        "tr_units", "tr_tax", "tr_checkout", "tr_quota", "tr_biopsy",
        "tr_plasma", "tr_cortisol", "tr_symptom", "tr_fare",
    )),
}
DOMAIN_ORDER = tuple(DOMAINS)

#: column dtypes cycle through these, so every corpus mixes value kinds
DTYPES = ("float", "int", "str")

# -- trade / http corpus -----------------------------------------------------
TRADE_DATASETS_PER_DOMAIN = 10
TRADE_ENTITIES = 300
ATTR_SETS_PER_DOMAIN = 8
ZIPF_S = 1.1
WANTED_KEYS = 60
BUYERS = ("b0", "b1", "b2")

# -- ingest corpus -----------------------------------------------------------
INGEST_BASE_DATASETS = 24
INGEST_ENTITIES = 3000
TALL = (4000, 3)   # rows, attribute columns (plus the key)
WIDE = (300, 23)


@dataclass(frozen=True)
class TableSpec:
    """Everything needed to rebuild one dataset version's rows."""

    name: str
    domain: str
    columns: tuple[tuple[str, str], ...]   # (name, dtype), key first
    rows: int
    entities: int
    version_seed: int


def _entity_base(domain: str) -> int:
    return (DOMAIN_ORDER.index(domain) + 1) * 100_000_000


def _column_base(domain: str, column: str) -> int:
    """Start of a value range owned by one column alone (``<attr>_v<k>``
    is the ``k``-th extra copy of an attribute in a wide table)."""
    attrs = DOMAINS[domain][1]
    copy = re.fullmatch(r"(.+)_v(\d+)", column)
    attr, k = (copy[1], int(copy[2])) if copy else (column, 0)
    slot = attrs.index(attr) + len(attrs) * k
    return _entity_base(domain) + 1_000_000 * (slot + 1)


def build_rows(spec: TableSpec) -> list[tuple]:
    """The rows of one dataset version (deterministic in ``spec``)."""
    rng = random.Random(f"{spec.name}/{spec.version_seed}")
    base = _entity_base(spec.domain)
    if spec.rows <= spec.entities:
        keys = sorted(rng.sample(range(spec.entities), spec.rows))
    else:
        keys = [rng.randrange(spec.entities) for _ in range(spec.rows)]
    makers = []
    for column, dtype in spec.columns[1:]:
        start = _column_base(spec.domain, column)
        if dtype == "int":
            makers.append(lambda s=start: s + rng.randrange(50_000))
        elif dtype == "float":
            makers.append(lambda s=start: round(s + rng.random() * 1e4, 3))
        else:
            makers.append(lambda c=column: f"{c}:{rng.randrange(400)}")
    return [
        (base + k, *(make() for make in makers)) for k in keys
    ]


def build_relation(spec: TableSpec):
    from repro.relation import Column, Relation

    return Relation(
        spec.name,
        [Column(name, dtype) for name, dtype in spec.columns],
        build_rows(spec),
    )


# ---------------------------------------------------------------------------
# trade / http
# ---------------------------------------------------------------------------

def trade_tables(domains: tuple[str, ...]) -> list[TableSpec]:
    """~10 datasets per domain; each attribute lives in exactly one of
    them, and every dataset covers most of the domain's entities."""
    specs = []
    for domain in domains:
        key, attrs = DOMAINS[domain]
        rng = random.Random(f"trade-tables/{domain}")
        order = list(attrs)
        rng.shuffle(order)
        n = TRADE_DATASETS_PER_DOMAIN
        for j in range(n):
            mine = order[j::n]
            columns = ((key, "int"),) + tuple(
                (a, DTYPES[attrs.index(a) % 3]) for a in mine
            )
            specs.append(TableSpec(
                name=f"{domain}_set{j}", domain=domain, columns=columns,
                rows=int(TRADE_ENTITIES * rng.uniform(0.8, 0.95)),
                entities=TRADE_ENTITIES, version_seed=0,
            ))
    return specs


def attribute_sets(domain: str, seed: int) -> list[tuple[str, ...]]:
    """The domain's pool of buyer attribute sets (key first), most
    popular first."""
    key, attrs = DOMAINS[domain]
    home = {
        column: spec.name
        for spec in trade_tables((domain,)) for column, _ in spec.columns[1:]
    }
    rng = random.Random(f"attr-sets/{seed}/{domain}")
    pool: list[tuple[str, ...]] = []
    while len(pool) < ATTR_SETS_PER_DOMAIN:
        # sizes alternate 2, 3, 2, ... down the popularity order and every
        # attribute comes from a different dataset, so every seed asks for
        # the same mix of join widths
        size = 2 + len(pool) % 2
        chosen = (key, *sorted(rng.sample(attrs, size)))
        if (len({home[a] for a in chosen[1:]}) == size
                and chosen not in pool):
            pool.append(chosen)
    return pool


def _zipf_index(rng: random.Random, n: int) -> int:
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(n)]
    return rng.choices(range(n), weights=weights)[0]


def trade_cycles(
    seed: int, n_cycles: int, domains: tuple[str, ...], browse: bool,
) -> list[tuple]:
    """One tuple of ops per cycle: 1 seller update, 4 searches, 2 plans,
    3 buyer WTPs on one attribute set, 1 round (and 1 browse over HTTP)."""
    rng = random.Random(f"trade-ops/{seed}")
    tables = trade_tables(domains)
    pools = {d: attribute_sets(d, seed) for d in domains}
    versions = {t.name: 0 for t in tables}
    cycles = []
    updates: list[TableSpec] = []
    for _ in range(n_cycles):
        ops: list[tuple] = []
        if not updates:     # every dataset is updated once per round
            updates = rng.sample(tables, len(tables))
        target = updates.pop()
        versions[target.name] += 1
        ops.append(("update", TableSpec(
            name=target.name, domain=target.domain, columns=target.columns,
            rows=int(TRADE_ENTITIES * rng.uniform(0.8, 0.95)),
            entities=TRADE_ENTITIES,
            version_seed=seed * 100_000 + versions[target.name],
        )))
        for _ in range(4):
            domain = rng.choice(domains)
            key, attrs = DOMAINS[domain]
            picked = rng.sample(attrs, rng.randint(1, 3))
            ops.append(("search", (key, *picked)))
        for _ in range(2):
            domain = rng.choice(domains)
            pool = pools[domain]
            ops.append(("plan", pool[_zipf_index(rng, len(pool))]))
        domain = rng.choice(domains)
        pool = pools[domain]
        attrs = pool[_zipf_index(rng, len(pool))]
        base = _entity_base(domain)
        for rank, buyer in enumerate(BUYERS):
            wanted = tuple(sorted(
                base + k for k in rng.sample(range(TRADE_ENTITIES), WANTED_KEYS)
            ))
            threshold = round(rng.uniform(0.2, 0.3), 2)
            # buyers keep their price rank, so every round clears alike
            price = round(rng.uniform(20.0, 24.0) - 6.0 * rank, 2)
            ops.append(("wtp", buyer, attrs, wanted, threshold, price))
        ops.append(("round",))
        if browse:
            ops.append(_browse_op(rng))
        cycles.append(tuple(ops))
    return cycles


def _browse_op(rng: random.Random) -> tuple:
    domain = rng.choice(DOMAIN_ORDER)
    word = rng.choice(DOMAINS[domain][1]).split("_", 1)[1]
    sort = rng.choice(("registered", "name", "rows", "reserve"))
    return ("browse", word, sort)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def ingest_table(name: str, domain: str, tall: bool, version_seed: int):
    key, attrs = DOMAINS[domain]
    rows, width = TALL if tall else WIDE
    columns = [(key, "int")]
    for i in range(width):
        copy, attr = divmod(i, len(attrs))
        column = f"{attrs[attr]}_v{copy}" if copy else attrs[attr]
        columns.append((column, DTYPES[i % 3]))
    return TableSpec(
        name=name, domain=domain, columns=tuple(columns), rows=rows,
        entities=INGEST_ENTITIES, version_seed=version_seed,
    )


def ingest_base(seed: int) -> list[TableSpec]:
    """The base corpus: half tall, half wide, spread over the domains."""
    rng = random.Random(f"ingest-base/{seed}")
    return [
        ingest_table(
            f"ds{i:04d}", DOMAIN_ORDER[i % len(DOMAIN_ORDER)],
            tall=i % 2 == 0, version_seed=rng.randrange(1 << 30),
        )
        for i in range(INGEST_BASE_DATASETS)
    ]


def ingest_cycles(seed: int, n_cycles: int) -> list[tuple]:
    """One write plus 3 attribute searches and 1 browse per cycle.

    Writes come in blocks of three cycles — one register, one update, one
    retire in seeded order — and a block registers and retires tables of
    one shape (tall and wide blocks alternate), so the live count and its
    tall/wide mix stay stationary."""
    rng = random.Random(f"ingest-ops/{seed}")
    base = ingest_base(seed)
    live = {True: [], False: []}
    for spec in base:
        live[spec.rows == TALL[0]].append(spec.name)
    domain_of = {spec.name: spec.domain for spec in base}
    next_id = len(base)
    cycles = []
    block: list[str] = []
    tall = False
    for _ in range(n_cycles):
        if not block:
            block = ["register", "update", "retire"]
            rng.shuffle(block)
            tall = not tall
        kind = block.pop()
        if kind == "register":
            name = f"ds{next_id:04d}"
            next_id += 1
            domain_of[name] = rng.choice(DOMAIN_ORDER)
            live[tall].append(name)
            write = ("register", ingest_table(
                name, domain_of[name], tall, rng.randrange(1 << 30)
            ))
        elif kind == "update":
            shape = rng.random() < 0.5
            name = rng.choice(live[shape])
            write = ("update", ingest_table(
                name, domain_of[name], shape, rng.randrange(1 << 30)
            ))
        else:
            pool = live[tall]
            write = ("retire", pool.pop(rng.randrange(len(pool))))
        reads = []
        for _ in range(3):
            domain = rng.choice(DOMAIN_ORDER)
            key, attrs = DOMAINS[domain]
            reads.append(("search", (key, *rng.sample(attrs, rng.randint(1, 3)))))
        reads.append(_browse_op(rng))
        cycles.append((write, *reads))
    return cycles


def seller_of(domain: str) -> str:
    return f"seller_{domain}"
