"""A sharded, out-of-core FACT audit — byte-identical to the serial one.

When the test set is too large for one worker (the paper's setting is
institutional: census extracts, lending books, event logs), the table
becomes a ``PartitionedTable`` — ordered row-range shards behind lazy,
pure loader callables, so *no single Table ever exists in memory*.
``FACTAuditor`` turns the audit into one map node per shard (labels,
probabilities, decisions, encoded features, quasi-identifier class
counts are all row-wise pure) plus exact combines in shard order, and
with a store attached each partial spills to disk tagged by its
shard's fingerprint — the coordinator holds about one shard at a time.

The punchline is the same contract the rest of the engine keeps:
sharding is a wall-clock/memory knob, never a results knob.  The
sharded report's fingerprint equals the serial one's, bit for bit.

The default run is sized down (4 shards x 5 000 rows) so it finishes in
seconds *and* can afford the serial comparison audit; pass ``--full``
for the real out-of-core shape — 10 000 000 rows as 500 shards of
20 000, which never materialises and skips the serial check.

Run:  python examples/sharded_audit.py [--full]
"""

import functools
import sys
import tempfile
import time

import numpy as np

from repro import (
    ArtifactStore,
    CreditScoringGenerator,
    FACTAuditor,
    LogisticRegression,
    TableClassifier,
)
from repro.data import PartitionedTable


def load_shard(seed, rows):
    """A pure, picklable shard source: same seed, same bytes, every load."""
    generator = CreditScoringGenerator(label_bias=0.3, proxy_strength=0.8)
    return generator.generate(rows, np.random.default_rng(seed))


def main():
    full = "--full" in sys.argv[1:]
    n_shards, rows_per_shard = (500, 20_000) if full else (4, 5_000)

    rng = np.random.default_rng(0)
    generator = CreditScoringGenerator(label_bias=0.3, proxy_strength=0.8)
    train = generator.generate(6_000, rng)
    model = TableClassifier(LogisticRegression()).fit(train)

    # The test set never exists as one table: each shard is a callable
    # the engine materialises on demand, one map node at a time.
    sources = [
        functools.partial(load_shard, 1_000 + index, rows_per_shard)
        for index in range(n_shards)
    ]
    parts = PartitionedTable.from_sources(
        sources, train.schema, shard_rows=[rows_per_shard] * n_shards
    )
    print(f"partitioned test set: {n_shards} shards x {rows_per_shard:,} "
          f"rows = {n_shards * rows_per_shard:,} rows (lazy)")

    # The store is where partials spill (tagged ``shard:<fp>``) — and
    # what makes a re-audit after editing one shard cost one shard.
    store = ArtifactStore.on_disk(tempfile.mkdtemp(prefix="fact-shards-"))
    auditor = FACTAuditor(n_bootstrap=200, n_jobs=2, store=store)
    start = time.perf_counter()
    sharded = auditor.audit(model, parts, np.random.default_rng(7))
    sharded_s = time.perf_counter() - start
    print(f"sharded audit: {sharded_s:.2f}s   "
          f"fingerprint {sharded.fingerprint()}")

    if full:
        print("(--full skips the serial comparison: the whole table "
              "would have to materialise)")
        return

    serial = FACTAuditor(n_bootstrap=200).audit(
        model, parts.concat(), np.random.default_rng(7)
    )
    print(f"serial audit fingerprint:  {serial.fingerprint()}")
    assert sharded.fingerprint() == serial.fingerprint()
    print("byte-identical: True — sharding changed memory and wall-clock, "
          "not one byte of the report")


if __name__ == "__main__":
    main()
