"""Dataset substrate: schema-annotated tables, I/O, splits, generators."""

from repro.data.io import read_csv, read_csv_string, write_csv
from repro.data.schema import (
    ColumnRole,
    ColumnSpec,
    ColumnType,
    Schema,
    categorical,
    numeric,
)
from repro.data.split import (
    bootstrap_indices,
    k_fold,
    k_fold_indices,
    three_way_split,
    train_test_split,
)
from repro.data.table import Table
from repro.data.partition import (
    PartitionedTable,
    merge_counts,
    partition,
)
from repro.data.impute import SimpleImputer

__all__ = [
    "PartitionedTable",
    "SimpleImputer",
    "ColumnRole",
    "ColumnSpec",
    "ColumnType",
    "Schema",
    "Table",
    "bootstrap_indices",
    "categorical",
    "k_fold",
    "k_fold_indices",
    "merge_counts",
    "numeric",
    "partition",
    "read_csv",
    "read_csv_string",
    "three_way_split",
    "train_test_split",
    "write_csv",
]
