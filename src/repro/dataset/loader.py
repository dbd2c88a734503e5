"""CSV persistence for :class:`~repro.dataset.table.Dataset`.

Kept deliberately small: the benchmark datasets in this repo are generated
programmatically, but downstream users load their own relations from CSV.
:func:`open_relation` additionally accepts a shard directory
(:mod:`repro.dataset.sharded`), so CLI entry points take either form of
input with one argument.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.dataset.relation import Relation
from repro.dataset.table import Dataset


def read_csv(path: str | Path, missing_token: str = "") -> Dataset:
    """Load a CSV with a header row into a :class:`Dataset`.

    Empty fields become ``missing_token`` (HoloDetect treats missing values as
    just another string value; the paper's datasets use tokens like ``<NaN>``).
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty — need a header row") from None
        rows = [[field if field != "" else missing_token for field in row] for row in reader]
    return Dataset.from_rows(header, rows)


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset (with header) to CSV."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(dataset.attributes)
        for row in range(dataset.num_rows):
            writer.writerow(dataset.row_values(row))


def open_relation(path: str | Path, missing_token: str = "") -> Relation:
    """Open either a CSV file or a shard directory as a relation.

    A directory containing ``manifest.json`` opens as an out-of-core
    :class:`~repro.dataset.sharded.ShardedDataset`; anything else is read as
    a headered CSV into an in-memory :class:`Dataset`.
    """
    path = Path(path)
    if path.is_dir():
        from repro.dataset.sharded import ShardedDataset

        return ShardedDataset(path)
    return read_csv(path, missing_token=missing_token)
