"""The data lake: a repository of datasets with minimal metadata.

The paper defines a data lake as a repository whose items are datasets about
which nothing more is known than their attribute names and, possibly, their
domain-independent types.  :class:`DataLake` is exactly that: a named
collection of :class:`~repro.tables.table.Table` objects, loadable from a
directory of CSV files, with the bookkeeping the evaluation needs (sizes,
attribute enumeration, sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tables.csv_io import read_csv_directory, write_csv_directory
from repro.tables.column import Column
from repro.tables.table import Table


@dataclass(frozen=True, order=True)
class AttributeRef:
    """A fully qualified attribute: (table name, column name).

    Used as the key type of every index in the system, for both lake
    attributes and target attributes.
    """

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"

    @classmethod
    def parse(cls, text: str) -> "AttributeRef":
        """Parse a ``table.column`` string (the column may contain dots)."""
        table, _, column = text.partition(".")
        if not table or not column:
            raise ValueError(f"cannot parse attribute reference from {text!r}")
        return cls(table, column)


class DataLake:
    """A named repository of tables.

    Tables are keyed by name; insertion order is preserved so that iteration
    (and therefore indexing) is deterministic.
    """

    def __init__(self, name: str = "lake", tables: Optional[Sequence[Table]] = None) -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}
        for table in tables or []:
            self.add_table(table)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_directory(
        cls,
        directory: Union[str, Path],
        name: Optional[str] = None,
        max_tables: Optional[int] = None,
        max_rows: Optional[int] = None,
    ) -> "DataLake":
        """Load every CSV file under ``directory`` into a lake."""
        directory = Path(directory)
        tables = read_csv_directory(directory, max_tables=max_tables, max_rows=max_rows)
        return cls(name or directory.name, tables)

    def to_directory(self, directory: Union[str, Path]) -> List[Path]:
        """Materialise the lake as a directory of CSV files."""
        return write_csv_directory(self.tables, directory)

    def add_table(self, table: Table) -> None:
        """Add ``table`` to the lake, replacing any table with the same name."""
        self._tables[table.name] = table

    def remove_table(self, name: str) -> None:
        """Remove the named table (no-op when absent)."""
        self._tables.pop(name, None)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    @property
    def tables(self) -> List[Table]:
        """All tables, in insertion order."""
        return list(self._tables.values())

    @property
    def table_names(self) -> List[str]:
        """All table names, in insertion order."""
        return list(self._tables)

    def table(self, name: str) -> Table:
        """The table called ``name`` (KeyError when absent)."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"lake {self.name!r} has no table {name!r}") from None

    def column(self, ref: AttributeRef) -> Column:
        """The column identified by ``ref``."""
        return self.table(ref.table).column(ref.column)

    def attributes(self) -> Iterator[Tuple[AttributeRef, Column]]:
        """Iterate over every (attribute reference, column) pair in the lake.

        Tables are visited in sorted-name order (columns in table order) so
        the enumeration is independent of lake insertion order — the same
        stable ordering contract index construction uses (``add_lake`` and
        ``execution.partition_tables`` sort table names themselves).
        """
        for name in sorted(self._tables):
            table = self._tables[name]
            for column in table.columns:
                yield AttributeRef(table.name, column.name), column

    # ------------------------------------------------------------------ #
    # statistics used by the evaluation
    # ------------------------------------------------------------------ #
    @property
    def attribute_count(self) -> int:
        """Total number of attributes across the lake."""
        return sum(table.arity for table in self._tables.values())

    def estimated_bytes(self) -> int:
        """Approximate total size of the lake (denominator of Table II)."""
        return sum(table.estimated_bytes() for table in self._tables.values())

    def describe(self) -> Dict[str, object]:
        """Corpus-level statistics in the style of Figure 2."""
        tables = self.tables
        arities = [table.arity for table in tables]
        cardinalities = [table.cardinality for table in tables]
        numeric_ratios = [table.numeric_ratio for table in tables]
        return {
            "name": self.name,
            "tables": len(tables),
            "attributes": self.attribute_count,
            "estimated_bytes": self.estimated_bytes(),
            "arity_mean": float(np.mean(arities)) if arities else 0.0,
            "arity_max": max(arities) if arities else 0,
            "cardinality_mean": float(np.mean(cardinalities)) if cardinalities else 0.0,
            "cardinality_max": max(cardinalities) if cardinalities else 0,
            "numeric_attribute_ratio": float(np.mean(numeric_ratios)) if numeric_ratios else 0.0,
        }

    def sample(self, n: int, seed: int = 0, name: Optional[str] = None) -> "DataLake":
        """A new lake with ``n`` tables sampled without replacement."""
        if n >= len(self._tables):
            return DataLake(name or f"{self.name}_sample", self.tables)
        generator = np.random.default_rng(seed)
        chosen = generator.choice(len(self._tables), size=n, replace=False)
        tables = self.tables
        return DataLake(name or f"{self.name}_sample", [tables[i] for i in sorted(chosen)])
