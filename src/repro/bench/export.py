"""Export experiment results to CSV / JSON / Markdown.

The benchmarks print text tables; this module persists the same rows in
machine-readable form so downstream plotting (outside this offline repo)
can regenerate the paper's figures.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

PathLike = Union[str, Path]


def _columns(rows: List[Dict[str, object]]) -> List[str]:
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def write_csv(rows: List[Dict[str, object]], path: PathLike) -> Path:
    """Write rows as CSV (header = union of keys, first-seen order)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = _columns(rows)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def write_json(rows: List[Dict[str, object]], path: PathLike, experiment: str = "") -> Path:
    """Write rows as a JSON document with a small metadata envelope."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"experiment": experiment, "rows": rows}
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, default=str)
    return path


def markdown_table(rows: List[Dict[str, object]]) -> str:
    """Rows as a GitHub-flavoured Markdown table (floats to 4 significant digits)."""
    columns = _columns(rows)
    lines = ["| " + " | ".join(columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            cells.append(f"{value:.4g}" if isinstance(value, float) else str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def write_markdown(rows: List[Dict[str, object]], path: PathLike, title: str = "") -> Path:
    """Write rows as a GitHub-flavoured Markdown table."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    heading = f"# {title}\n\n" if title else ""
    path.write_text(heading + markdown_table(rows) + "\n")
    return path


def read_json(path: PathLike) -> List[Dict[str, object]]:
    """Load rows written by :func:`write_json`."""
    with open(Path(path)) as handle:
        document = json.load(handle)
    return document["rows"]


def export_experiment(
    rows: List[Dict[str, object]],
    output_dir: PathLike,
    name: str,
    formats: Sequence[str] = ("csv", "json"),
) -> List[Path]:
    """Persist one experiment's rows in the requested formats.

    Args:
        rows: Rows returned by an ``repro.bench.experiments`` function.
        output_dir: Directory to write into (created if missing).
        name: File stem, e.g. ``fig10``.
        formats: Any of ``csv``, ``json``, ``md``.
    """
    output_dir = Path(output_dir)
    written: List[Path] = []
    for fmt in formats:
        if fmt == "csv":
            written.append(write_csv(rows, output_dir / f"{name}.csv"))
        elif fmt == "json":
            written.append(write_json(rows, output_dir / f"{name}.json", experiment=name))
        elif fmt == "md":
            written.append(write_markdown(rows, output_dir / f"{name}.md", title=name))
        else:
            raise ValueError(f"unknown export format {fmt!r}; expected csv/json/md")
    return written
