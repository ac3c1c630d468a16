"""One-command reproduction report.

``generate_report`` runs a configurable set of experiments and writes a
single self-contained Markdown report — tables plus terminal-style charts
— so a reviewer can regenerate the paper's evaluation with::

    python -m repro report --output REPORT.md

The experiment set defaults to everything; pass names to narrow it.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from . import experiments
from .export import markdown_table, write_markdown
from .report import format_table

PathLike = Union[str, Path]

#: Experiment registry used by the report (name -> callable).
REPORT_EXPERIMENTS: Dict[str, Callable] = {
    "Figure 2 - traffic breakdown": experiments.figure2,
    "Figure 3 - CTR cache size sweep": experiments.figure3,
    "Figure 4 - early CTR access": experiments.figure4,
    "Figure 5 - classic optimisations": experiments.figure5,
    "Figure 8 - online-learning convergence": experiments.figure8,
    "Figure 9 - CET exploration": experiments.figure9,
    "Figure 10 - performance": experiments.figure10,
    "Figure 11 - CTR miss rates": experiments.figure11,
    "Figure 12 - prediction quality": experiments.figure12,
    "Figure 13 - good-locality fraction": experiments.figure13,
    "Figure 14 - SMAT": experiments.figure14,
    "Figure 16 - vs EMCC/RMCC": experiments.figure16,
    "Figure 17 - ML workloads": experiments.figure17,
    "Table 2 - storage overhead": experiments.table2,
    "Table 4 - design variations": experiments.table4,
}


def generate_report(
    output: PathLike = "REPORT.md",
    include: Optional[Sequence[str]] = None,
    title: str = "COSMOS reproduction report",
) -> Path:
    """Run experiments and write a Markdown report.

    Args:
        output: Report path.
        include: Substrings selecting which registry entries to run; None
            runs everything.
        title: Report heading.

    Returns:
        The path written.
    """
    selected: List[str] = []
    for name in REPORT_EXPERIMENTS:
        if include is None or any(token in name for token in include):
            selected.append(name)
    lines: List[str] = [f"# {title}", ""]
    lines.append(
        "Auto-generated by `repro.bench.summary.generate_report`. Each section"
        " reproduces one of the paper's tables/figures; see EXPERIMENTS.md for"
        " the paper-vs-measured interpretation."
    )
    lines.append("")
    for name in selected:
        start = time.time()
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            rows = REPORT_EXPERIMENTS[name](quiet=True)
        elapsed = time.time() - start
        lines.append(f"## {name}")
        lines.append("")
        lines.append(markdown_table(rows) if rows else "(no rows)")
        lines.append("")
        lines.append(f"_{len(rows)} rows, computed in {elapsed:.1f}s._")
        lines.append("")
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines))
    return path


__all__ = ["REPORT_EXPERIMENTS", "generate_report", "format_table", "write_markdown"]
