"""Small shared helpers for the benchmark layer.

``format_table`` renders the fixed-width tables that
``python -m repro bench`` and the experiment benches print.
"""

from __future__ import annotations

from typing import Sequence


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table (the shape the paper's tables would have)."""
    rendered_rows = [
        ["-" if value is None
         else f"{value:.4f}" if isinstance(value, float) else str(value)
         for value in row]
        for row in rows
    ]
    widths = [
        max(len(str(headers[index])),
            *(len(row[index]) for row in rendered_rows))
        for index in range(len(headers))
    ] if rendered_rows else [len(str(h)) for h in headers]
    lines = [f"== {title} =="]
    lines.append("  ".join(
        str(header).ljust(width) for header, width in zip(headers, widths)
    ))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)
        ))
    return "\n".join(lines)
