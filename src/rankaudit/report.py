"""Report assembly and rendering.

A Report is an ordered list of sections (tables or key-value blocks) plus
a provenance block (input hashes, tool version, root seed, options).
JSON and CSV renderings are canonical so repeated runs with the same
inputs and seed are byte-identical; only the human-readable text rendering
carries a wall-clock timestamp.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Iterable, Mapping, Sequence

from .util import sha256_hex


@dataclass
class Table:
    header: list[str]
    rows: list[list[Any]]


@dataclass
class Report:
    title: str
    provenance: dict
    sections: list[tuple[str, Table | dict]] = field(default_factory=list)

    def add_table(self, title: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
        self.sections.append((title, Table(list(header), [list(r) for r in rows])))

    def add_kv(self, title: str, items: Mapping[str, Any]) -> None:
        self.sections.append((title, dict(items)))


def provenance_block(version: str, seed: int, inputs: Mapping[str, bytes] | None,
                     options: Mapping[str, Any]) -> dict:
    block: dict[str, Any] = {"tool": "rankaudit", "version": version, "seed": seed}
    if inputs:
        block["inputs"] = {name: sha256_hex(data) for name, data in sorted(inputs.items())}
    block["options"] = dict(options)
    return block


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def render_text(report: Report) -> str:
    lines = [report.title, "=" * len(report.title),
             f"generated: {datetime.now(timezone.utc).isoformat(timespec='seconds')}", ""]
    for title, payload in report.sections:
        lines.append(title)
        lines.append("-" * len(title))
        if isinstance(payload, Table):
            widths = [len(h) for h in payload.header]
            str_rows = [[_cell(v) for v in row] for row in payload.rows]
            for row in str_rows:
                widths = [max(w, len(c)) for w, c in zip(widths, row)]
            fmt = "  ".join(f"{{:<{w}}}" for w in widths)
            lines.append(fmt.format(*payload.header))
            for row in str_rows:
                lines.append(fmt.format(*row))
        else:
            for key in payload:
                lines.append(f"{key}: {_cell(payload[key])}")
        lines.append("")
    prov = report.provenance
    lines.append("provenance")
    lines.append("----------")
    lines.append(json.dumps(prov, indent=2, sort_keys=True))
    return "\n".join(lines) + "\n"


def report_to_dict(report: Report) -> dict:
    sections = []
    for title, payload in report.sections:
        if isinstance(payload, Table):
            sections.append(
                {"title": title, "table": {"header": payload.header, "rows": payload.rows}}
            )
        else:
            sections.append({"title": title, "values": payload})
    return {
        "title": report.title,
        "sections": sections,
        "provenance": report.provenance,
    }


def render_json(report: Report, extra: Mapping[str, Any] | None = None) -> str:
    """Canonical JSON of the report plus `extra` top-level keys (e.g. raw results)."""
    doc = {**report_to_dict(report), **(extra or {})}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """The header and rows as CSV text with "\n" line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
