"""Reporting layer for benchmarks and durable sweep outputs.

Pure formatting: every function takes plain documents (a sweep manifest,
its records) and returns text.  Nothing here reads the filesystem or
imports :mod:`repro.experiments.store` — the store's CLI imports *this*
module to render ``report`` output, keeping the layering acyclic.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence


def format_percentage(value: float, decimals: int = 2) -> str:
    """Render a fraction as a percentage string, e.g. ``0.694 -> '69.40%'``."""
    return f"{value * 100:.{decimals}f}%"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render rows as a fixed-width text table (used by the benchmark output)."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _short_error(record: Mapping[str, Any], width: int = 48) -> str:
    error = record.get("error")
    if not error:
        return ""
    text = " ".join(str(error).split())
    return text if len(text) <= width else text[: width - 1] + "…"


def sweep_report(
    manifest: Mapping[str, Any], records: Sequence[Mapping[str, Any]]
) -> str:
    """Render one store sweep (manifest + outcome records) as text.

    Later records for the same spec index win — the same rule the store's
    ``load_outcomes`` applies — so a resumed sweep reports each run once.
    Records without an ``index`` (derived records that older stores hold)
    are counted but not tabulated.
    """
    by_index: dict[int, Mapping[str, Any]] = {}
    loose = 0
    for record in records:
        index = record.get("index")
        if isinstance(index, int) and not isinstance(index, bool):
            by_index[index] = record
        else:
            loose += 1
    failed = sum(1 for r in by_index.values() if r.get("error"))
    header = [
        f"sweep {manifest.get('sweep_id', '?')} ({manifest.get('name', '?')})",
        f"  status: {manifest.get('status', '?')}"
        f"  created: {manifest.get('created_at', '?')}"
        f"  git: {manifest.get('git_revision') or 'unknown'}",
        f"  runs: {len(by_index)} recorded, {failed} failed"
        + (f", {loose} metric sample(s)" if loose else ""),
    ]
    if not by_index:
        return "\n".join(header)
    rows = []
    for index in sorted(by_index):
        record = by_index[index]
        spec = record.get("spec") or {}
        wall = record.get("wall_time")
        rows.append(
            (
                index,
                spec.get("scenario", "?"),
                "error" if record.get("error") else "ok",
                record.get("error_kind") or "",
                f"{wall:.3f}s" if isinstance(wall, (int, float)) else "",
                _short_error(record),
            )
        )
    table = format_table(
        ("idx", "scenario", "status", "kind", "wall", "error"), rows
    )
    return "\n".join(header) + "\n" + table


def landscape_report(grid: Mapping[str, Any]) -> str:
    """Render a population landscape grid as a success-probability table.

    ``grid`` is the ``landscape-grid`` document
    :func:`repro.population.landscape.sweep_landscape` computes from the
    sweep's outcome records: two named axes plus one cell per (x, y)
    combination.  Rows are y-axis values, columns x-axis values; cells
    show the attack success probability (``err`` for failed cells, ``—``
    for missing ones).
    """
    axis_x = grid.get("axis_x") or {}
    axis_y = grid.get("axis_y") or {}
    x_values = list(axis_x.get("values") or [])
    y_values = list(axis_y.get("values") or [])
    by_xy: dict[tuple[float, float], Mapping[str, Any]] = {}
    for cell in grid.get("cells") or []:
        by_xy[(cell.get("x"), cell.get("y"))] = cell
    headers = [f"{axis_y.get('name', 'y')} \\ {axis_x.get('name', 'x')}"] + [
        f"{x:g}" for x in x_values
    ]
    rows = []
    for y in y_values:
        row: list[object] = [f"{y:g}"]
        for x in x_values:
            cell = by_xy.get((x, y))
            if cell is None:
                row.append("—")
            elif cell.get("error"):
                row.append("err")
            else:
                rate = cell.get("success_rate")
                row.append(
                    format_percentage(rate, 1)
                    if isinstance(rate, (int, float))
                    else "—"
                )
        rows.append(row)
    title = f"landscape {grid.get('name', '')}".strip()
    return format_table(headers, rows, title=title)


def degradation_report(campaign: Mapping[str, Any]) -> str:
    """Render a chaos campaign's per-checkpoint degradation timeline.

    ``campaign`` is the ``chaos-campaign-summary`` document
    :func:`repro.population.chaos.run_chaos_campaign` computes from the
    sweep's checkpoint outcome records.  One row per checkpoint: simulated time,
    covering phase, fleet-wide shift success, cumulative fault drops, and
    one per-group survival column (the group's attack *success* rate — the
    fraction of its clients the attacker still shifted despite the faults)
    per correlation group seen anywhere in the campaign.
    """
    checkpoints = list(campaign.get("checkpoints") or [])
    group_names = sorted(
        {
            name
            for entry in checkpoints
            for name in (entry.get("groups") or {})
        }
    )
    headers = ["t (s)", "phase", "success", "fault drops"] + [
        f"{name} ok" for name in group_names
    ]
    rows = []
    for entry in checkpoints:
        if entry.get("error"):
            rows.append(
                [f"{entry.get('until', 0):g}", "err", "—", "—"]
                + ["—"] * len(group_names)
            )
            continue
        stats = entry.get("fault_stats") or {}
        drops = int(stats.get("dropped_partition", 0)) + int(
            stats.get("dropped_loss", 0)
        )
        rate = entry.get("success_rate")
        row: list[object] = [
            f"{entry.get('until', 0):g}",
            entry.get("phase") or "—",
            format_percentage(rate, 1) if isinstance(rate, (int, float)) else "—",
            drops,
        ]
        groups = entry.get("groups") or {}
        for name in group_names:
            group = groups.get(name)
            group_rate = (group or {}).get("success_rate")
            row.append(
                format_percentage(group_rate, 1)
                if isinstance(group_rate, (int, float))
                else "—"
            )
        rows.append(row)
    title = f"chaos campaign {campaign.get('name', '')}".strip()
    return format_table(headers, rows, title=title)
