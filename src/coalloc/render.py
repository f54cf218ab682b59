"""Static renderers: Gantt charts (SVG and plain text) and balance bar charts.

Everything is emitted as deterministic text so repeated runs produce
byte-identical artifacts. The Gantt charts grow with the schedule and are
written line by line to an open file; the bar chart, one bar per agent, is
returned whole.
"""

from __future__ import annotations

from typing import TextIO

from .model import FinalSchedule, format_number

_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#76b7b2",
    "#edc948",
    "#b07aa1",
    "#9c755f",
)

_ROW_H = 22
_LEFT = 110
_WIDTH = 760
_TICKS = 8  # about this many gridlines on the SVG time axis
_TEXT_WIDTH = 72  # bar columns in the plain-text chart
_FONT = 'font-family="monospace" font-size="12"'


def _color_map(keys: list[str]) -> dict[str, str]:
    return {k: _PALETTE[i % len(_PALETTE)] for i, k in enumerate(sorted(set(keys)))}


def _ticks(span: float) -> list[float]:
    """Tick times from 0 to ``span`` (positive) at a power-of-two step."""
    raw = span / _TICKS
    step = 1.0
    while step < raw:
        step *= 2
    while step / 2 >= raw:
        step /= 2
    ticks = []
    t = 0.0
    while t <= span:
        ticks.append(t)
        t += step
    return ticks


def gantt_svg(schedule: FinalSchedule, out: TextIO) -> None:
    """Write the chart to ``out`` line by line: task rows on the vertical
    axis, scaled time intervals horizontally."""
    tasks = sorted({p.task_id for p in schedule.placements})
    colors = _color_map([p.agent_id for p in schedule.placements])
    span = max(schedule.makespan, 1.0)
    scale = (_WIDTH - _LEFT - 20) / span
    height = _ROW_H * (len(tasks) + 2) + 20
    row_of = {t: i for i, t in enumerate(tasks)}
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}">\n'
        f'<rect width="{_WIDTH}" height="{height}" fill="white"/>\n'
    )
    for tick in _ticks(span):
        x = _LEFT + tick * scale
        out.write(
            f'<line x1="{x:.1f}" y1="10" x2="{x:.1f}" '
            f'y2="{height - 28}" stroke="#dddddd"/>\n'
            f'<text x="{x:.1f}" y="{height - 12}" {_FONT} '
            f'text-anchor="middle">{format_number(tick)}</text>\n'
        )
    for p in sorted(schedule.placements, key=lambda p: (p.task_id, p.start)):
        y = 14 + row_of[p.task_id] * _ROW_H
        x = _LEFT + p.start * scale
        w = max(p.duration * scale, 1.0)
        out.write(
            f'<text x="{_LEFT - 8}" y="{y + 12}" {_FONT} '
            f'text-anchor="end">{p.task_id}</text>\n'
            f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{_ROW_H - 6}" '
            f'fill="{colors[p.agent_id]}">'
            f"<title>{p.task_id} on {p.resource_id} "
            f"[{format_number(p.start)}, {format_number(p.end)})</title></rect>\n"
        )
    out.write("</svg>\n")


def gantt_text(schedule: FinalSchedule, out: TextIO) -> None:
    """Plain-text fallback, written to ``out``: one scaled bar line per task."""
    if not schedule.placements:
        out.write("(empty schedule)\n")
        return
    span = max(schedule.makespan, 1e-9)
    id_w = max(len(p.task_id) for p in schedule.placements)
    res_w = max(len(p.resource_id) for p in schedule.placements)
    for p in sorted(schedule.placements, key=lambda p: (p.task_id, p.start)):
        lo = int(round(p.start / span * _TEXT_WIDTH))
        hi = int(round(p.end / span * _TEXT_WIDTH))
        hi = max(hi, lo + 1) if p.duration > 0 else hi
        bar = " " * lo + "#" * (hi - lo)
        out.write(
            f"{p.task_id:<{id_w}} {p.resource_id:<{res_w}} "
            f"|{bar:<{_TEXT_WIDTH}}| {format_number(p.start)}..{format_number(p.end)}\n"
        )
    out.write(f"{'':<{id_w}} {'':<{res_w}}  makespan "
              f"{format_number(schedule.makespan)}\n")


def bar_chart_svg(series: list[tuple[str, int]], title: str) -> str:
    """Vertical bar chart for (label, count) pairs, e.g. tasks per agent."""
    height = 240
    bar_zone = height - 70
    n = max(len(series), 1)
    bar_w = min(80, (_WIDTH - 80) // n)
    peak = max((count for _, count in series), default=0)
    peak = max(peak, 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="20" {_FONT} text-anchor="middle">'
        f"{title}</text>",
    ]
    for i, (label, count) in enumerate(series):
        x = 50 + i * (bar_w + 14)
        h = int(bar_zone * count / peak)
        y = height - 40 - h
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<rect x="{x}" y="{y}" width="{bar_w}" height="{h}" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x + bar_w // 2}" y="{y - 6}" {_FONT} '
            f'text-anchor="middle">{count}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w // 2}" y="{height - 22}" {_FONT} '
            f'text-anchor="middle">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
