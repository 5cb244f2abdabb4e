"""Paper-style columnar trace rendering.

The paper draws traces as one column per thread with events in trace
order (Figures 1–4). This module renders any trace that way for the
terminal, optionally annotating the event where a checker reports a
violation — the fastest way to *see* a cycle in a small trace:

    1  t1        t2
    2  ⊲
    3  w(x)
    4            ⊲
    5            r(x)
    6            w(y)
    7  r(y)   ← violation (read check)
    ...

Used by ``repro zoo NAME --render`` and the examples; plain text, no
dependencies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.violations import Violation
from ..trace.events import Op, format_op
from ..trace.trace import Trace

#: Rendered in place of begin/end, matching the paper's notation.
BEGIN_GLYPH = "⊲"
END_GLYPH = "⊳"


def _cell(event) -> str:
    if event.op is Op.BEGIN:
        return BEGIN_GLYPH if event.target is None else f"{BEGIN_GLYPH}{event.target}"
    if event.op is Op.END:
        return END_GLYPH if event.target is None else f"{END_GLYPH}{event.target}"
    return format_op(event.op, event.target)


def render_columns(
    trace: Trace,
    violation: Optional[Violation] = None,
    threads: Optional[Sequence[str]] = None,
    min_width: int = 8,
) -> str:
    """Render ``trace`` as one column per thread (Figure 1 style).

    Args:
        trace: The trace to draw.
        violation: If given, the row of ``violation.event_idx`` gets a
            ``← violation (<site> check)`` marker.
        threads: Column order (default: first-appearance order).
        min_width: Minimum column width.

    Returns:
        The rendered multi-line string (no trailing newline).
    """
    if threads is None:
        seen: List[str] = []
        for event in trace:
            if event.thread not in seen:
                seen.append(event.thread)
        threads = seen
    column_of = {name: i for i, name in enumerate(threads)}

    cells = [_cell(event) for event in trace]
    widths = []
    for i, name in enumerate(threads):
        body = max(
            (len(cells[e.idx]) for e in trace if column_of[e.thread] == i),
            default=0,
        )
        widths.append(max(min_width, len(name) + 2, body + 2))

    index_width = max(2, len(str(len(trace))))
    header = " " * (index_width + 2) + "".join(
        name.ljust(widths[i]) for i, name in enumerate(threads)
    )
    lines = [header.rstrip()]
    for event in trace:
        column = column_of[event.thread]
        row = str(event.idx + 1).rjust(index_width) + "  "
        for i in range(len(threads)):
            text = cells[event.idx] if i == column else ""
            row += text.ljust(widths[i])
        if violation is not None and event.idx == violation.event_idx:
            row = row.rstrip() + f"   ← violation ({violation.site} check)"
        lines.append(row.rstrip())
    return "\n".join(lines)


def render_with_verdict(trace: Trace, algorithm: str = "aerodrome") -> str:
    """Render a trace with its checker verdict appended.

    Convenience used by the CLI: runs ``algorithm``, draws the columns
    with the violation row marked, and adds a one-line verdict footer.
    """
    from ..api.session import check

    result = check(trace, algorithm=algorithm)
    body = render_columns(trace, violation=result.violation)
    return f"{body}\n\n{result}"
