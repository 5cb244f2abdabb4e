"""Columnar trace rendering tests."""

from repro import Trace, begin, check, end, read, write
from repro.analysis.timeline import (
    BEGIN_GLYPH,
    END_GLYPH,
    render_columns,
    render_with_verdict,
)


def test_one_column_per_thread(rho2):
    rendered = render_columns(rho2)
    lines = rendered.splitlines()
    header = lines[0]
    assert "t1" in header and "t2" in header
    assert header.index("t1") < header.index("t2")
    assert len(lines) == 1 + len(rho2)


def test_glyphs_and_ops(rho2):
    rendered = render_columns(rho2)
    assert BEGIN_GLYPH in rendered
    assert END_GLYPH in rendered
    assert "w(x)" in rendered
    assert "r(y)" in rendered


def test_events_land_in_their_thread_column(rho2):
    lines = render_columns(rho2).splitlines()
    header = lines[0]
    t2_col = header.index("t2")
    # e4 = r(x) by t2 — its cell must start at or after t2's column.
    row = lines[4]
    assert row.index("r(x)") >= t2_col


def test_rows_numbered_like_the_paper(rho2):
    lines = render_columns(rho2).splitlines()
    assert lines[1].lstrip().startswith("1")
    assert lines[-1].lstrip().startswith(str(len(rho2)))


def test_violation_marker(rho2):
    result = check(rho2)
    rendered = render_columns(rho2, violation=result.violation)
    marked = [l for l in rendered.splitlines() if "← violation" in l]
    assert len(marked) == 1
    assert f"({result.violation.site} check)" in marked[0]


def test_explicit_thread_order():
    trace = Trace([write("a", "x"), write("b", "x")])
    rendered = render_columns(trace, threads=["b", "a"])
    header = rendered.splitlines()[0]
    assert header.index("b") < header.index("a")


def test_labeled_markers_keep_label():
    trace = Trace([begin("t1", "m"), end("t1", "m")])
    rendered = render_columns(trace)
    assert f"{BEGIN_GLYPH}m" in rendered
    assert f"{END_GLYPH}m" in rendered


def test_render_with_verdict(rho1, rho2):
    good = render_with_verdict(rho1)
    assert "✓" in good
    bad = render_with_verdict(rho2)
    assert "✗" in bad
    assert "← violation" in bad


def test_empty_trace():
    assert render_columns(Trace([])) == ""
