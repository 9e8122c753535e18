"""Profile selection, column centering, presence curves, and plot emission."""

import csv
from xml.dom import minidom

import numpy as np
import pytest

from lexdiv.numerics import hypergeom_presence
from lexdiv.profiles import (
    ProfilesError,
    center_columns,
    emit_plot_data,
    hdd_presence_curves,
    select_profiles,
    subset_rows,
)
from lexdiv.sampling import ScoreMatrix


def matrix_with_extremes(n_rows=20, seed=2):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.6, 0.02, size=(n_rows, 4))
    # two rows with strongly increasing and two with strongly decreasing
    # cross-condition trends
    values[0] += np.array([0.0, 0.1, 0.2, 0.3])
    values[1] += np.array([0.0, 0.08, 0.16, 0.24])
    values[2] -= np.array([0.0, 0.1, 0.2, 0.3])
    values[3] -= np.array([0.0, 0.08, 0.16, 0.24])
    ids = [f"t{i:02d}" for i in range(n_rows)]
    return ScoreMatrix(ids, ["240", "120", "80", "60"], values)


def test_select_profiles_finds_extreme_rows():
    matrix = matrix_with_extremes()
    sel = select_profiles(matrix, count=12)
    assert len(sel.selected_ids) == 12
    assert len(set(sel.selected_ids)) == 12
    # the four planted extreme rows must be selected
    assert {"t00", "t01", "t02", "t03"} <= set(sel.selected_ids)


def test_select_profiles_trace_covers_all_rows():
    matrix = matrix_with_extremes()
    sel = select_profiles(matrix, count=12)
    assert set(sel.trace) == set(matrix.row_ids)
    # 6 condition pairs, top-4 each side
    large_total = sum(v[0] for v in sel.trace.values())
    small_total = sum(v[1] for v in sel.trace.values())
    assert large_total == small_total == 6 * 4


def test_select_profiles_refuses_one_column():
    """With no pair of columns nothing is tallied, so any rows would be
    called the most extreme."""
    matrix = matrix_with_extremes()
    one = ScoreMatrix(matrix.row_ids, ["240"], matrix.values[:, :1])
    with pytest.raises(ProfilesError,
                       match="profiles need at least 2 columns, got 1"):
        select_profiles(one)


def test_select_profiles_small_matrix_selects_all(caplog):
    matrix = matrix_with_extremes(n_rows=5)
    with caplog.at_level("WARNING"):
        sel = select_profiles(matrix, count=12)
    assert sel.selected_ids == tuple(matrix.row_ids)
    assert any("5 rows" in r.message for r in caplog.records)


@pytest.mark.parametrize("count", [0, -1, -4])
def test_select_profiles_rejects_count_below_one(count):
    with pytest.raises(ProfilesError, match="profile count must be >= 1"):
        select_profiles(matrix_with_extremes(), count=count)


def test_select_profiles_deterministic():
    matrix = matrix_with_extremes()
    a = select_profiles(matrix, count=12)
    b = select_profiles(matrix, count=12)
    assert a.selected_ids == b.selected_ids


def test_select_profiles_tie_break_lexicographic():
    # rows constant across conditions: every pairwise difference ties, so
    # within each tally class the lexicographically smaller ids must win
    values = np.tile(np.linspace(0.1, 0.9, 9)[:, None], (1, 3))
    matrix = ScoreMatrix([f"r{i}" for i in range(9)], ["a", "b", "c"], values)
    a = select_profiles(matrix, count=6)
    b = select_profiles(matrix, count=6)
    assert a.selected_ids == b.selected_ids
    tallies = {rid: a.trace[rid] for rid in matrix.row_ids}
    for picked in a.selected_ids:
        for other in matrix.row_ids:
            if other in a.selected_ids:
                continue
            # any unpicked row with the same tallies must sort after some
            # picked row of that class
            if tallies[other] == tallies[picked]:
                assert other > picked


def test_subset_rows_preserves_selection_order():
    matrix = matrix_with_extremes()
    sel = select_profiles(matrix, count=12)
    sub = subset_rows(matrix, sel)
    assert sub.row_ids == list(sel.selected_ids)
    for rid, row in zip(sub.row_ids, sub.values):
        i = matrix.row_ids.index(rid)
        assert np.array_equal(row, matrix.values[i])


def test_center_columns():
    matrix = matrix_with_extremes()
    centered = center_columns(matrix)
    assert np.allclose(centered.values.mean(axis=0), 0.0, atol=1e-12)
    assert centered.meta["centered"] is True
    # differences between rows are untouched
    assert np.allclose(
        centered.values[0] - centered.values[1],
        matrix.values[0] - matrix.values[1],
    )


# ------------------------------------------------------------ presence curves

def test_presence_curves_hapax_is_linear():
    f_values, n_values, grid = hdd_presence_curves(
        n_tokens=300, f_values=range(1, 21), n_values=range(10, 301)
    )
    row = grid[f_values.index(1)]
    for j, n in enumerate(n_values):
        assert row[j] == pytest.approx(n / 300.0, abs=1e-12)


def test_presence_curves_monotone_and_end_at_one():
    f_values, n_values, grid = hdd_presence_curves(
        n_tokens=300, f_values=range(1, 21), n_values=range(10, 301)
    )
    assert np.all(np.diff(grid, axis=1) >= -1e-15)  # nondecreasing in n
    assert np.all(np.diff(grid, axis=0) >= -1e-15)  # nondecreasing in f
    assert np.allclose(grid[:, -1], 1.0)


def test_presence_curves_match_direct_evaluation():
    f_values, n_values, grid = hdd_presence_curves(
        n_tokens=50, f_values=range(1, 4), n_values=range(5, 51, 5)
    )
    for i, f in enumerate(f_values):
        for j, n in enumerate(n_values):
            assert grid[i, j] == hypergeom_presence(50, f, n)


# ------------------------------------------------------------------ emission

def test_emit_csv_long_form(tmp_path):
    matrix = matrix_with_extremes(n_rows=4)
    out = tmp_path / "plot.csv"
    emit_plot_data(matrix, out, format="csv")
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["series", "x", "y"]
    assert len(rows) == 1 + 4 * 4
    assert rows[1][0] == "t00"
    assert float(rows[1][1]) == 240.0
    assert float(rows[1][2]) == matrix.values[0, 0]


def test_emit_csv_byte_identical_reruns(tmp_path):
    matrix = matrix_with_extremes()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_plot_data(matrix, p1, format="csv")
    emit_plot_data(matrix, p2, format="csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_svg_structure(tmp_path):
    curves = hdd_presence_curves(n_tokens=40, f_values=range(1, 4),
                                 n_values=range(5, 41))
    out = tmp_path / "plot.svg"
    emit_plot_data(curves, out, format="svg")
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 3
    assert "<title>f=1</title>" in svg


def test_emit_svg_escapes_series_names(tmp_path):
    """A text id with markup characters still gives well-formed SVG."""
    matrix = ScoreMatrix(["a&b<c", "plain"], ["1", "2"],
                         np.array([[0.5, 0.6], [0.7, 0.4]]))
    out = tmp_path / "plot.svg"
    emit_plot_data(matrix, out, format="svg")
    titles = minidom.parse(str(out)).getElementsByTagName("title")
    assert [t.firstChild.data for t in titles] == ["a&b<c", "plain"]


def test_emit_curves_csv_series_names(tmp_path):
    curves = hdd_presence_curves(n_tokens=30, f_values=range(1, 3),
                                 n_values=range(5, 31, 5))
    out = tmp_path / "curves.csv"
    emit_plot_data(curves, out, format="csv")
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert {r[0] for r in rows[1:]} == {"f=1", "f=2"}


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_emit_failed_write_leaves_nothing(tmp_path, fmt):
    """A write that fails partway (a lone surrogate in the last series name
    has no UTF-8) leaves neither the target nor a temporary file."""
    matrix = ScoreMatrix(["a", "b\udc80"], ["1", "2"], np.ones((2, 2)))
    with pytest.raises(UnicodeEncodeError):
        emit_plot_data(matrix, tmp_path / f"plot.{fmt}", format=fmt)
    assert list(tmp_path.iterdir()) == []


def test_emit_unknown_format(tmp_path):
    with pytest.raises(ProfilesError, match="format"):
        emit_plot_data(matrix_with_extremes(), tmp_path / "x.png", format="png")


def test_emit_rejects_unknown_payload(tmp_path):
    with pytest.raises(ProfilesError):
        emit_plot_data(object(), tmp_path / "x.csv", format="csv")
