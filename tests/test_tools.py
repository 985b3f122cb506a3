import importlib.util
from pathlib import Path

import agd.autodiff
import agd.denoiser

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_OP_COUNTS_SPEC = importlib.util.spec_from_file_location(
    "op_counts", Path(__file__).resolve().parents[1] / "tools" / "op_counts.py")
op_counts = importlib.util.module_from_spec(_OP_COUNTS_SPEC)
_OP_COUNTS_SPEC.loader.exec_module(op_counts)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment-only line
def f(a,
      b):
    """Function docstring."""
    x = """a string that is
    no docstring"""
    return (a
            + b)


class C:
    """Class docstring."""
    y = 1
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import; def f over 2 lines; x over 2 lines; return over 2; class; y
    assert code_lines.count_code_lines(SOURCE) == 9


def test_main_prints_the_total_over_a_tree(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == "10\n"


def test_op_counts_repeat_and_restore_every_op(capsys):
    add, gru_cell = agd.autodiff.add, agd.autodiff.gru_cell
    tables = []
    for _ in range(2):
        assert op_counts.main([]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    lines = tables[0].splitlines()
    assert len(lines) == 8 and all(int(line.split()[-1]) > 0 for line in lines[1:])
    assert agd.autodiff.add is add
    assert agd.denoiser.gru_cell is gru_cell is agd.autodiff.gru_cell


_LAYER_TIMES_SPEC = importlib.util.spec_from_file_location(
    "layer_times", Path(__file__).resolve().parents[1] / "tools" / "layer_times.py")
layer_times = importlib.util.module_from_spec(_LAYER_TIMES_SPEC)
_LAYER_TIMES_SPEC.loader.exec_module(layer_times)


def test_layer_times_prints_every_layer_on_every_graph(capsys):
    assert layer_times.main(["--tiny", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-3:] == ["c12-22", "c16-40", "hub16"]
    assert len(lines) == 7
    for line in lines[1:]:
        times = [float(t) for t in line.split()[-3:]]
        assert all(t > 0 for t in times), line
