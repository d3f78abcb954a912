import csv
import io
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import markerscreen as ms
from markerscreen.errors import LayoutError, ParseError
from markerscreen.matrix import _default_ids
from markerscreen.matrix_io import (
    ingest_matrix,
    read_truth,
    write_matrix,
    write_preview,
    write_scores,
    write_selection,
    write_table,
    write_truth,
)
from markerscreen.select import SelectionResult

from _oracles import ingest_reference


def test_matrix_validation():
    vals = np.ones((2, 4))
    vals[0, 0] = 2.0
    m = ms.ExpressionMatrix(values=vals, layout=np.array([1, 1, 2, 2]))
    assert m.p == 2 and m.n1 == 2 and m.n2 == 2 and m.N == 4
    assert m.protein_ids == ("P0001", "P0002")

    with pytest.raises(ValueError):
        ms.ExpressionMatrix(values=vals, layout=np.array([1, 1, 1, 1]))
    with pytest.raises(ValueError):
        ms.ExpressionMatrix(values=vals, layout=np.array([1, 1, 2, 3]))
    bad = vals.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        ms.ExpressionMatrix(values=bad, layout=np.array([1, 1, 2, 2]))
    with pytest.raises(ValueError):
        ms.ExpressionMatrix(values=vals, layout=np.array([1, 1, 2, 2]),
                            protein_ids=("A", "A"))
    with pytest.raises(ValueError, match="empty"):  # as ingest refuses an empty id
        ms.ExpressionMatrix(values=vals, layout=np.array([1, 1, 2, 2]), protein_ids=["", "B"])
    with pytest.raises(ValueError, match="'#x' starts with '#'"):  # it would read back as a comment
        ms.ExpressionMatrix(values=vals, layout=np.array([1, 1, 2, 2]), protein_ids=["A", "#x"])
    named = ms.ExpressionMatrix(values=vals, layout=np.array([1, 1, 2, 2]),
                                protein_ids=np.array(["A", "B"]))
    assert named.protein_ids == ("A", "B")
    assert all(type(pid) is str for pid in named.protein_ids)
    assert ms.ExpressionMatrix(values=vals, layout=np.array([1, 1, 2, 2]),
                               protein_ids=None).protein_ids == ("P0001", "P0002")


def test_default_ids_are_p_wide_and_at_least_four_digits():
    def ids(p):
        return ms.ExpressionMatrix(values=np.arange(2.0 * p).reshape(p, 2),
                                   layout=np.array([1, 2])).protein_ids

    assert ids(3) == ("P0001", "P0002", "P0003")
    big = ids(10_000)
    assert big[0] == "P00001" and big[-1] == "P10000" and len(big) == 10_000
    assert ids(3) is ids(3)  # formatted once per p, shared


def test_default_ids_keep_only_the_last_p():
    for p in (3, 5):
        ms.ExpressionMatrix(values=np.arange(2.0 * p).reshape(p, 2), layout=np.array([1, 2]))
    assert _default_ids.cache_info().currsize == 1


def test_ingest_well_formed(tmp_path):
    src = tmp_path / "m.csv"
    src.write_text("protein_id,s1,s2,s3,s4\nP1,1.0,2.0,3.0,4.0\n"
                   "P2,5.0,6.0,7.0,8.0\n")
    m = ingest_matrix(str(src), "1,1,2,2")
    assert m.p == 2
    assert m.values[1, 3] == 8.0


def test_ingest_rejects_duplicates_and_short_rows(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("protein_id,s1,s2,s3,s4\nP1,1,2,3,4\nP1,5,6,7,8\n")
    with pytest.raises(ParseError):
        ingest_matrix(str(dup), "1,1,2,2")

    short = tmp_path / "short.csv"
    short.write_text("protein_id,s1,s2,s3,s4\nP1,1,2,3\n")
    with pytest.raises(ParseError):
        ingest_matrix(str(short), "1,1,2,2")


def test_ingest_requires_a_layout(tmp_path):
    src = tmp_path / "m.csv"
    src.write_text("protein_id,s1,s2,s3,s4\nP1,1.0,2.0,3.0,4.0\n")
    with pytest.raises(LayoutError):
        ingest_matrix(str(src))
    with pytest.raises(LayoutError):
        ingest_matrix(str(src), "1,1,2")  # wrong length


def test_ingest_names_bad_cell_coordinates(tmp_path):
    src = tmp_path / "m.csv"
    src.write_text("protein_id,s1,s2,s3,s4\nP9,1.0,oops,3.0,4.0\n")
    with pytest.raises(ValueError, match=r"P9.*s2"):
        ingest_matrix(str(src), "1,1,2,2")
    inf = tmp_path / "inf.csv"
    inf.write_text("protein_id,s1,s2,s3,s4\nP9,1.0,inf,3.0,4.0\n")
    with pytest.raises(ValueError):
        ingest_matrix(str(inf), "1,1,2,2")


def test_matrix_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    vals = rng.normal(0, 1, (5, 6)) * 1e-7  # exercise awkward magnitudes
    m = ms.ExpressionMatrix(values=vals, layout=np.array([1, 1, 1, 2, 2, 2]))
    path = tmp_path / "round.csv"
    write_matrix(str(path), m, ["markerscreen test"])
    back = ingest_matrix(str(path))
    assert np.array_equal(back.values, m.values)  # bit exact, not approx
    assert np.array_equal(back.layout, m.layout)
    assert back.protein_ids == m.protein_ids


def test_truth_round_trip(tmp_path):
    # and ids that the writer must quote: a comma, a quote, a CR, a LF, a CRLF
    path = tmp_path / "truth.csv"
    ids = ("A", "B", "C", "a,b", 'q"x', "r\rs", "n\nm", "c\r\nd")
    write_truth(str(path), ids, np.array([True, False, True, False, True, False, True, True]))
    truth = read_truth(str(path))
    assert truth == {"A": True, "B": False, "C": True, "a,b": False, 'q"x': True,
                     "r\rs": False, "n\nm": True, "c\r\nd": True}


def test_writers_refuse_an_id_read_back_as_a_comment(tmp_path):
    # csv.reader strips the quotes a writer could add, so quoting cannot save
    # it; a matrix cannot hold such an id (ExpressionMatrix and ingest refuse it)
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="'#x' starts with '#'"):
        write_truth(str(path), ("y", "#x"), [True, False])
    assert not path.exists()


@pytest.mark.parametrize("two_row_blocks", [False, True])
@pytest.mark.parametrize("rows", [
    "y,1,2,3,4\n #x,5,6,7,8\n",  # lines: ` #x` is no comment, and strips to `#x`
    '"y,1",1,2,3,4\n #x,5,6,7,8\n',  # csv records from the first quote on
    'y,1,2,3,4\n" #x",5,6,7,8\n',
], ids=["lines", "records", "quoted-id"])
def test_ingest_refuses_an_id_read_back_as_a_comment(tmp_path, monkeypatch, rows,
                                                     two_row_blocks):
    if two_row_blocks:
        monkeypatch.setattr(ms.matrix, "BLOCK_ELEMENTS", 8)
    source = tmp_path / "m.csv"
    source.write_text(HEAD + rows)
    with pytest.raises(ParseError, match="row 3 has protein id '#x', which starts with '#'"):
        ingest_matrix(str(source), "1,1,2,2")


def test_a_layout_comment_is_read_as_labels_never_as_a_path(tmp_path, monkeypatch):
    # a file named like the comment's labels in the working directory is no sidecar
    # of the comment; --layout still reads an existing path as one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "1,1,2,2").write_text("sample_id,condition\ns1,2\ns2,1\ns3,1\ns4,2\n")
    source = tmp_path / "m.csv"
    source.write_text("# layout: 1,1,2,2\n" + HEAD + "P1,1,2,3,4\nP2,5,6,7,8\n")
    assert ingest_matrix(str(source)).layout.tolist() == [1, 1, 2, 2]
    assert ingest_matrix(str(source), "1,1,2,2").layout.tolist() == [2, 1, 1, 2]


# Each fault in both keyed files: a truth file (flags 0, 1; faults raise
# ParseError) and a layout sidecar of the samples P1, P2 (conditions 1, 2;
# LayoutError). {bad} is a digit the file refuses, {noun} its key's name.
@pytest.mark.parametrize("rows, named", [
    ("P1\n", r"\['P1'\]"),  # short row
    ("P1,yes\n", r"\['P1', 'yes'\]"),
    ("P1,{bad}\n", r"\['P1', '{bad}'\]"),
    ("P1,1\nP2,1\nP1,1\n", r"\['P1', '1'\].*'P1'"),  # repeated id
    ("P1,1\nP2,1\n,1\n", r"\['', '1'\].*empty {noun}"),
    ("P1,1\n  ,1\n", r"\['  ', '1'\].*empty {noun}"),
], ids=["short", "yes", "two", "repeated", "empty", "blank"])
def test_read_truth_rejects_bad_rows_naming_them(tmp_path, rows, named):
    matrix = tmp_path / "m.csv"
    matrix.write_text("protein_id,P1,P2\nX,1.0,2.0\n")
    path = tmp_path / "keyed.csv"
    for header, bad, noun, read, error in (
            ("protein_id,is_true", "2", "protein id", read_truth, ParseError),
            ("sample_id,condition", "3", "sample id",
             lambda sidecar: ingest_matrix(str(matrix), sidecar), LayoutError)):
        path.write_text(header + "\n" + rows.format(bad=bad))
        with pytest.raises(error, match=named.format(bad=bad, noun=noun)):
            read(str(path))


def test_layout_sidecar_rejects_a_sample_listed_twice(tmp_path):
    src = tmp_path / "m.csv"
    src.write_text("protein_id,a,b,c,d\nP1,1.0,2.0,3.0,4.0\n")
    sidecar = tmp_path / "layout.csv"
    sidecar.write_text("sample_id,condition\na,1\nb,1\nc,2\nd,2\na,2\n")
    with pytest.raises(LayoutError, match="'a'"):
        ingest_matrix(str(src), str(sidecar))


def test_inputs_read_the_same_with_a_leading_byte_order_mark(tmp_path):
    # spreadsheet exports often start a UTF-8 file with U+FEFF; every reader drops it
    texts = {
        "matrix": "# layout: 1,1,2,2\nprotein_id,a,b,c,d\nP1,1.0,2.0,3.0,4.0\nP2,5,6,7,9\n",
        "quoted": '"protein_id",a,b,c,d\n"P,1",1.0,2.0,3.0,4.0\n',
        "sidecar": "sample_id,condition\na,1\nb,2\nc,1\nd,2\n",
        "truth": "protein_id,is_true\nP1,1\nP2,0\n",
    }
    read = []
    for mark in ("", "\ufeff"):
        path = {name: tmp_path / f"{name}{len(mark)}.csv" for name in texts}
        for name, text in texts.items():
            path[name].write_text(mark + text, encoding="utf-8")
        matrices = [ingest_matrix(str(path["matrix"])),
                    ingest_matrix(str(path["quoted"]), "1,1,2,2"),
                    ingest_matrix(str(path["matrix"]), str(path["sidecar"]))]
        read.append([[(m.values.tolist(), m.layout.tolist(), m.protein_ids) for m in matrices],
                     read_truth(str(path["truth"]))])
    assert read[1] == read[0]
    assert read[0][0][2][1] == [1, 2, 1, 2]  # the sidecar's layout, not the comment's


def test_inputs_and_artifacts_are_utf8_whatever_the_locale(tmp_path):
    # under an ASCII locale a non-ASCII id is read and written as UTF-8, as in UTF-8 mode
    src, out = tmp_path / "m.csv", tmp_path / "out"
    src.write_text("# layout: 1,1,2,2\nprotein_id,a,b,c,d\nPé,1,2,3,5\nP2,1,2,3,4\n", encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(ms.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "markerscreen.cli", "score", "--input", str(src),
                           "--replicates", "1000", "--out-dir", str(out)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "\r\nPé," in (out / "scores.csv").read_bytes().decode("utf-8")


def test_a_file_that_is_not_utf8_is_a_parse_error_naming_it(tmp_path, capsys):
    # a Latin-1 export: 0xe9 is `é` there and no UTF-8 sequence
    matrix, sidecar, truth = (tmp_path / name for name in ("m.csv", "layout.csv", "truth.csv"))
    matrix.write_bytes(b"# layout: 1,1,2,2\nprotein_id,a,b,c,d\nP\xe9,1,2,3,5\nP2,1,2,3,4\n")
    sidecar.write_bytes(b"sample_id,condition\na,1\nb,1\nc,2\nd\xe9,2\n")
    truth.write_bytes(b"protein_id,is_true\nP\xe9,1\n")
    good = tmp_path / "good.csv"
    good.write_text("protein_id,a,b,c,d\nP1,1,2,3,5\n")
    for path, read in ((matrix, ingest_matrix), (truth, read_truth),
                       (sidecar, lambda sidecar: ingest_matrix(str(good), sidecar))):
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't"):
            read(str(path))
    from markerscreen.cli import main
    assert main(["score", "--input", str(matrix), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error [parse-error]: {matrix}: 'utf-8' codec")


def test_write_truth_refuses_flags_that_do_not_match_the_ids(tmp_path):
    path = tmp_path / "truth.csv"
    with pytest.raises(ValueError, match="1 truth flags for 3 protein ids"):
        write_truth(str(path), ("a", "b", "c"), [True])
    assert not path.exists()


def _csv_writer_text(comments, rows):
    """`# ` comment lines, then rows as csv.writer writes them."""
    out = io.StringIO()
    out.write("".join(f"# {line}\n" for line in comments))
    csv.writer(out).writerows(rows)
    return out.getvalue()


def test_writers_quote_ids_as_csv_writer_does(tmp_path):
    ids = ["plain", "a,b", 'q"x', "r\rs", "n\nm", " pad "]
    vals = np.arange(24, dtype=float).reshape(6, 4) / 7.0
    m = ms.ExpressionMatrix(values=vals, layout=np.array([1, 1, 2, 2]),
                            protein_ids=ids)
    scores = ms.ScoreTable(ids, "deviance_lr", vals[:, 0], vals[:, 1] / 10.0,
                           np.zeros(6, dtype=bool))
    truth = np.array([True, False, True, True, False, False])
    result = SelectionResult(selected=("a,b", "", 'q"x'), cutoff_used=2.0,
                             sorted_preview=((3.5, "a,b"), (3.0, ""), (2.5, "n\nm")),
                             policy=ms.SelectionPolicy(kind="fixed_cutoff", c=2.0))
    table = [{"method": "lr+gap", "note": 'say "hi", twice', "x": 0.1, "n": 3},
             {"method": "", "note": "", "x": float("nan"), "n": 0}]
    write_matrix(str(tmp_path / "m.csv"), m)
    write_scores(str(tmp_path / "s.csv"), scores)
    write_truth(str(tmp_path / "t.csv"), ids, truth, ["a header"])
    write_selection(str(tmp_path / "sel.csv"), result)
    write_preview(str(tmp_path / "prev.csv"), result)
    write_table(str(tmp_path / "tab.csv"), table, ["method", "note", "x", "n"])
    expected = {
        "m.csv": _csv_writer_text(["layout: 1,1,2,2"], [["protein_id", "s01", "s02", "s03", "s04"]]
                                  + [[pid] + [repr(v) for v in row]
                                     for pid, row in zip(ids, vals.tolist())]),
        "s.csv": _csv_writer_text([], [["protein_id", "statistic_kind", "value", "p_value"]]
                                  + [[pid, "deviance_lr", repr(v), repr(p)]
                                     for pid, v, p in zip(ids, vals[:, 0].tolist(),
                                                          (vals[:, 1] / 10.0).tolist())]),
        "t.csv": _csv_writer_text(["a header"], [["protein_id", "is_true"]]
                                  + [[pid, int(flag)] for pid, flag in zip(ids, truth)]),
        "sel.csv": _csv_writer_text(["policy: fixed_cutoff", "cutoff: 2.0", "fallback_used: 0"],
                                    [["protein_id"], ["a,b"], [""], ['q"x']]),
        "prev.csv": _csv_writer_text([], [["rank", "statistic", "protein_id"], [1, "3.5", "a,b"],
                                          [2, "3.0", ""], [3, "2.5", "n\nm"]]),
        "tab.csv": _csv_writer_text([], [["method", "note", "x", "n"],
                                         ["lr+gap", 'say "hi", twice', "0.1", 3],
                                         ["", "", "nan", 0]]),
    }
    assert '\r\n""\r\n' in expected["sel.csv"]  # a lone empty id is written ""
    for name, text in expected.items():
        with open(tmp_path / name, newline="") as fh:
            assert fh.read() == text, name
    back = ingest_matrix(str(tmp_path / "m.csv"))  # quoted file: csv.reader path
    assert back.protein_ids == ("plain", "a,b", 'q"x', "r\rs", "n\nm", "pad")
    assert back.values.tobytes() == vals.tobytes()


HEAD = "protein_id,s1,s2,s3,s4\n"
INGEST_CASES = {
    "well-formed": HEAD + "P1,1.0,2.0,3.0,4.0\nP2,5.0,6.0,7.0,8.0\n",
    "crlf-blank-comment": ("protein_id,s1,s2,s3,s4\r\nP1,1,2,3,4\r\n\r\n"
                           "# layout: 1,2,1,2\r\nP2,5,6,7,8\r\n\r\n"),
    "cr-only": "protein_id,s1,s2,s3,s4\rP1,1,2,3,4\rP2,5,6,7,8",
    "padded": "protein_id, s1 ,s2,s3,s4\nP1 , 1.0,\t2.0 ,3.0\t, 4\nP2,5,6,7,8\n",
    "underscore": HEAD + "P1,1,1_0,3,4\nP2,5,6,7,8\n",
    "unicode-digits": HEAD + "P1,1,\u0661\u0662,3,4\nP2,5,6,7,\uff18\n",
    "hash-in-last-cell": HEAD + "P1,1,2,3,1#2\nP2,5,6,7,8\n",
    "nan": HEAD + "P1,1,2,3,4\nP2,5,nan,7,8\n",
    "-inf": HEAD + "P1,1,2,3,4\nP2,5,6,7,-inf\n",
    "empty-cell": HEAD + "P1,1,,3,4\nP2,5,6,7,8\n",
    "short-row": HEAD + "P1,1,2,3,4\nP2,5,6,7\nP3,1,2,3,4\n",
    "long-row": HEAD + "P1,1,2,3,4\nP2,5,6,7,8,9\n",
    "id-only-row": HEAD + "P1,1,2,3,4\nP2\n",
    "duplicate-id": HEAD + "P1,1,2,3,4\n P1 ,5,6,7,8\n",
    "bad-cell-before-short-row": HEAD + "P1,1,x,3,4\nP2,5,6,7\n",
    "duplicate-before-bad-cell": HEAD + "P1,1,2,3,4\nP1,5,6,7,8\nP3,1,x,3,4\n",
    "quoted-id": HEAD + '"P,1",1,2,3,4\nP2,5,6,7,8\n',
    "quoted-bad-cell": HEAD + '"P,1",1,"2,5",3,4\n',
    "quoted-header": '"protein_id",s1,"s 2",s3,s4\nP1,1,2,3,4\nP2,5,6,7,8\n',
    "quote-in-comment-before-header": ('# a "quoted" note, with a comma\n'
                                       "# layout: 1,2,1,2\n" + HEAD + "P1,1,2,3,4\nP2,5,6,7,8\n"),
    "quoted-id-in-last-row-only": HEAD + 'P1,1,2,3,4\nP2,5,6,7,8\nP3,1,2,3,4\n"P,4",5,6,7,8\n',
    "quoted-id-holding-crlf": ("protein_id,s1,s2,s3,s4\r\nP1,1,2,3,4\r\n"
                               '"P\r\n2",5,6,7,8\r\nP3,1,2,3,4\r\n'),
    "quoted-id-holding-lf": HEAD + 'P1,1,2,3,4\n"P\n2",5,6,7,8\nP3,1,2,3,4\n',
    "quoted-cell-cr-only": 'protein_id,s1,s2,s3,s4\rP1,1,2,3,4\r"P,2",5,"6",7,8\rP3,1,2,3,4',
    "quoted-bad-cell-row-number": HEAD + 'P1,1,2,3,4\nP2,5,6,7,8\nP3,1,"2,5",3\n',
    "duplicate-id-across-the-switch": HEAD + 'P1,1,2,3,4\nP2,5,6,7,8\nP3,1,2,3,4\n"P1",5,6,7,8\n',
    "single-row": HEAD + "P1,1e-300,-0.0,5e-324,4\n",
    "no-rows": HEAD + "# nothing\n",
    "no-header": "# layout: 1,1,2,2\n\n",
    "one-sample": "protein_id,s1\nP1,1\n",
    "empty-id": HEAD + "P1,1,2,3,4\n,5,6,7,8\nP3,1,2,3,4\n",
    "repeated-sample-name": "protein_id,a,a,b\nP1,1,2,3\nP2,5,6,7\n",
    "empty-sample-name": "protein_id,,b,c,d\nP1,1,2,3,4\nP2,5,6,7,8\n",
}


def _assert_ingest_matches_reference(path):
    """ingest_matrix gives the reference's ids, value bits and layout, or
    raises its error with its message."""
    try:
        ids, values, meta = ingest_reference(str(path))
    except (ParseError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            ingest_matrix(str(path), "1,1,2,2")
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    m = ingest_matrix(str(path), None if "layout" in meta else "1,1,2,2")
    assert m.protein_ids == tuple(ids)
    assert m.values.shape == values.shape
    assert m.values.tobytes() == values.tobytes()  # bit exact, -0.0 included
    if "layout" in meta:
        assert m.layout.tolist() == [int(t) for t in meta["layout"].split(",")]


@pytest.mark.parametrize("case", sorted(INGEST_CASES))
def test_ingest_matches_per_cell_reference(tmp_path, case):
    path = tmp_path / "m.csv"
    path.write_bytes(INGEST_CASES[case].encode("utf-8"))
    _assert_ingest_matches_reference(path)


@pytest.mark.parametrize("case", sorted(INGEST_CASES))
def test_ingest_matches_per_cell_reference_in_two_row_blocks(tmp_path, monkeypatch, case):
    monkeypatch.setattr(ms.matrix, "BLOCK_ELEMENTS", 8)  # 2 lines of 4 samples a block
    path = tmp_path / "m.csv"
    path.write_bytes(INGEST_CASES[case].encode("utf-8"))
    _assert_ingest_matches_reference(path)


def _block_lines(change=None):
    """The lines after the header of a 4-sample matrix: 30 data rows with a
    blank line, a comment and the layout comment among them. change maps a
    line index to the line that replaces it."""
    lines = [f"P{i:02d},{i},{i / 3!r},{-i},{i * 1e-300!r}" for i in range(30)]
    lines[7:7] = [""]
    lines[11:11] = ["# a comment, with a comma"]
    lines[18:18] = ["# layout: 1,2,1,2"]
    for i, line in (change or {}).items():
        lines[i] = line
    return lines


@pytest.mark.parametrize("case, change", [
    ("clean", None),
    ("underscore cell", {16: "P14,1_4,2,3,4"}),
    ("duplicate across a block boundary", {10: "P08,1,2,3,4"}),
    ("duplicate in a later block", {27: "P03,1,2,3,4"}),
    ("bad cell before a later duplicate", {14: "P12,1,x,3,4", 27: "P03,1,2,3,4"}),
    ("short row in the last block", {32: "P29,1,2,3"}),
    ("quote just before a block boundary", {9: '"P08",1,2,3,4'}),
    ("quote inside a block", {12: '"P10",1,2,3,4'}),
    ("quote just after a block boundary", {10: '"P09",1,2,3,4'}),
    ("quoted line break across a block boundary", {9: '"P0\n8",1,2,3,4'}),
    ("duplicate after the switch to csv records", {12: '"P10",1,2,3,4', 27: "P03,1,2,3,4"}),
])
def test_ingest_matches_per_cell_reference_across_row_blocks(tmp_path, monkeypatch,
                                                             case, change):
    # blocks of 5 lines: line 10 opens the third block, so giving it line 9's
    # id puts a duplicate across a boundary; the fourth holds the layout. A
    # quote switches to csv records, one per block at this budget
    monkeypatch.setattr(ms.matrix, "BLOCK_ELEMENTS", 20)
    per_cell = []
    parse_cells = ms.matrix_io._parse_cells
    monkeypatch.setattr(ms.matrix_io, "_parse_cells",
                        lambda path, header, rows, *rest: per_cell.append(len(rows))
                        or parse_cells(path, header, rows, *rest))
    path = tmp_path / "m.csv"
    path.write_text("\n".join([HEAD.strip()] + _block_lines(change)) + "\n")
    assert ([_block_lines()[i][:4] for i in (9, 10, 12, 14, 16, 27)]
            == ["P08,", "P09,", "P10,", "P12,", "P14,", "P24,"])
    _assert_ingest_matches_reference(path)
    if case == "clean":
        assert per_cell == []
    elif case == "underscore cell":  # only the block holding the cell goes cell by cell
        assert per_cell == [4]


@pytest.mark.parametrize("grows", [True, False])
def test_ingest_grows_or_trims_the_values_array_sized_from_the_first_block(
        tmp_path, monkeypatch, grows):
    # blocks of 2 lines: rows far shorter than the first block's leave its
    # size estimate short, so the array grows several times; far longer ones
    # leave it several times too large, so it is trimmed
    monkeypatch.setattr(ms.matrix, "BLOCK_ELEMENTS", 8)
    short = [f"S{i},1,2,3,4" for i in range(40)]
    long = [f"L{i},{i / 3!r},{i / 7!r},{-i / 9!r},{i * 1e-300!r}" for i in range(40)]
    path = tmp_path / "m.csv"
    path.write_text(HEAD + "\n".join(long[:2] + short if grows else short[:2] + long) + "\n")
    _assert_ingest_matches_reference(path)


def _ingest_peak_ratio(path, rows, repeats=1, quoted=None):
    """Traced peak of ingesting `rows` written `repeats` times as repr cells
    under distinct ids, the id of row `quoted` in quotes, over the size of the
    values array read back."""
    text = [",".join(map(repr, row)) for row in rows.tolist()]
    with open(path, "w") as fh:
        fh.write("protein_id," + ",".join(f"s{k}" for k in range(rows.shape[1])) + "\n")
        fh.writelines(f'"P{i}",{text[i % len(text)]}\n' if i == quoted
                      else f"P{i},{text[i % len(text)]}\n" for i in range(len(text) * repeats))
    tracemalloc.start()
    try:
        m = ingest_matrix(str(path), ",".join(["1"] * 10 + ["2"] * 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.values.tobytes() == np.tile(rows, (repeats, 1)).tobytes()
    return peak / m.values.nbytes


def test_ingest_memory_stays_near_two_values_arrays(tmp_path):
    # 40,000 x 20 is four row blocks; the whole-file parse peaked at 8.6x
    values = np.random.default_rng(11).normal(20.0, 1.5, (40_000, 20))
    assert _ingest_peak_ratio(tmp_path / "m.csv", values) < 4


def test_ingest_memory_at_stress_size_stays_near_one_values_array(tmp_path):
    # 100,000 x 20: blocks are copied into one array as they are parsed, so the
    # peak is that array, one block's text and the ids (2.06x); keeping every
    # block and concatenating them at the end peaked at 2.92x
    rows = np.random.default_rng(12).normal(20.0, 1.5, (10_000, 20))
    assert _ingest_peak_ratio(tmp_path / "m.csv", rows, repeats=10) < 2.2


def test_ingest_memory_of_a_quoted_file_at_stress_size_stays_near_one_values_array(tmp_path):
    # one quoted id in the sixth row sends nearly every row to csv records; reading
    # them all as lists of str before parsing them peaked at 11.7x
    rows = np.random.default_rng(12).normal(20.0, 1.5, (10_000, 20))
    assert _ingest_peak_ratio(tmp_path / "m.csv", rows, repeats=10, quoted=5) < 2.5


def test_ingest_reads_a_file_quoted_in_its_last_row_once(tmp_path, monkeypatch):
    # blocks of 32 lines, then of 4 csv records: loadtxt parses every block,
    # the last one, rows 96-99, rejoined from its records, and the file is opened once
    monkeypatch.setattr(ms.matrix, "BLOCK_ELEMENTS", 128)
    per_cell, opened = [], []
    parse_cells = ms.matrix_io._parse_cells
    monkeypatch.setattr(ms.matrix_io, "_parse_cells",
                        lambda path, header, rows, *rest: per_cell.append((rest[0], len(rows)))
                        or parse_cells(path, header, rows, *rest))
    monkeypatch.setattr(ms.matrix_io, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k),
                        raising=False)
    path = tmp_path / "m.csv"
    path.write_text(HEAD + "".join(f"P{i},{i},1,2,3\n" for i in range(99)) + '"P,99",99,1,2,3\n')
    m = ingest_matrix(str(path), "1,1,2,2")
    assert m.protein_ids[-1] == "P,99" and m.values[:, 0].tolist() == list(range(100))
    assert per_cell == []
    assert opened == [str(path)]


AWKWARD = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 2.2250738585072014e-308,
                           2.225073858507201e-308, 1.7976931348623157e308, 0.1, 1e22])


@st.composite
def matrices(draw):
    p = draw(st.integers(1, 12))
    n1 = draw(st.integers(1, 5))
    n2 = draw(st.integers(max(1, 3 - n1), 5))
    cells = st.one_of(AWKWARD, st.floats(allow_nan=False, allow_infinity=False))
    values = draw(arrays(np.float64, (p, n1 + n2), elements=cells))
    layout = np.array(draw(st.permutations([1] * n1 + [2] * n2)))
    return ms.ExpressionMatrix(values=values, layout=layout)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_write_ingest_round_trip_is_bit_exact(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("round") / "m.csv"
    write_matrix(str(path), m)
    back = ingest_matrix(str(path))
    assert back.values.tobytes() == m.values.tobytes()
    assert np.array_equal(back.layout, m.layout)
    assert back.protein_ids == m.protein_ids
