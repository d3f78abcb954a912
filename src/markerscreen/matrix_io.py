"""CSV ingestion and artifact writing.

Matrix files are proteins-as-rows: a header `protein_id,<sample...>`, one
row per protein. The sample-to-condition mapping comes from a `# layout:`
comment in the file, an inline spec like "1,1,2,2", or a sidecar CSV with
columns (sample_id, condition). Values are written with full repr precision
so a simulate -> ingest round trip is bit-exact.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from itertools import chain, islice

import numpy as np

from .errors import LayoutError, ParseError
from .matrix import ExpressionMatrix, _UniqueIds, _refuse_comment_ids, rows_per_block

_QUOTED_CHARS = frozenset(',"\r\n')  # csv.writer quotes a cell holding any of these


def _read_keyed(path: str, columns: tuple[str, str], flags: tuple[str, str],
                error: type) -> dict[str, str]:
    """{key: flag} from a two-column CSV file headed by columns, a layout
    sidecar or a truth file, cells stripped: each key non-empty and listed
    once, each flag one of the two tokens in flags. A file with no header
    row raises ParseError; any other fault raises error naming the row."""
    noun, keyed = columns[0].replace("_", " "), {}
    with _opened(path) as fh:
        records = _records(csv.reader(fh), {})
        if (header := next(records, None)) is None:
            raise ParseError(f"{path}: no header row")
        if [c.strip().lower() for c in header[:2]] != list(columns):
            raise error(f"{path}: header must be {','.join(columns)}")
        for row in records:
            key, flag = [c.strip() for c in row[:2]] if len(row) > 1 else ("", "")
            if flag not in flags:
                raise error(f"{path}: row {row} needs a {noun} and {columns[1]} "
                            f"{flags[0]} or {flags[1]}")
            if not key:
                raise error(f"{path}: row {row} has an empty {noun}")
            if key in keyed:
                raise error(f"{path}: row {row} repeats {noun} {key!r}")
            keyed[key] = flag
    return keyed


def _parse_layout_spec(layout_spec: str | None, sample_names: list[str],
                       file_layout: str | None) -> np.ndarray:
    """The samples' condition labels: from layout_spec, a sidecar when a file
    is at that path and inline labels otherwise, or else from the matrix's
    `# layout:` comment, file_layout, which is always read as labels."""
    if layout_spec is None:
        if file_layout is None:
            raise LayoutError(
                "no layout given and the matrix file carries no layout comment"
            )
        layout_spec = file_layout
    elif os.path.exists(layout_spec):
        mapping = _read_keyed(layout_spec, ("sample_id", "condition"), ("1", "2"), LayoutError)
        missing = [s for s in sample_names if s not in mapping]
        if missing:
            raise LayoutError(f"layout sidecar misses samples: {missing[:5]}")
        return np.array([int(mapping[s]) for s in sample_names])
    labels = [tok for tok in layout_spec.replace(";", ",").split(",") if tok.strip()]
    if len(labels) != len(sample_names):
        raise LayoutError(
            f"layout lists {len(labels)} labels for {len(sample_names)} samples"
        )
    return np.array([_condition_label(tok) for tok in labels])


def _condition_label(token: str) -> int:
    token = token.strip()
    if token not in ("1", "2"):
        raise LayoutError(f"condition labels must be 1 or 2, got {token!r}")
    return int(token)


def ingest_matrix(path: str, layout_spec: str | None = None) -> ExpressionMatrix:
    """Read and validate a proteins-as-rows CSV matrix.

    Raises ParseError for structural problems (an id starting with `#`, read
    back as a comment, is one), LayoutError for condition mapping problems,
    and ValueError naming (protein, sample) for any non-numeric or
    non-finite cell. A cell is numeric when Python's float() accepts it.

    The file is read once, in blocks of rows. Up to its first `"`, a record
    is a line split at every comma, in blocks of rows_per_block(samples)
    lines. From the line holding the first `"` on, records are read by
    csv.reader in blocks of rows_per_block(8 * samples), as a str cell
    weighs about eight float64s, and each is rejoined into a line without
    its id. Each block's lines are parsed by one loadtxt call, or cell by
    cell if loadtxt rejects them or an id is empty, starts with `#` or
    repeats; a value cell holding a comma, a quote or a line break is one
    loadtxt rejects. Blocks go into one values array, sized when a block
    does not fit for the rows the bytes left hold at the bytes per row so
    far.
    """
    meta: dict[str, str] = {}
    records = header = None
    with _opened(path) as fh:
        for line in fh:  # comments and blank lines up to the header
            if '"' in line:
                records = _records(csv.reader(chain([line], fh)), meta)
                header = next(records, None)
                break
            if line[0] not in "\r\n" and not _comment(line, meta):
                header = line.split(",")
                break
        if header is None:
            raise ParseError(f"{path}: no header row")
        header = [c.strip() for c in header]
        if len(header) < 3 or header[0] != "protein_id":
            raise ParseError(f"{path}: header must be protein_id,<at least two sample columns>")
        n = len(header) - 1
        if "" in header or len(set(header[1:])) < n:
            k = next(k for k, name in enumerate(header) if k and name in ("", *header[1:k]))
            raise ParseError(f"{path}: header cell {k + 1} is an empty or repeated sample "
                             f"name: {header[k]!r}")
        ids: list[str] = []
        values = np.empty((0, n))
        seen: set[str] = set()
        size = os.fstat(fh.fileno()).st_size
        while rows := list(islice(fh if records is None else records,
                                  rows_per_block(n if records is None else 8 * n))):
            if records is not None:  # csv records; "," is a line loadtxt rejects
                block_ids = [r[0].strip() for r in rows]
                lines = ["," + ",".join(r[1:]) if len(r) == len(header) else "," for r in rows]
            elif any('"' in line for line in rows):
                records = _records(csv.reader(chain(rows, fh)), meta)
                continue
            else:
                lines = [line for line in rows if line[0] not in "\r\n#"]
                if len(lines) < len(rows):
                    for line in rows:
                        _comment(line, meta)
                block_ids = [line.partition(",")[0].strip() for line in lines]
            if not lines:
                continue
            block = _parse_block(lines, n)
            new = set(block_ids)  # "" and ids starting with "#" sort below "$"
            if block is None or min(new) < "$" or len(new) < len(lines) or not seen.isdisjoint(new):
                if records is None:
                    rows = [line.rstrip("\r\n").split(",") for line in lines]
                block_ids, block = _parse_cells(path, header, rows, len(ids), seen)
            end = len(ids) + len(block_ids)
            if end > len(values):  # no view of values exists, so resize may move it
                read = fh.buffer.tell() if size else 1  # bytes taken in; a pipe's size is 0
                values.resize((end + max(0, size - read) * end // read, n), refcheck=False)
            values[len(ids):end] = block
            ids.extend(block_ids)
            del rows, lines, block  # not held while seen grows or the next block is read
            seen |= new  # a no-op after _parse_cells, which adds the ids itself
    if not ids:
        raise ParseError(f"{path}: no protein rows")
    values.resize((len(ids), n), refcheck=False)
    layout = _parse_layout_spec(layout_spec, header[1:], meta.get("layout"))
    return ExpressionMatrix(values=values, layout=layout, protein_ids=_UniqueIds(ids))


@contextlib.contextmanager
def _opened(path: str):
    """path read as UTF-8 less a leading byte-order mark, with newline="" (lines split as
    csv.reader splits them, a quoted CR kept); read, decode and csv errors raise ParseError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if fh.buffer.peek(3).startswith(b"\xef\xbb\xbf"):  # dropped before any text is read
                fh.buffer.read(3)
            yield fh
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:  # e.g. an overlong field, a non-UTF-8 byte
        raise ParseError(f"{path}: {exc}") from exc


def _records(reader, meta: dict[str, str]):
    """The records of a csv reader that are neither blank nor comments; a
    comment is a record whose first cell starts with `#`."""
    for raw in reader:
        if raw and not (raw[0].startswith("#") and _comment(",".join(raw), meta)):
            yield raw


def _comment(line: str, meta: dict[str, str]) -> bool:
    """Whether line is a comment, recording it in meta when it is `key: value`."""
    if not line.startswith("#"):
        return False
    text = line.lstrip("#").strip()
    if ":" in text:
        key, _, val = text.partition(":")
        meta[key.strip()] = val.strip()
    return True


def _parse_block(lines: list[str], n_samples: int) -> np.ndarray | None:
    """All-finite (rows, n_samples) values of data lines, or None.

    None sends the lines to `_parse_cells`, which accepts what float() accepts
    (`1_0`, non-ASCII digits) and otherwise names the first bad row or cell.
    comments=None matters: by default loadtxt reads the cell `1#2` as 1.0.
    """
    try:  # the dtype asks for exactly 1 + n_samples cells on every line
        values = np.loadtxt(lines, delimiter=",", ndmin=1, comments=None, dtype=[
            ("id", "U1"), ("values", float, (n_samples,))])["values"]
    except ValueError:
        return None
    if values.shape != (len(lines), n_samples) or not np.isfinite(values).all():
        return None
    return values


def _parse_cells(path: str, header: list[str], rows: list[list[str]], first: int,
                 seen: set[str]) -> tuple[list[str], np.ndarray]:
    """Cell-by-cell parse of full rows, the first of them data row `first` of
    the file, with the ids of the rows before them in seen (which gains
    theirs); raises on the first bad row or cell."""
    sample_names = header[1:]
    ids = []
    values = np.empty((len(rows), len(sample_names)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {first + i + 2} has {len(row)} cells, expected {len(header)}"
            )
        pid = row[0].strip()
        if not pid:
            raise ParseError(f"{path}: row {first + i + 2} has an empty protein id")
        if pid.startswith("#"):
            raise ParseError(f"{path}: row {first + i + 2} has protein id {pid!r}, which "
                             "starts with '#' and would read back as a comment")
        if pid in seen:
            raise ParseError(f"{path}: duplicate protein id {pid!r}")
        seen.add(pid)
        ids.append(pid)
        for k, cell in enumerate(row[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(
                    f"non-numeric cell at protein {pid!r}, sample "
                    f"{sample_names[k]!r}: {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise ValueError(
                    f"non-finite cell at protein {pid!r}, sample {sample_names[k]!r}"
                )
            values[i, k] = v
    return ids, values


def _write_csv(path: str, header_lines, columns, rows: int, block) -> None:
    """Write an artifact in UTF-8: its `# ` header lines, the column names, then
    its rows in blocks; block(i, j) gives rows i..j-1 as a list of columns of
    str cells. The bytes are csv.writer's: a cell holding a comma, a quote, a CR
    or a LF is quoted, rows end in CRLF, and a row of one empty cell is
    written `""`. Each column of a block is searched once; only one holding
    a character to quote goes cell by cell."""
    step = rows_per_block(8 * len(columns))  # a str cell weighs about eight float64s
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(f"# {line}\n" for line in header_lines))
        for cells in chain([[[c] for c in columns]],
                           (block(i, i + step) for i in range(0, rows, step))):
            for k, column in enumerate(cells):
                joined = "".join(column)
                if any(c in joined for c in _QUOTED_CHARS):
                    cells[k] = [c if _QUOTED_CHARS.isdisjoint(c)
                                else '"' + c.replace('"', '""') + '"' for c in column]
            if len(cells) == 1:
                cells = [[c or '""' for c in cells[0]]]
            fh.write("\r\n".join([*map(",".join, zip(*cells)), ""]))


def write_matrix(path: str, matrix: ExpressionMatrix, header_lines=()) -> None:
    _write_csv(path, [*header_lines, "layout: " + ",".join(map(str, matrix.layout.tolist()))],
               ["protein_id"] + [f"s{i + 1:02d}" for i in range(matrix.N)], matrix.p,
               lambda i, j: [matrix.protein_ids[i:j]]
               + [list(map(repr, column)) for column in matrix.values[i:j].T.tolist()])


def write_truth(path: str, protein_ids, truth, header_lines=()) -> None:
    _refuse_comment_ids(protein_ids)
    if len(truth) != len(protein_ids):
        raise ValueError(f"{len(truth)} truth flags for {len(protein_ids)} protein ids")
    _write_csv(path, header_lines, ["protein_id", "is_true"], len(protein_ids),
               lambda i, j: [protein_ids[i:j], ["1" if flag else "0" for flag in truth[i:j]]])


def read_truth(path: str) -> dict:
    truth = _read_keyed(path, ("protein_id", "is_true"), ("0", "1"), ParseError)
    return {pid: flag == "1" for pid, flag in truth.items()}


def write_scores(path: str, scores, header_lines=()) -> None:
    """One CSV row per protein of a ScoreTable, in table order."""
    _write_csv(path, header_lines, ["protein_id", "statistic_kind", "value", "p_value"],
               len(scores), lambda i, j: [
                   scores.ids[i:j], [scores.kind] * len(scores.ids[i:j]),
                   list(map(repr, scores.value[i:j].tolist())),
                   list(map(repr, scores.p_value[i:j].tolist()))])


def write_selection(path: str, result, header_lines=()) -> None:
    policy = [f"policy: {result.policy.kind}", f"cutoff: {_num(result.cutoff_used)}",
              f"fallback_used: {int(result.fallback_used)}"]
    if result.fallback_used:
        policy.append(f"fallback_q: {_num(result.policy.q)}")
    elif result.policy.kind == "bh_fdr":
        policy.append(f"q: {_num(result.policy.q)}")
    _write_csv(path, [*header_lines, *policy], ["protein_id"], len(result.selected),
               lambda i, j: [result.selected[i:j]])


def write_preview(path: str, result, header_lines=()) -> None:
    """Plot-ready descending curve: rank, statistic, protein id."""
    rows = [(str(rank), _num(value), pid)
            for rank, (value, pid) in enumerate(result.sorted_preview, start=1)]
    _write_csv(path, header_lines, ["rank", "statistic", "protein_id"], len(rows),
               lambda i, j: list(zip(*rows[i:j])))


def write_table(path: str, rows: list[dict], columns, header_lines=()) -> None:
    _write_csv(path, header_lines, columns, len(rows), lambda i, j: [
        [_num(row[c]) if isinstance(row[c], float) else str(row[c]) for row in rows[i:j]]
        for c in columns])


def _num(v) -> str:
    # repr of a builtin float round-trips bit-exactly; numpy scalars do not
    return repr(float(v))
