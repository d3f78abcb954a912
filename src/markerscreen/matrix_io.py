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
from .matrix import ExpressionMatrix, _UniqueIds, rows_per_block

_QUOTED_CHARS = frozenset(',"\r\n')  # csv.writer quotes a cell holding any of these


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """The header and data records of a small CSV file: a layout sidecar or
    a truth file."""
    with _opened(path) as fh:
        records = _records(csv.reader(fh), {})
        header, rows = next(records, None), list(records)
    if header is None:
        raise ParseError(f"{path}: no header row")
    return [c.strip() for c in header], rows


def _parse_layout_spec(layout_spec: str | None, sample_names: list[str],
                       file_layout: str | None) -> np.ndarray:
    if layout_spec is None:
        if file_layout is None:
            raise LayoutError(
                "no layout given and the matrix file carries no layout comment"
            )
        layout_spec = file_layout
    if os.path.exists(layout_spec):
        mapping: dict[str, int] = {}
        header, rows = _read_rows(layout_spec)
        if [h.lower() for h in header[:2]] != ["sample_id", "condition"]:
            raise LayoutError("layout sidecar needs columns sample_id,condition")
        for row in rows:
            if len(row) < 2:
                raise LayoutError(f"layout sidecar row too short: {row}")
            mapping[row[0].strip()] = _condition_label(row[1])
        missing = [s for s in sample_names if s not in mapping]
        if missing:
            raise LayoutError(f"layout sidecar misses samples: {missing[:5]}")
        return np.array([mapping[s] for s in sample_names])
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

    Raises ParseError for structural problems, LayoutError for condition
    mapping problems, and ValueError naming (protein, sample) for any
    non-numeric or non-finite cell. A cell is numeric when Python's float()
    accepts it.

    The file is read once, in blocks of rows. Up to its first `"`, a record
    is a line split at every comma, in blocks of rows_per_block(samples)
    lines. From the line holding the first `"` on, records are read by
    csv.reader in blocks of rows_per_block(8 * samples), as a str cell
    weighs about eight float64s, and each is rejoined into a line without
    its id. Each block's lines are parsed by one loadtxt call, or cell by
    cell if loadtxt rejects them or an id repeats; a value cell holding a
    comma, a quote or a line break is one loadtxt rejects. Blocks go into one
    values array, sized when a block does not fit for the rows the bytes
    left hold at the bytes per row so far.
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
            new = set(block_ids)
            if block is None or len(new) < len(lines) or not seen.isdisjoint(new):
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
    """path opened with newline="", which splits lines as csv.reader does and
    keeps a CR inside a quoted cell; read and csv errors raise ParseError."""
    try:
        with open(path, newline="") as fh:
            yield fh
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over csv's size limit
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


@contextlib.contextmanager
def _artifact(path: str, header_lines):
    """The artifact file at path, opened for writing after its `# ` header."""
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"# {line}\n" for line in header_lines))
        yield fh


def write_matrix(path: str, matrix: ExpressionMatrix, header_lines=()) -> None:
    with _artifact(path, header_lines) as fh:
        fh.write("# layout: " + ",".join(str(c) for c in matrix.layout) + "\n")
        csv.writer(fh).writerow(["protein_id"] + [f"s{i + 1:02d}" for i in range(matrix.N)])
        step = rows_per_block(matrix.N + 1)
        for i in range(0, matrix.p, step):
            fh.write("".join([
                f"{pid},{','.join(map(repr, row))}\r\n"
                for pid, row in zip(_fields(matrix.protein_ids[i:i + step]),
                                    matrix.values[i:i + step].tolist())
            ]))


def write_truth(path: str, protein_ids, truth, header_lines=()) -> None:
    with _artifact(path, header_lines) as fh:
        writer = csv.writer(fh)
        writer.writerow(["protein_id", "is_true"])
        for pid, flag in zip(protein_ids, truth):
            writer.writerow([pid, int(flag)])


def read_truth(path: str) -> dict:
    header, rows = _read_rows(path)
    if [h.lower() for h in header[:2]] != ["protein_id", "is_true"]:
        raise ParseError(f"{path}: truth file needs columns protein_id,is_true")
    return {row[0].strip(): bool(int(row[1])) for row in rows}


def write_scores(path: str, scores, header_lines=()) -> None:
    """One CSV row per protein of a ScoreTable, in table order, written in
    blocks of rows."""
    with _artifact(path, header_lines) as fh:
        csv.writer(fh).writerow(["protein_id", "statistic_kind", "value", "p_value"])
        kind, = _fields([scores.kind])
        step = rows_per_block(4)
        for i in range(0, len(scores), step):
            fh.write("".join([
                f"{pid},{kind},{value!r},{p_value!r}\r\n"
                for pid, value, p_value in zip(_fields(scores.ids[i:i + step].tolist()),
                                               scores.value[i:i + step].tolist(),
                                               scores.p_value[i:i + step].tolist())
            ]))


def write_selection(path: str, result, header_lines=()) -> None:
    with _artifact(path, header_lines) as fh:
        fh.write(f"# policy: {result.policy.kind}\n")
        cutoff = result.cutoff_used
        fh.write(f"# cutoff: {_num(cutoff) if cutoff is not None else 'none'}\n")
        fh.write(f"# fallback_used: {int(result.fallback_used)}\n")
        if result.fallback_used:
            fh.write(f"# fallback_q: {_num(result.policy.q)}\n")
        elif result.policy.kind == "bh_fdr":
            fh.write(f"# q: {_num(result.policy.q)}\n")
        writer = csv.writer(fh)
        writer.writerow(["protein_id"])
        for pid in result.selected:
            writer.writerow([pid])


def write_preview(path: str, result, header_lines=()) -> None:
    """Plot-ready descending curve: rank, statistic, protein id."""
    with _artifact(path, header_lines) as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "statistic", "protein_id"])
        for rank, (value, pid) in enumerate(result.sorted_preview, start=1):
            writer.writerow([rank, _num(value), pid])


def write_table(path: str, rows: list[dict], columns, header_lines=()) -> None:
    with _artifact(path, header_lines) as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def _fields(cells):
    """Cells as csv.writer writes each in a row of several cells. The block
    is searched once; only one holding a character to quote goes cell by cell."""
    joined = "".join(cells)
    if not any(c in joined for c in _QUOTED_CHARS):
        return cells
    return [c if _QUOTED_CHARS.isdisjoint(c) else '"' + c.replace('"', '""') + '"' for c in cells]


def _num(v) -> str:
    # repr of a builtin float round-trips bit-exactly; numpy scalars do not
    return repr(float(v))


def _format_cell(v):
    if isinstance(v, float):
        return _num(v)
    return v
