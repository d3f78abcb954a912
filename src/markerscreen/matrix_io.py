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
from itertools import islice, repeat

import numpy as np

from .errors import LayoutError, ParseError
from .matrix import ExpressionMatrix, _UniqueIds, rows_per_block

_QUOTED_CHARS = frozenset(',"\r\n')  # csv.writer quotes a cell holding any of these


def _read_rows(path: str) -> tuple[list[str], list[list[str]], dict[str, str]]:
    """Returns (header, data rows, comment metadata) of a CSV file.

    Blank records are skipped; a record whose first cell starts with `#` is
    a comment, read as `key: value` metadata when it has a colon.
    """
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    try:
        with open(path, newline="") as fh:
            for raw in csv.reader(fh):
                if not raw or _comment(",".join(raw), meta):
                    continue
                if header is None:
                    header = [c.strip() for c in raw]
                else:
                    rows.append(raw)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise ParseError(f"{path}: {exc}") from exc
    if header is None:
        raise ParseError(f"{path}: no header row")
    return header, rows, meta


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
        header, rows, _ = _read_rows(layout_spec)
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
    accepts it. A file without `"` is read in blocks of rows; a quoted cell
    may hold a comma or a newline, so a file with one goes through csv.
    """
    try:
        with open(path) as fh:  # universal newlines split lines as csv.reader does
            read = _read_unquoted(fh, path)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if read is None:
        header, rows, meta = _read_rows(path)
        _check_header(header, path)
        if not rows:
            raise ParseError(f"{path}: no protein rows")
        ids, values = _parse_cells(path, header, rows)
    else:
        header, ids, values, meta = read
    layout = _parse_layout_spec(layout_spec, header[1:], meta.get("layout"))
    return ExpressionMatrix(values=values, layout=layout, protein_ids=_UniqueIds(ids))


def _check_header(header: list[str], path: str) -> None:
    if len(header) < 3 or header[0] != "protein_id":
        raise ParseError(
            f"{path}: header must be protein_id,<at least two sample columns>"
        )


def _comment(line: str, meta: dict[str, str]) -> bool:
    """Whether line is a comment, recording it in meta when it is `key: value`."""
    if not line.startswith("#"):
        return False
    text = line.lstrip("#").strip()
    if ":" in text:
        key, _, val = text.partition(":")
        meta[key.strip()] = val.strip()
    return True


def _read_unquoted(fh, path: str):
    """(header, ids, values, comment metadata) of an open matrix file, or None
    at its first `"`.

    Without quotes a CSV record is a line split at every comma. Data lines are
    parsed in blocks of rows_per_block(samples) lines, each by one loadtxt
    call; a block that call rejects goes to `_parse_cells`. Blocks go into one
    values array, sized when a block does not fit for the rows the bytes left
    hold at the characters per row so far, and trimmed at the end.
    """
    meta: dict[str, str] = {}
    header = None
    for line in fh:  # comments and blank lines up to the header
        if '"' in line:
            return None
        if line != "\n" and not _comment(line, meta):
            header = [c.strip() for c in line.rstrip("\n").split(",")]
            break
    if header is None:
        raise ParseError(f"{path}: no header row")
    _check_header(header, path)
    n = len(header) - 1
    ids: list[str] = []
    values = np.empty((0, n))
    seen: set[str] = set()
    size, chars = os.fstat(fh.fileno()).st_size, 0  # file bytes, characters read
    while lines := list(islice(fh, rows_per_block(n))):
        chars += sum(map(len, lines))
        if any('"' in line for line in lines):
            return None
        rows = [line for line in lines if line != "\n" and not line.startswith("#")]
        if len(rows) < len(lines):
            for line in lines:
                _comment(line, meta)
        if not rows:
            continue
        block_ids = [line.partition(",")[0].strip() for line in rows]
        block = _parse_block(rows, n)
        new = set(block_ids)
        if block is None or len(new) < len(rows) or not seen.isdisjoint(new):
            block_ids, block = _parse_cells(
                path, header, [line.rstrip("\n").split(",") for line in rows], len(ids), seen)
        end = len(ids) + len(rows)
        if end > len(values):  # no view of values exists, so resize may move it
            values.resize((end + max(0, size - chars) * end // chars, n), refcheck=False)
        values[len(ids):end] = block
        ids += block_ids
        del lines, rows, block  # not held while seen grows or the next block is read
        seen |= new  # a no-op after _parse_cells, which adds the ids itself
    if not ids:
        raise ParseError(f"{path}: no protein rows")
    values.resize((len(ids), n), refcheck=False)
    return header, ids, values, meta


def _parse_block(lines: list[str], n_samples: int) -> np.ndarray | None:
    """All-finite (rows, n_samples) values of data lines, or None.

    None sends the lines to `_parse_cells`, which accepts what float() accepts
    (`1_0`, non-ASCII digits) and otherwise names the first bad row or cell.
    comments=None matters: by default loadtxt reads the cell `1#2` as 1.0.
    """
    try:
        values = np.loadtxt(lines, delimiter=",", usecols=range(1, n_samples + 1),
                            ndmin=2, comments=None)
    except ValueError:
        return None
    # usecols needs at least n_samples commas on every line, so this many
    # commas in all means exactly n_samples on each
    if (values.shape != (len(lines), n_samples)
            or sum(map(str.count, lines, repeat(","))) != len(lines) * n_samples
            or not np.isfinite(values).all()):
        return None
    return values


def _parse_cells(path: str, header: list[str], rows: list[list[str]], first: int = 0,
                 seen: set[str] | None = None) -> tuple[list[str], np.ndarray]:
    """Cell-by-cell parse of full rows, the first of them data row `first` of
    the file, with the ids of the rows before them in seen (which gains
    theirs); raises on the first bad row or cell."""
    sample_names = header[1:]
    ids = []
    values = np.empty((len(rows), len(sample_names)))
    seen = set() if seen is None else seen
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
                f"{_field(pid)},{','.join(map(repr, row))}\r\n"
                for pid, row in zip(matrix.protein_ids[i:i + step],
                                    matrix.values[i:i + step].tolist())
            ]))


def write_truth(path: str, protein_ids, truth, header_lines=()) -> None:
    with _artifact(path, header_lines) as fh:
        writer = csv.writer(fh)
        writer.writerow(["protein_id", "is_true"])
        for pid, flag in zip(protein_ids, truth):
            writer.writerow([pid, int(flag)])


def read_truth(path: str) -> dict:
    header, rows, _ = _read_rows(path)
    if [h.lower() for h in header[:2]] != ["protein_id", "is_true"]:
        raise ParseError(f"{path}: truth file needs columns protein_id,is_true")
    return {row[0].strip(): bool(int(row[1])) for row in rows}


def write_scores(path: str, scores, header_lines=()) -> None:
    """One CSV row per protein of a ScoreTable, in table order, written in
    blocks of rows."""
    with _artifact(path, header_lines) as fh:
        csv.writer(fh).writerow(["protein_id", "statistic_kind", "value", "p_value"])
        kind = _field(scores.kind)
        step = rows_per_block(4)
        for i in range(0, len(scores), step):
            fh.write("".join([
                f"{_field(pid)},{kind},{value!r},{p_value!r}\r\n"
                for pid, value, p_value in zip(scores.ids[i:i + step].tolist(),
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


def _field(cell: str) -> str:
    """`cell` as csv.writer writes it in a row of several cells."""
    if _QUOTED_CHARS.isdisjoint(cell):
        return cell
    return '"' + cell.replace('"', '""') + '"'


def _num(v) -> str:
    # repr of a builtin float round-trips bit-exactly; numpy scalars do not
    return repr(float(v))


def _format_cell(v):
    if isinstance(v, float):
        return _num(v)
    return v
