"""CSV ingestion and artifact writing.

Matrix files are proteins-as-rows: a header `protein_id,<sample...>`, one
row per protein. The sample-to-condition mapping comes from a `# layout:`
comment in the file, an inline spec like "1,1,2,2", or a sidecar CSV with
columns (sample_id, condition). Values are written with full repr precision
so a simulate -> ingest round trip is bit-exact.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .errors import LayoutError, ParseError
from .matrix import ExpressionMatrix

_QUOTED_CHARS = frozenset(',"\r\n')  # csv.writer quotes a cell holding any of these


def _read_rows(path: str) -> tuple[list[str], list[list[str]], dict[str, str]]:
    """Returns (header, data rows, comment metadata)."""
    try:
        with open(path, newline="") as fh:
            return _scan(csv.reader(fh), path)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise ParseError(f"{path}: {exc}") from exc


def _scan(records, path: str) -> tuple[list[str], list[list[str]], dict[str, str]]:
    """Sorts CSV records into (header, data rows, comment metadata).

    Blank records are skipped; a record whose first cell starts with `#` is
    a comment, read as `key: value` metadata when it has a colon.
    """
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    for raw in records:
        if not raw:
            continue
        if raw[0].startswith("#"):
            text = ",".join(raw).lstrip("#").strip()
            if ":" in text:
                key, _, val = text.partition(":")
                meta[key.strip()] = val.strip()
            continue
        if header is None:
            header = [c.strip() for c in raw]
        else:
            rows.append(raw)
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
    accepts it.
    """
    try:
        with open(path) as fh:  # universal newlines split lines as csv.reader does
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    quoted = '"' in text
    if quoted:  # a quoted cell may hold a comma or a newline: only csv splits it
        header, rows, meta = _read_rows(path)
    else:
        # Without quotes a CSV record is line.split(","); keep each data line
        # as [id, rest] so the numbers are split and parsed in one numpy call.
        header, rows, meta = _scan(
            (line.split(",", 1) for line in text.split("\n") if line), path)
        header = [c.strip() for c in ",".join(header).split(",")]  # split it in full
    del text  # the rows hold their own copies of the lines
    if len(header) < 3 or header[0] != "protein_id":
        raise ParseError(
            f"{path}: header must be protein_id,<at least two sample columns>"
        )
    sample_names = header[1:]
    if not rows:
        raise ParseError(f"{path}: no protein rows")

    if quoted:
        ids, values = _parse_cells(path, header, rows)
    else:
        ids = [row[0].strip() for row in rows]
        values = _parse_block(rows, len(sample_names))
        if values is None or len(set(ids)) != len(ids):
            ids, values = _parse_cells(path, header,
                                       [",".join(row).split(",") for row in rows])

    layout = _parse_layout_spec(layout_spec, sample_names, meta.get("layout"))
    return ExpressionMatrix(values=values, layout=layout, protein_ids=tuple(ids))


def _parse_block(rows: list[list[str]], n_samples: int) -> np.ndarray | None:
    """All-finite (p, n_samples) values of [id, rest] rows, or None.

    None sends the rows to `_parse_cells`, which accepts what float() accepts
    (`1_0`, non-ASCII digits) and otherwise names the first bad row or cell.
    comments=None matters: by default loadtxt reads the cell `1#2` as 1.0.
    """
    if any(len(row) != 2 or row[1].count(",") != n_samples - 1 for row in rows):
        return None
    try:
        values = np.loadtxt([row[1] for row in rows], delimiter=",", ndmin=2,
                            comments=None)
    except ValueError:
        return None
    if values.shape != (len(rows), n_samples) or not np.isfinite(values).all():
        return None
    return values


def _parse_cells(path: str, header: list[str],
                 rows: list[list[str]]) -> tuple[list[str], np.ndarray]:
    """Cell-by-cell parse of full rows; raises on the first bad row or cell."""
    sample_names = header[1:]
    ids = []
    values = np.empty((len(rows), len(sample_names)))
    seen = set()
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}"
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
            if not np.isfinite(v):
                raise ValueError(
                    f"non-finite cell at protein {pid!r}, sample {sample_names[k]!r}"
                )
            values[i, k] = v
    return ids, values


def write_matrix(path: str, matrix: ExpressionMatrix, header_lines=()) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("# layout: " + ",".join(str(c) for c in matrix.layout) + "\n")
        csv.writer(fh).writerow(["protein_id"] + [f"s{i + 1:02d}" for i in range(matrix.N)])
        fh.write("".join([
            f"{_field(pid)},{','.join(map(repr, row))}\r\n"
            for pid, row in zip(matrix.protein_ids, matrix.values.tolist())
        ]))


def write_truth(path: str, protein_ids, truth, header_lines=()) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
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
    """One CSV row per protein of a ScoreTable, in table order."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        csv.writer(fh).writerow(["protein_id", "statistic_kind", "value", "p_value"])
        kind = _field(scores.kind)
        fh.write("".join([
            f"{_field(pid)},{kind},{value!r},{p_value!r}\r\n"
            for pid, value, p_value in zip(scores.ids.tolist(), scores.value.tolist(),
                                           scores.p_value.tolist())
        ]))


def write_selection(path: str, result, header_lines=()) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
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
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["rank", "statistic", "protein_id"])
        for rank, (value, pid) in enumerate(result.sorted_preview, start=1):
            writer.writerow([rank, _num(value), pid])


def write_table(path: str, rows: list[dict], columns, header_lines=()) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
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
