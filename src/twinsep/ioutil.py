"""The `# metadata:` CSV format shared by every CSV reader and writer.

Conventions (log base, s0 convention, risk factor, generators) travel with
the data as `# metadata: key=value` lines before the CSV header.  The
metadata lines end in a bare newline; the header and the data rows are
written by `csv.writer` and end in CRLF.  A file is read as columns.
"""

from __future__ import annotations

import csv

from .errors import ValidationError

METADATA_PREFIX = "metadata:"


def format_metadata(metadata: dict[str, str]) -> list[str]:
    return [f"# {METADATA_PREFIX} {k}={v}" for k, v in sorted(metadata.items())]


def write_csv(path, metadata: dict[str, str], header, rows) -> None:
    """Write metadata lines, then header and rows.  Each metadata line reads back as written,
    so a key or value with a line break, or one that str.strip() would change, and a key with
    "=" are a ValidationError before the file is opened."""
    for key, value in metadata.items():
        k, v = f"{key}", f"{value}"
        if set(k + v) & {"\r", "\n"}:
            raise ValidationError(f"metadata {key!r} must not hold a line break")
        if "=" in k or k.strip() != k or v.strip() != v:
            raise ValidationError(f"metadata {key!r} must not hold '=' in its key, nor "
                                  "whitespace at either end of its key or value")
    with open(path, "w", newline="") as fh:
        for line in format_metadata(metadata):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, columns) -> tuple[dict[str, str], list[int], dict[str, list[str]]]:
    """Metadata, the line number of each data row, and {header name: its cells, row by row}.

    The first non-comment line is the header, and it must name every one of columns (a name
    it repeats keeps its last column); blank lines and other comments are skipped.  Errors, a
    file that is not text among them, name the file and line.
    """
    metadata: dict[str, str] = {}
    numbers: list[int] = []  # the line of the header, then of each data row
    names: list[str] = []
    flat: list[str] = []  # the header's cells, then each row's, as many as the header has
    short = None  # the first data row with fewer cells than the header, and its line
    try:
        with open(path, newline="") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line.startswith("#"):
                    body = line.lstrip("#").strip()
                    if body.startswith(METADATA_PREFIX):
                        key, _, value = body[len(METADATA_PREFIX):].strip().partition("=")
                        metadata[key.strip()] = value.strip()
                elif line:
                    numbers.append(lineno)
                    # a line with a quote is parsed alone, so an open quote cannot run on
                    fields = next(csv.reader([line])) if '"' in line else line.split(",")
                    if len(numbers) == 1:
                        names = [name.strip() for name in fields]
                    elif len(fields) < len(names) and not short:
                        short = lineno, fields
                    flat += fields[: len(names)]
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not a text file") from None
    except csv.Error as exc:  # in a quoted line: a NUL byte before Python 3.11, or a huge cell
        raise ValidationError(f"{path}:{numbers[-1]}: {exc}") from None
    if not numbers:
        raise ValidationError(f"{path}: no data rows")
    for column in columns:
        if column not in names:
            raise ValidationError(f"{path}:{numbers[0]}: missing column {column!r}")
    if short:
        raise ValidationError(f"{path}:{short[0]}: unparseable row {short[1]!r}")
    width = len(names)
    return metadata, numbers[1:], {name: flat[width + j :: width] for j, name in enumerate(names)}


def read_columns(path, columns, kind) -> tuple[dict[str, str], list[tuple]]:
    """Metadata and, per data row, the tuple of its columns converted by kind."""
    metadata, numbers, cells = read_csv(path, columns)
    values = []
    for i, lineno in enumerate(numbers):
        try:
            values.append(tuple(kind(cells[c][i]) for c in columns))
        except ValueError as exc:
            row = {name: column[i] for name, column in cells.items()}
            raise ValidationError(f"{path}:{lineno}: unparseable row {row!r}") from exc
    return metadata, values
