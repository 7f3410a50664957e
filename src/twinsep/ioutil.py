"""The `# metadata:` CSV format shared by every CSV reader and writer.

Conventions (log base, s0 convention, risk factor, generators) travel with
the data as `# metadata: key=value` lines before the CSV header.  The
metadata lines end in a bare newline; the header and the data rows are
written by `csv.writer` and end in CRLF.
"""

from __future__ import annotations

import csv

from .errors import ValidationError

METADATA_PREFIX = "metadata:"


def format_metadata(metadata: dict[str, str]) -> list[str]:
    return [f"# {METADATA_PREFIX} {k}={v}" for k, v in sorted(metadata.items())]


def write_csv(path, metadata: dict[str, str], header, rows) -> None:
    """Write metadata lines, then the header and rows as CSV."""
    with open(path, "w", newline="") as fh:
        for line in format_metadata(metadata):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, columns) -> tuple[dict[str, str], list[tuple[int, dict[str, str]]]]:
    """Metadata and data rows of a metadata-CSV file.

    The first non-comment line is the header, and it must name every one
    of columns.  Each data row comes back as (line number, {header name:
    cell}); blank lines and other comments are skipped.  Errors, a file
    that is not text among them, name the file and line.
    """
    metadata: dict[str, str] = {}
    # each data line's number and fields; the fields as a tuple of strings, which the garbage
    # collector stops tracking once it has seen it, where it would walk a list in every pass
    numbers: list[int] = []
    cells: list[tuple[str, ...]] = []
    lineno = 0

    def data_lines(fh):
        """The data lines, stripped, for one csv.reader; a line with a quote is parsed on its own,
        so that a quote it leaves open does not run into the next line."""
        nonlocal lineno
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith(METADATA_PREFIX):
                    key, _, value = body[len(METADATA_PREFIX):].strip().partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if '"' in line:
                numbers.append(lineno)
                cells.append(tuple(next(csv.reader([line]))))
                continue
            yield line

    try:
        with open(path, newline="") as fh:
            # the reader reads no further than the line of the row it returns, so that row's
            # line number is lineno
            for fields in csv.reader(data_lines(fh)):
                numbers.append(lineno)
                cells.append(tuple(fields))
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not a text file") from None
    except csv.Error as exc:  # a NUL byte, before Python 3.11
        raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if not cells:
        raise ValidationError(f"{path}: no data rows")

    names = [h.strip() for h in cells[0]]
    for column in columns:
        if column not in names:
            raise ValidationError(f"{path}:{numbers[0]}: missing column {column!r}")
    del numbers[0], cells[0]
    for lineno, fields in zip(numbers, cells):
        if len(fields) < len(names):
            raise ValidationError(f"{path}:{lineno}: unparseable row {list(fields)!r}")
    return metadata, [(lineno, dict(zip(names, fields))) for lineno, fields in zip(numbers, cells)]


def read_columns(path, columns, kind) -> tuple[dict[str, str], list[tuple]]:
    """Metadata and, per data row, the tuple of its columns converted by kind."""
    metadata, rows = read_csv(path, columns)
    values = []
    for lineno, row in rows:
        try:
            values.append(tuple(kind(row[c]) for c in columns))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: unparseable row {row!r}") from exc
    return metadata, values
