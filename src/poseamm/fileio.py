"""Plain-text correspondence files and the sweep CSV format.

Correspondence files are whitespace-separated decimal floats with ``#``
comments; the first meaningful line declares the kind:

    absolute            point xyz, bearing xyz, offset xyz   (9 fields/line)
    relative            dir1, moment1, dir2, moment2         (12 fields/line)

A file is read line by line into one float buffer, checked row by row in
one vectorized pass and returned as a ``PointRaySet`` or a
``RayPairSet``; ``write_correspondence_file`` writes such a set back.
Bearings and directions are renormalized on load (moments rescale with
their direction so the line is unchanged). Relative lines whose
direction-moment product exceeds 1e-6 are rejected; smaller violations
are projected out so downstream invariants hold exactly. Non-finite
fields, and fields that overflow when renormalized, are rejected.

Errors name the first faulty line (1-based, counting comments and blank
lines). Within a line the faults are looked for in this order: bytes that
are not UTF-8 (anywhere on the line, comments included), a non-numeric
field, a wrong field count, a non-finite field, then per bearing or
direction a zero vector, an overflow on renormalization and, for relative
lines, the direction-moment product.

The sweep CSV stores one trial record per row with floats printed to 17
significant digits, so write -> read -> write is byte-identical.
"""

from __future__ import annotations

import io
from array import array
from typing import Sequence

import numpy as np

from .absolute import PointRaySet
from .bench import TrialRecord
from .exceptions import ParseError
from .geometry import first_fault, row_dots, row_norms
from .relative import RayPairSet

KIND_ABSOLUTE = "absolute"
KIND_RELATIVE = "relative"
_FIELDS = {KIND_ABSOLUTE: 9, KIND_RELATIVE: 12}

CSV_HEADER = "noise,trial,solver,rot_err,trans_err,time_ns,iters,final_obj,converged"

_PLUECKER_TOL = 1e-6
_ZERO_NORM = 1e-12


def _fmt(x: float) -> str:
    return "%.17g" % x


def _numeric(fields) -> bool:
    try:
        for field in fields:
            float(field)
    except ValueError:
        return False
    return True


def _undecodable(line: str) -> bool:
    """Whether a line read with errors="surrogateescape" held bytes that
    are not UTF-8 (they come back as lone surrogates)."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _read_rows(stream, path: str):
    """-> (kind, values, linenos, stop) for the data lines of a file.

    ``values`` holds the fields of the lines ``linenos`` as an (N, width)
    float array. Reading ends at the first line that is not valid UTF-8,
    has the wrong field count or has a non-numeric field; ``stop`` is the
    ParseError of that line, else None.
    """
    kind = None
    values = array("d")
    linenos = []
    for lineno, raw in enumerate(stream, start=1):
        if not raw.isascii() and _undecodable(raw):
            stop = ParseError(f"line {lineno}: not valid UTF-8")
            if kind is None:
                raise stop
            break
        content = raw.split("#", 1)[0]
        fields = content.split()
        if not fields:
            continue
        if kind is None:
            kind = content.strip()
            if kind not in _FIELDS:
                raise ParseError(
                    f"line {lineno}: expected header '{KIND_ABSOLUTE}' or "
                    f"'{KIND_RELATIVE}', got {kind!r}")
            width = _FIELDS[kind]
            continue
        if len(fields) == width:
            try:
                values.extend(map(float, fields))
            except ValueError:
                del values[len(linenos) * width:]
            else:
                linenos.append(lineno)
                continue
        if _numeric(fields):
            stop = ParseError(
                f"line {lineno}: expected {width} fields, got {len(fields)}")
        else:
            stop = ParseError(f"line {lineno}: non-numeric field")
        break
    else:
        if kind is None:
            raise ParseError(f"{path}: missing kind header")
        stop = None
    rows = np.frombuffer(values, dtype=float).reshape(-1, width)
    return kind, rows, linenos, stop


def _checked_set(kind: str, values: np.ndarray, linenos):
    """The set of the parsed rows; raises the first faulty line's error.

    Faults are ordered per line as in the module docstring; each entry of
    ``faults`` pairs the mask of the rows showing a fault with a function
    from a row index to its exception.
    """
    def parse_error(text):
        return lambda i: ParseError(f"line {linenos[i]}: {text}")

    non_finite = parse_error("non-finite field")
    faults = [(~np.isfinite(values).all(axis=1), non_finite)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind == KIND_ABSOLUTE:
            norms = row_norms(values[:, 3:6])
            faults += [(norms < _ZERO_NORM, parse_error("zero bearing vector")),
                       (~np.isfinite(norms), non_finite)]
            arrays = [values[:, 0:3], values[:, 3:6] / norms[:, None],
                      values[:, 6:9]]
        else:
            arrays = []
            for start in (0, 6):
                norms = row_norms(values[:, start:start + 3])
                d = values[:, start:start + 3] / norms[:, None]
                m = values[:, start + 3:start + 6] / norms[:, None]
                residual = row_dots(d, m)
                faults += [
                    (norms < _ZERO_NORM, parse_error("zero direction vector")),
                    (~(np.isfinite(norms) & np.isfinite(m).all(axis=1)), non_finite),
                    (np.abs(residual) > _PLUECKER_TOL,
                     lambda i, r=residual: ParseError(
                         f"line {linenos[i]}: direction.moment = {r[i]:g} "
                         f"exceeds {_PLUECKER_TOL:g}"))]
                arrays += [d, m - residual[:, None] * d]
    found = first_fault([mask for mask, _ in faults])
    if found is not None:
        row, k = found
        raise faults[k][1](row)
    if kind == KIND_ABSOLUTE:
        return PointRaySet(*arrays)
    return RayPairSet(*arrays)


def parse_correspondence_file(path):
    """-> (kind, PointRaySet or RayPairSet). Errors name the first faulty line.

    Raises ParseError, also for a relative line whose direction-moment
    product exceeds 1e-6.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as stream:
        kind, values, linenos, stop = _read_rows(stream, str(path))
    corrs = _checked_set(kind, values, linenos)
    if stop is not None:
        raise stop
    return kind, corrs


def write_correspondence_file(path, kind: str, corrs) -> None:
    """Inverse of parse_correspondence_file, lossless for float64 fields.

    ``corrs`` is the set of the file's kind (a ``PointRaySet`` for
    absolute files, a ``RayPairSet`` for relative ones); every field is
    printed with ``%.17g``.
    """
    if kind == KIND_ABSOLUTE:
        columns = (corrs.points, corrs.bearings, corrs.offsets)
    elif kind == KIND_RELATIVE:
        columns = (corrs.d1, corrs.m1, corrs.d2, corrs.m2)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    values = np.hstack(columns)
    line = " ".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(kind + "\n")
        stream.write((line * len(values)) % tuple(values.ravel().tolist()))


def record_to_csv_row(record: TrialRecord) -> str:
    return ",".join([
        _fmt(record.noise_sigma),
        str(record.trial_index),
        record.solver_name,
        _fmt(record.rot_err_frobenius),
        _fmt(record.trans_err_norm),
        str(record.wall_time_ns),
        str(record.outer_iterations),
        _fmt(record.final_objective),
        "1" if record.converged else "0",
    ])


def records_to_csv(records: Sequence[TrialRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(record_to_csv_row(r) for r in records)
    return "\n".join(lines) + "\n"


def write_sweep_csv(records: Sequence[TrialRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(records_to_csv(records))


def _parse_csv_row(row: str, lineno: int) -> TrialRecord:
    if not row.isascii() and _undecodable(row):
        raise ParseError(f"line {lineno}: not valid UTF-8")
    fields = row.split(",")
    if len(fields) != 9:
        raise ParseError(f"line {lineno}: expected 9 CSV fields, got {len(fields)}")
    try:
        return TrialRecord(
            noise_sigma=float(fields[0]),
            trial_index=int(fields[1]),
            solver_name=fields[2],
            rot_err_frobenius=float(fields[3]),
            trans_err_norm=float(fields[4]),
            wall_time_ns=int(fields[5]),
            outer_iterations=int(fields[6]),
            final_objective=float(fields[7]),
            converged=fields[8] == "1",
        )
    except ValueError:
        raise ParseError(f"line {lineno}: malformed CSV field") from None


def read_sweep_csv(source) -> list:
    """Parse a sweep CSV from a path or a file-like object.

    A binary stream is decoded as UTF-8. Rows end at "\n" only (one "\r"
    before it is dropped, so CRLF files read). Raises ParseError naming the
    first faulty line; a line holding bytes that are not UTF-8 (in text,
    the lone surrogates errors="surrogateescape" decodes them to) is faulty.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8", errors="surrogateescape",
                      newline="") as stream:
                text = stream.read()
    except UnicodeDecodeError as exc:
        # A strict text stream decodes what read() returns in one piece.
        lineno = exc.object[:exc.start].count(b"\n") + 1
        raise ParseError(f"line {lineno}: not valid UTF-8") from None
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="surrogateescape")
    lines = [line[:-1] if line.endswith("\r") else line for line in text.split("\n")]
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError("line 1: missing or unexpected CSV header")
    return [_parse_csv_row(row, lineno)
            for lineno, row in enumerate(lines[1:], start=2) if row]


def csv_round_trip(text: str) -> str:
    """Reserialize a sweep CSV; byte-identical for well-formed input."""
    return records_to_csv(read_sweep_csv(io.StringIO(text)))
