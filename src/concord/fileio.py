"""CSV and JSON readers/writers for the command line and tests.

All CSV files are UTF-8 with a header row.  Formats:

    concepts.csv     id,name,values          values are '|'-separated, optional
    priors.csv       left_id,right_id,p_one
    labels.csv       left_id,right_id,label  label in {0, 1}
    pairs.csv        left_id,right_id,...    extra columns ignored
    embeddings.csv   id,v0,v1,...            fixed dimension per file

Priors, labels and pair lists are pair-keyed: each row goes through
``read_pair_rows``, which applies the one pair rule of ``checked_pair``.
"""

from __future__ import annotations

import csv
import json
import sys
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, InputFormatError
from .graph import checked_pair
from .model import Concept, RelationshipKind, validate_vocabulary

CONCEPTS_HEADER = ["id", "name", "values"]
PRIORS_HEADER = ["left_id", "right_id", "p_one"]
LABELS_HEADER = ["left_id", "right_id", "label"]
PAIRS_HEADER = ["left_id", "right_id"]


def read_csv_rows(path: str, expected_header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, row) after validating the header row."""
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputFormatError(path, None, f"cannot open file: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError(path, 1, "file is empty, expected a header row")
        header = [h.strip() for h in header]
        if header[: len(expected_header)] != list(expected_header):
            raise InputFormatError(
                path, 1, f"expected header {','.join(expected_header)}, got {','.join(header)}"
            )
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            yield line, row


def _parse_int(path: str, line: int | None, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputFormatError(path, line, f"{what} must be an integer, got {text!r}")


def parse_float(path: str, line: int | None, text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputFormatError(path, line, f"{what} must be a number, got {text!r}")


def load_concepts(path: str) -> list[Concept]:
    rows = []
    for line, row in read_csv_rows(path, CONCEPTS_HEADER):
        if len(row) < 2:
            raise InputFormatError(path, line, "expected at least id and name columns")
        cid = _parse_int(path, line, row[0], "id")
        name = row[1].strip()
        if not name:
            raise InputFormatError(path, line, f"concept {cid} has an empty name")
        raw_values = row[2] if len(row) > 2 else ""
        values = tuple(v.strip() for v in raw_values.split("|") if v.strip())
        try:
            rows.append((line, Concept(cid, name, values)))
        except ValueError as exc:
            raise InputFormatError(path, line, str(exc)) from None
    concepts = [c for _, c in sorted(rows, key=lambda item: item[1].id)]
    try:
        validate_vocabulary(concepts)
    except ValueError as exc:
        raise InputFormatError(path, None, str(exc))
    return concepts


def read_pair_rows(
    path: str,
    header: Sequence[str],
    n_concepts: int,
    kind: RelationshipKind,
    rows: Iterable[tuple[int | None, list[str]]] | None = None,
) -> Iterator[tuple[int | None, tuple[int, int], list[str]]]:
    """Yield (line, canonical pair, row) for each row of a pair-keyed file.

    The first two columns of ``header`` are the pair's ids.  Every row must
    fill the header's width, its ids must be integers that ``checked_pair``
    accepts, and no two rows may name the same canonical pair.  ``rows``
    replaces the CSV rows of ``path`` with (line, cells) read elsewhere.
    """
    seen: set[tuple[int, int]] = set()
    for line, row in read_csv_rows(path, header) if rows is None else rows:
        if len(row) < len(header):
            raise InputFormatError(path, line, f"expected {','.join(header)}")
        left = _parse_int(path, line, row[0], header[0])
        right = _parse_int(path, line, row[1], header[1])
        try:
            pair = checked_pair(left, right, n_concepts, kind)
        except ConfigurationError as exc:
            raise InputFormatError(path, line, str(exc)) from None
        if pair in seen:
            raise InputFormatError(path, line, f"duplicate pair {pair}")
        seen.add(pair)
        yield line, pair, row


def load_labels(
    path: str,
    n_concepts: int,
    kind: RelationshipKind,
    rows: Iterable[tuple[int | None, list[str]]] | None = None,
) -> dict[tuple[int, int], int]:
    """Read a labels file into a 0/1 map keyed by canonical pair; ``rows``
    as for ``read_pair_rows``."""
    labels: dict[tuple[int, int], int] = {}
    for line, pair, row in read_pair_rows(path, LABELS_HEADER, n_concepts, kind, rows):
        label = _parse_int(path, line, row[2], "label")
        if label not in (0, 1):
            raise InputFormatError(path, line, f"label must be 0 or 1, got {label}")
        labels[pair] = label
    return labels


def load_pairs(path: str, n_concepts: int, kind: RelationshipKind) -> list[tuple[int, int]]:
    """Read the pair columns of a labels or priors file, ignoring extras."""
    return [pair for _, pair, _ in read_pair_rows(path, PAIRS_HEADER, n_concepts, kind)]


def load_embeddings(path: str) -> dict[int, np.ndarray]:
    embeddings: dict[int, np.ndarray] = {}
    dim: int | None = None
    for line, row in read_csv_rows(path, ["id"]):
        if len(row) < 2:
            raise InputFormatError(path, line, "expected id followed by vector components")
        cid = _parse_int(path, line, row[0], "id")
        vec = np.array(
            [parse_float(path, line, cell, "vector component") for cell in row[1:]],
            dtype=np.float64,
        )
        nonfinite = np.flatnonzero(~np.isfinite(vec))
        if nonfinite.size:
            cell = row[1 + nonfinite[0]]
            raise InputFormatError(path, line, f"vector components must be finite, got {cell!r}")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise InputFormatError(
                path, line, f"vector has {vec.size} components, expected {dim}"
            )
        if cid in embeddings:
            raise InputFormatError(path, line, f"duplicate embedding for id {cid}")
        embeddings[cid] = vec
    return embeddings


def write_concepts(path: str, concepts: Iterable[Concept]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CONCEPTS_HEADER)
        for c in concepts:
            writer.writerow([c.id, c.name, "|".join(c.values)])


def write_priors(path: str, priors: Mapping[tuple[int, int], float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PRIORS_HEADER)
        for (left, right), p in priors.items():
            writer.writerow([left, right, repr(float(p))])


def write_labels(path: str, labels: Mapping[tuple[int, int], int]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(LABELS_HEADER)
        for (left, right), label in labels.items():
            writer.writerow([left, right, int(label)])


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(payload, path: str | None) -> None:
    """Write a JSON document to a file, or stdout when path is None.

    A NaN or infinite number raises ValueError before anything is written:
    strict JSON has no token for it.
    """
    text = json.dumps(payload, indent=2, default=_json_default, allow_nan=False)
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputFormatError(path, None, f"cannot open file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
