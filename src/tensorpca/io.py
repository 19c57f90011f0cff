"""Reading and writing tensors as line-oriented text.

The format is deliberately plain so files diff cleanly::

    tensorfile 1
    kind super_symmetric
    dims 3 3 3 3
    entries 15
    1 1 1 1 0.28829999999999999
    ...

Indices in files are 1-based; zero entries are omitted.  Values carry 17
significant digits, which round-trips 64-bit floats exactly.  The
``super_symmetric`` kind stores one row per sorted index tuple and the
reader rejects unsorted or repeated index tuples; ``general`` holds an
arbitrary dense array; ``partial_symmetric`` holds an (n, m, n, m) array
and the reader checks the bi-quadratic symmetry.  No file's array may hold
more than MAX_ROWS**2 values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .admm import MAX_ROWS
from .matricize import is_partial_symmetric, matr_partial
from .tensors import SuperSymmetricTensor, _from_rows

__all__ = ["FORMAT_VERSION", "KINDS", "TensorFileError", "LoadedTensor",
           "read_tensor", "write_tensor"]

FORMAT_VERSION = 1
KINDS = ("super_symmetric", "general", "partial_symmetric")


class TensorFileError(Exception):
    """Malformed tensor file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class LoadedTensor:
    kind: str
    data: Union[SuperSymmetricTensor, np.ndarray]
    dims: Tuple[int, ...]


def _meaningful_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield number, stripped


def _expect(lines, field: str):
    try:
        number, line = next(lines)
    except StopIteration:
        raise TensorFileError(f"unexpected end of file, expected '{field}'")
    tokens = line.split()
    if tokens[0] != field:
        raise TensorFileError(f"expected '{field}', got {tokens[0]!r}", number)
    return number, tokens[1:]


def _is_ascii_count(token: str) -> bool:
    # a count in ASCII digits: int() alone reads any Unicode decimal digit,
    # and str.isdigit alone passes digits int() refuses, such as superscripts
    return token.isascii() and token.isdigit()


def _dims_problem(kind: str, dims: Tuple[int, ...]) -> str:
    # the dims rule both directions enforce; "" when dims are fine
    if not dims or any(d < 1 for d in dims):
        return "dims must be positive integers"
    if kind == "super_symmetric" and len(set(dims)) != 1:
        return "super_symmetric tensors are cubical"
    if kind == "partial_symmetric" and (
            len(dims) != 4 or dims[0] != dims[2] or dims[1] != dims[3]):
        return "partial_symmetric dims must be n m n m"
    # the array read: one value per class, or the dense array
    size = (math.comb(dims[0] + len(dims) - 1, len(dims))
            if kind == "super_symmetric" else math.prod(dims))
    if size > MAX_ROWS ** 2:
        return f"the array holds {size} values, above the limit {MAX_ROWS ** 2}"
    return ""


def read_tensor(path) -> LoadedTensor:
    """Parse a tensor file; malformed input raises TensorFileError."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = _meaningful_lines(text)

    number, rest = _expect(lines, "tensorfile")
    if len(rest) != 1 or not _is_ascii_count(rest[0]):
        raise TensorFileError("expected 'tensorfile <version>'", number)
    if int(rest[0]) != FORMAT_VERSION:
        raise TensorFileError(f"unsupported format version {rest[0]}", number)

    number, rest = _expect(lines, "kind")
    if len(rest) != 1 or rest[0] not in KINDS:
        raise TensorFileError(f"kind must be one of {', '.join(KINDS)}", number)
    kind = rest[0]

    number, rest = _expect(lines, "dims")
    if not all(_is_ascii_count(tok) for tok in rest):
        raise TensorFileError("dims must be positive integers", number)
    dims = tuple(int(tok) for tok in rest)
    problem = _dims_problem(kind, dims)
    if problem:
        raise TensorFileError(problem, number)

    number, rest = _expect(lines, "entries")
    if len(rest) != 1 or not _is_ascii_count(rest[0]):
        raise TensorFileError("expected 'entries <count>'", number)
    count = int(rest[0])

    order = len(dims)
    entries = []
    seen = set()
    for _ in range(count):
        try:
            number, line = next(lines)
        except StopIteration:
            raise TensorFileError(f"expected {count} entry rows, file ended early")
        tokens = line.split()
        if len(tokens) != order + 1:
            raise TensorFileError(
                f"expected {order} indices and a value, got {len(tokens)} fields",
                number)
        # int() and float() read any Unicode decimal digit; one test of the
        # whole row keeps the per-row cost of the common ASCII file
        if not line.isascii():
            raise TensorFileError("entry rows must be ASCII", number)
        try:
            idx = tuple(int(tok) - 1 for tok in tokens[:order])
        except ValueError:
            raise TensorFileError("indices must be integers", number)
        try:
            value = float(tokens[order])
        except ValueError:
            raise TensorFileError(f"bad value {tokens[order]!r}", number)
        if not math.isfinite(value):
            raise TensorFileError("values must be finite", number)
        for component, dim in zip(idx, dims):
            if component < 0 or component >= dim:
                raise TensorFileError(
                    f"index {tuple(i + 1 for i in idx)} out of range for dims {dims}",
                    number)
        if kind == "super_symmetric" and idx != tuple(sorted(idx)):
            raise TensorFileError(
                f"index {tuple(i + 1 for i in idx)} is not sorted", number)
        if idx in seen:
            raise TensorFileError(
                f"duplicate entry for index {tuple(i + 1 for i in idx)}", number)
        seen.add(idx)
        entries.append((idx, value))

    for number, _ in lines:
        raise TensorFileError("unexpected content after the entry rows", number)

    if kind == "super_symmetric":
        # the rows are checked sorted, in range and distinct above
        data = _from_rows(dims[0], order, entries)
    else:
        data = np.zeros(dims)
        for idx, value in entries:
            data[idx] = value
        if kind == "partial_symmetric":
            ok, violation = is_partial_symmetric(data, tol=1e-10)
            if not ok:
                raise TensorFileError(
                    f"partial symmetry violated by {violation:.3e}")
    return LoadedTensor(kind, data, dims)


def write_tensor(path, data, kind: str = None) -> None:
    """Write a tensor; the kind is inferred unless given explicitly.

    Dims the reader would refuse (empty, zero, not the kind's shape, or
    too many values) raise ValueError before the file is opened.
    """
    if kind is None:
        kind = "super_symmetric" if isinstance(data, SuperSymmetricTensor) \
            else "general"
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {', '.join(KINDS)}")

    if kind == "super_symmetric":
        if not isinstance(data, SuperSymmetricTensor):
            raise TypeError("super_symmetric files need a SuperSymmetricTensor")
        dims = (data.n,) * data.m
    else:
        data = np.asarray(data, dtype=float)
        dims = data.shape
    problem = _dims_problem(kind, dims)
    if problem:
        raise ValueError(f"{problem}, got dims {dims}")
    if kind == "super_symmetric":
        entries = list(data.items())  # the nonzero classes, in key order
    else:
        if kind == "partial_symmetric":
            matr_partial(data)  # raises on a partial-symmetry violation
        entries = [(idx, float(data[idx])) for idx in np.ndindex(*dims)
                   if data[idx] != 0.0]

    out = [f"tensorfile {FORMAT_VERSION}",
           f"kind {kind}",
           "dims " + " ".join(str(d) for d in dims),
           f"entries {len(entries)}"]
    for idx, value in entries:
        head = " ".join(str(i + 1) for i in idx)
        out.append(f"{head} {value:.17g}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(out) + "\n")
