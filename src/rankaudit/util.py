"""Small shared helpers: seed derivation, stable hashing, checked sums, input.

Every input is decoded by `as_text`, and every JSON input (config,
sidecar, JSON matrix, replicates) parsed by `parse_json` and typed by the
readers below, so the rules for a well-formed value live here once:
strings are JSON strings, integers JSON integers, numbers finite JSON
numbers (never booleans or strings), and a null value means the key is absent.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction
from typing import IO, Any, Callable, Collection, Iterable, Mapping, Sequence

from .errors import ConfigError, DomainError, ParseError, SchemaError

Reader = Callable[[Any], Any]


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a stream-specific seed from a root seed and a label path.

    All randomness in the package flows from one root seed through this
    function, so concurrent or reordered sub-computations cannot change
    results.  The derivation is sha256 over the decimal root seed and the
    labels joined by '/'.
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "big")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def checked_fsum(terms: Iterable[float], where: str) -> float:
    """Correctly rounded sum; a sum beyond the float range is a DomainError.

    That includes a term that already overflowed to inf: an infinite sum
    would tie every model whose sum overflows.  `math.fsum` also raises
    when a partial sum overflows, which depends on the order of the terms;
    their exact sum, rounded once, decides instead.
    """
    terms = list(terms)
    try:
        try:
            total = math.fsum(terms)
        except OverflowError:
            total = float(sum(map(Fraction, terms)))
    except (OverflowError, ValueError):
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"sum overflows the float range: {where}")
    return total


def single_line(ids: Iterable[str], what: str) -> None:
    """A SchemaError naming the first id with a line break, which would split its CSV row."""
    for i in ids:
        if "\r" in i or "\n" in i:
            raise SchemaError(f"{what} id {i!r} holds a line break, which would split a CSV row")


def positive(value: float, name: str) -> float:
    """value if it is positive and finite, else a ConfigError naming it."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return value


def distinct(values: Sequence[int], name: str) -> None:
    """A ConfigError naming the first value that `values` lists twice."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigError(f"{name!r} lists {repeated[0]} more than once")


# -- input ---------------------------------------------------------------


def as_text(source: bytes | str | IO, what: str) -> str:
    """The text of source, a stream read to its end, with bytes decoded as `json.loads` does.

    `json.detect_encoding` picks UTF-8 with or without a byte-order mark, UTF-16 or
    UTF-32; bytes that do not decode are a ParseError naming what and the encoding.
    """
    data = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(data, bytes):
        try:
            return data.decode(encoding := json.detect_encoding(data))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} is not valid {encoding}: {exc}") from None
    return data


def parse_json(source: bytes | str | IO, where: str, reader: Reader) -> Any:
    """The JSON document in source, decoded by `as_text` and typed by reader.

    Bytes that do not decode or bad JSON are a ParseError and a value the
    reader rejects a SchemaError.  Each names where; the latter then the
    path of keys and items down to the rejected value.
    """
    try:
        doc = json.loads(as_text(source, where))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{where}: JSON nested too deeply") from None
    try:
        return reader(doc)
    except (TypeError, ValueError, ConfigError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _at(label: str, reader: Reader, value: Any) -> Any:
    try:
        return reader(value)
    except (TypeError, ValueError, ConfigError) as exc:
        raise TypeError(f"{label}: {exc}") from None


def text(value: Any) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def integer(value: Any) -> int:
    """A JSON integer; booleans and other numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def number(value: Any) -> float:
    """A finite JSON number as a float; booleans, strings and 1e400 are rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def array(reader: Reader) -> Reader:
    """A reader of a JSON array, each item through reader."""
    def read_array(value: Any) -> list:
        if not isinstance(value, list):
            raise TypeError(f"expected an array, got {value!r}")
        return [_at(f"item {i}", reader, item) for i, item in enumerate(value)]
    return read_array


def table(reader: Reader) -> Reader:
    """A reader of a JSON object keyed by ids, each value through reader."""
    def read_table(value: Any) -> dict:
        if not isinstance(value, dict):
            raise TypeError(f"expected an object, got {value!r}")
        return {key: _at(repr(key), reader, item) for key, item in value.items()}
    return read_table


def record(readers: Mapping[str, Reader], required: Collection[str] = (),
           extra_keys: bool = False) -> Callable[[Any], dict]:
    """A reader of a JSON object with named keys: a dict of the present ones.

    Each present, non-null key goes through its reader; an absent or null
    key is left out, so the caller's defaults apply, unless it is
    required.  Unknown keys are rejected unless extra_keys.
    """
    def read_record(value: Any) -> dict:
        if not isinstance(value, dict):
            raise TypeError(f"expected an object, got {value!r}")
        unknown = set(value) - set(readers)
        if unknown and not extra_keys:
            raise TypeError(f"unknown key(s) {sorted(unknown)}")
        out = {}
        for key, reader in readers.items():
            if value.get(key) is not None:
                out[key] = _at(repr(key), reader, value[key])
            elif key in required:
                raise TypeError(f"lacks {key!r}")
        return out
    return read_record
