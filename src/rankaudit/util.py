"""Small shared helpers: seed derivation, stable hashing and checked sums."""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

from .errors import DomainError


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
    """Correctly rounded sum; a sum beyond the float range is a DomainError."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        raise DomainError(f"sum overflows the float range: {where}") from None
