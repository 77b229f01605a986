"""Embedded lifetime data sets and plain-text ingestion.

Both reference data sets are transcribed in full so that the shipped
analyses run without any network access; duplicates are real repeated
observations and are preserved.
"""

from __future__ import annotations

import math
from array import array
from pathlib import Path
from typing import NamedTuple

from .estimation import Sample

# Survival times (days) of 46 melanoma patients, Central Oncology Group
# study; listed by Ahmad (1999).
_MELANOMA_46 = (
    13, 14, 19, 19, 20, 21, 23, 23, 25, 26, 26, 27, 27, 31, 32, 34, 34,
    37, 38, 38, 46, 46, 50, 53, 54, 57, 58, 59, 60, 65, 65, 66, 70, 85,
    90, 98, 102, 103, 110, 118, 124, 130, 136, 138, 141, 234,
)

# Service times of a single component in a reliability study; Table 1 of
# Langseth and Lindqvist (2005).
_SERVICE_86 = (
    220, 233, 234, 240, 265, 270, 273, 279, 285, 287, 294, 295, 300, 325, 328,
    333, 365, 368, 369, 381, 417, 418, 429, 460, 470, 474, 475, 476, 508, 522,
    523, 535, 542, 570, 580, 604, 612, 613, 614, 615, 634, 636, 637, 638, 651,
    657, 660, 666, 668, 680, 681, 684, 691, 693, 705, 717, 834, 837, 841, 843,
    845, 875, 972, 1037, 1084, 1091, 1109, 1117, 1197, 1258, 1269, 1297, 1309,
    1322, 1346, 1349, 1359, 1363, 1448, 1476, 1481, 1557, 1606, 1610, 1642,
    1659,
)


class NamedDataset(NamedTuple):
    name: str
    sample: Sample


_BUILTIN = {
    "melanoma_46": NamedDataset(
        name="melanoma_46",
        sample=Sample(_MELANOMA_46),
    ),
    "service_86": NamedDataset(
        name="service_86",
        sample=Sample(_SERVICE_86),
    ),
}


def builtin(name: str) -> NamedDataset:
    """Return one of the embedded data sets by name."""
    try:
        return _BUILTIN[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(_BUILTIN)}"
        ) from None


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN))


def load(path) -> NamedDataset:
    """Parse a whitespace/newline separated (or single-column CSV) numeric file.

    ``Sample`` validates the values (finite, positive, at least three) and sorts
    them. Errors start with ``path`` as given; parse errors name the offending
    line and token. The file is read in chunks of about 64 KiB of lines into
    one array of doubles; only a file that fails there, in parsing or as a
    sample, is read again line by line, which finds and names the first offender.
    """
    try:
        sample = Sample(_read_chunks(path))
    except ValueError:  # a non-numeric token, a UnicodeDecodeError or a refused sample
        sample = Sample(_read_lines(path))
    return NamedDataset(name=Path(path).stem, sample=sample)


def _read_chunks(path) -> array:
    """Every value of the file, parsed a chunk of whole lines at a time."""
    values = array("d")
    with open(path, "r", encoding="utf-8") as fh:
        while lines := fh.readlines(1 << 16):
            values.extend(map(float, "".join(lines).replace(",", " ").split()))
    return values


def _read_lines(path) -> list[float]:
    """Every value of the file, line by line; the first bad token or value is refused by line."""
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            for token in raw.replace(",", " ").split():
                try:
                    value = float(token)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric token {token!r}"
                    ) from None
                if not math.isfinite(value) or value <= 0.0:
                    raise ValueError(
                        f"{path}:{lineno}: value must be finite and > 0, got {token}"
                    )
                values.append(value)
    if len(values) < 3:
        raise ValueError(f"{path}: need at least 3 values, found {len(values)}")
    return values


def save(dataset: NamedDataset, path) -> None:
    """Write one value per line; loading the file back reproduces the sample."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for value in dataset.sample.values:
            fh.write(f"{float(value)!r}\n")
