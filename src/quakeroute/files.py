"""The one module that encodes or decodes a file: ``read_json`` with ``check_layout``
reads every input, against a layout kept beside the build function that reads its
keys, and ``write_json``, ``write_jsonl`` and ``write_csv`` write every output but
the QASM text."""
from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path as FilePath

# The value kinds that a layout names: the Python types that JSON decoding
# gives each and its inclusive range. NaN lies in no range, the finite kinds
# stop at the largest float, and non-negative integers stay below 2**63, so
# that they fit an int64 array.
_FLOAT_MAX = sys.float_info.max
_KINDS = {"a finite number": ((int, float), -_FLOAT_MAX, _FLOAT_MAX),
          "a finite float": ((float,), -_FLOAT_MAX, _FLOAT_MAX),
          "an integer": ((int,), -math.inf, math.inf),
          "a non-negative integer": ((int,), 0, 2**63 - 1),
          "a boolean": ((bool,), False, True)}


def read_json(path: str | FilePath, layout, build, error: type[ValueError] = ValueError,
              lines: bool = False):
    """The one reader of input files: ``build(doc)`` for the UTF-8 JSON ``doc`` in ``path``,
    or with ``lines`` a list of them, one per non-blank line. ``doc`` must have
    ``layout`` (``None`` leaves that to ``build``); a ValueError of any step, or
    nesting too deep to parse, is raised as ``error`` after ``<path>:`` or
    ``<path>, line N:``."""
    built = []
    with open(path, "rb") as fh:
        for lineno, chunk in enumerate(fh if lines else [fh.read()], 1):
            if lines and not chunk.strip():
                continue
            try:
                doc = json.loads(chunk.decode("utf-8"))
                built.append(build(doc if layout is None else check_layout("", doc, layout)))
            except (ValueError, RecursionError) as exc:
                raise error(f"{path}{f', line {lineno}' if lines else ''}: {exc}") from None
    return built if lines else built[0]


def check_layout(key: str, value, layout):
    """Return JSON ``value`` if it has ``layout``, else raise ValueError naming ``key``.

    A dict is a JSON object with exactly its keys, ``[item]`` a JSON list of
    items, a tuple a JSON list with one item per entry, a kind name of
    ``_KINDS`` a value of that kind, and anything else (another string too) a
    value equal to it. ``read_json`` runs this check and names the file.
    """
    if isinstance(layout, str) and layout in _KINDS:
        types, lo, hi = _KINDS[layout]
        if type(value) in types and lo <= value <= hi:
            return value
        problem = f"is {value!r}, not {layout}"
    elif isinstance(layout, dict):
        if not isinstance(value, dict):
            problem = f"is not a JSON object with the keys {list(layout)}"
        elif value.keys() != layout.keys():
            problem = (f"lacks the keys {sorted(layout.keys() - value.keys())} "
                       f"and has the extra keys {sorted(value.keys() - layout.keys())}")
        else:
            for k in layout:
                check_layout(f"{key}.{k}" if key else k, value[k], layout[k])
            return value
    elif isinstance(layout, (list, tuple)):
        exact = isinstance(layout, tuple)
        if isinstance(value, list) and (not exact or len(value) == len(layout)):
            # a kind-named item is checked here, not by a call per value
            for i, (item, part) in enumerate(zip(value, layout if exact else layout * len(value))):
                kind = _KINDS.get(part) if isinstance(part, str) else None
                if kind is None:
                    check_layout(f"{key}[{i}]", item, part)
                elif not (type(item) in kind[0] and kind[1] <= item <= kind[2]):
                    raise ValueError(f"{key}[{i}] is {item!r}, not {part}")
            return value
        problem = f"is not a {f'length-{len(layout)} ' if exact else ''}JSON list"
    elif value == layout:
        return value
    else:
        problem = f"is {value!r}, not {layout!r}"
    raise ValueError(f"{key or 'the document'} {problem}")


def write_json(path: str | FilePath, doc, indent: int | None = 1) -> None:
    """Write ``doc`` as JSON and a newline; ``indent=None`` writes it on one line."""
    FilePath(path).write_text(json.dumps(doc, indent=indent) + "\n")


def write_jsonl(path: str | FilePath, records) -> None:
    """Write each of ``records`` as one line of JSON."""
    FilePath(path).write_text("".join(json.dumps(record) + "\n" for record in records))


def write_csv(path: str | FilePath, header, rows) -> None:
    """Write ``header``, then each of ``rows`` (a generator too); ``None`` is an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
