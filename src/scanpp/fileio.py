"""Readers and writers for the three delimiter-separated file formats.

Scanpath files carry fixation rows, layout files carry glyph bounding boxes,
effects files carry finite per-fixation predictor values. Lines starting with ``#``
are pragmas: ``# unit=ms|s`` declares the time unit of a scanpath file
(default seconds) and ``# screen=WxH`` declares the screen extent of a layout
file. Writers emit a canonical form (pragma, header, rows, shortest
round-trip float representation) so that write(load(x)) is byte-identical
for canonical files.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import Box, Rect, Scanpath, TextLayout, _check_ids, _fixation_fault
from .errors import ParseError, ValidationError

SCANPATH_HEADER = ("reader_id", "text_id", "onset", "duration", "x", "y")
LAYOUT_HEADER = ("text_id", "glyph", "x0", "y0", "w", "h", "word_index", "char_index", "is_whitespace")
EFFECTS_HEADER = ("reader_id", "text_id", "fixation_index", "effect_name", "value")

_UNIT_SCALE = {"s": 1.0, "ms": 1e-3}


def format_float(value: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(value))


def _parse_rows(text: str, expected_header: Sequence[str]):
    """Yield (line_number, fields) for data rows; collect pragmas separately."""
    pragmas: dict[str, str] = {}
    rows: list[tuple[int, list[str]]] = []
    header_seen = False
    # Without a quote character in the text, csv reads each line as its
    # comma-separated parts, so only text with quotes goes through csv.
    quoted = '"' in text
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if "=" in body:
                key, _, val = body.partition("=")
                pragmas[key.strip()] = val.strip()
            continue
        try:
            # fields keep their exact bytes so string columns round-trip;
            # float()/int() tolerate stray padding on numeric columns
            fields = next(csv.reader([line])) if quoted else line.split(",")
        except csv.Error as exc:
            raise ParseError(str(exc), line=lineno) from None
        if not header_seen:
            if fields != list(expected_header):
                raise ParseError(f"expected header {','.join(expected_header)!r}, "
                                 f"got {','.join(fields)!r}", line=lineno)
            header_seen = True
            continue
        if len(fields) != len(expected_header):
            raise ParseError(f"expected {len(expected_header)} fields, got {len(fields)}",
                             line=lineno)
        rows.append((lineno, fields))
    if not header_seen:
        raise ParseError(f"missing header {','.join(expected_header)!r}")
    return pragmas, rows


def _float_field(fields: list[str], idx: int, name: str, lineno: int) -> float:
    try:
        return float(fields[idx])
    except ValueError:
        raise ParseError(f"bad {name} value {fields[idx]!r}", line=lineno) from None


def _int_field(fields: list[str], idx: int, name: str, lineno: int) -> int:
    try:
        return int(fields[idx])
    except ValueError:
        raise ParseError(f"bad {name} value {fields[idx]!r}", line=lineno) from None


# --- Scanpath files --------------------------------------------------------

def _float_table(rows, first: int, names: Sequence[str]):
    """Each row's fields from ``first`` on as doubles, as ``float`` reads them, up to the
    first row with a bad token; and the ``ParseError`` naming that token, or None."""
    tokens = [token for _, fields in rows for token in fields[first:]]
    try:
        return np.array(list(map(float, tokens))).reshape(len(rows), len(names)), None
    except ValueError:
        pass
    for k, (lineno, fields) in enumerate(rows):
        for name, token in zip(names, fields[first:]):
            try:
                float(token)
            except ValueError:
                error = ParseError(f"bad {name} value {token!r}", line=lineno)
                return _float_table(rows[:k], first, names)[0], error


def loads_scanpaths(text: str) -> list[Scanpath]:
    """One scanpath per (reader, text), in order of first appearance, from its rows.

    Every row's tokens, onset and duration are checked, in file order, before
    any scanpath's order."""
    pragmas, rows = _parse_rows(text, SCANPATH_HEADER)
    unit = pragmas.get("unit", "s")
    if unit not in _UNIT_SCALE:
        raise ParseError(f"unknown time unit {unit!r}; expected one of {sorted(_UNIT_SCALE)}")
    values, error = _float_table(rows, 2, SCANPATH_HEADER[2:])
    onsets, durations = (values[:, :2] * _UNIT_SCALE[unit]).T
    fault = _fixation_fault(onsets, durations)
    if fault is not None:
        k, rule = fault
        ids = rows[k][1][:2]
        index = sum(fields[:2] == ids for _, fields in rows[:k])
        raise ValidationError(f"scanpath ({ids[0]}, {ids[1]}): fixation {index} {rule}")
    if error is not None:
        raise error
    groups: dict[tuple[str, str], list[int]] = {}
    for k, (_, fields) in enumerate(rows):
        groups.setdefault((fields[0], fields[1]), []).append(k)
    return [Scanpath.from_arrays(reader_id, text_id, onsets[idx], durations[idx],
                                 values[idx, 2:])
            for (reader_id, text_id), idx in groups.items()]


def load_scanpaths(path: str) -> list[Scanpath]:
    with open(path, encoding="utf-8") as fh:
        return loads_scanpaths(fh.read())


def dumps_scanpaths(scanpaths: Iterable[Scanpath]) -> str:
    buf = io.StringIO()
    buf.write("# unit=s\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCANPATH_HEADER)
    for sp in scanpaths:
        for onset, duration, (x, y) in zip(sp.onsets.tolist(), sp.durations.tolist(),
                                           sp.locations.tolist()):
            writer.writerow([sp.reader_id, sp.text_id, format_float(onset),
                             format_float(duration), format_float(x), format_float(y)])
    return buf.getvalue()


def write_scanpaths(path: str, scanpaths: Iterable[Scanpath]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scanpaths(scanpaths))


# --- Layout files -----------------------------------------------------------

def _parse_bool(fields: list[str], idx: int, name: str, lineno: int) -> bool:
    token = fields[idx].lower()
    if token in ("1", "true"):
        return True
    if token in ("0", "false"):
        return False
    raise ParseError(f"bad {name} value {fields[idx]!r}", line=lineno)


def loads_layouts(text: str) -> dict[str, TextLayout]:
    pragmas, rows = _parse_rows(text, LAYOUT_HEADER)
    if "screen" not in pragmas:
        raise ParseError("layout file must declare the screen extent with a '# screen=WxH' pragma")
    spec = pragmas["screen"]
    try:
        width, height = map(float, spec.split("x"))
        screen = Rect(0.0, 0.0, width, height)
    except (ValueError, ValidationError):
        raise ParseError(f"bad screen pragma {spec!r}; expected WxH") from None
    groups: dict[str, list[Box]] = {}
    for lineno, fields in rows:
        text_id, glyph = fields[0], fields[1]
        x0 = _float_field(fields, 2, "x0", lineno)
        y0 = _float_field(fields, 3, "y0", lineno)
        w = _float_field(fields, 4, "w", lineno)
        h = _float_field(fields, 5, "h", lineno)
        is_ws = _parse_bool(fields, 8, "is_whitespace", lineno)
        word_index = None if fields[6] == "" else _int_field(fields, 6, "word_index", lineno)
        char_index = _int_field(fields, 7, "char_index", lineno)
        try:
            box = Box(glyph, Rect(x0, y0, w, h), word_index, char_index, is_ws)
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno) from None
        groups.setdefault(text_id, []).append(box)
    return {tid: TextLayout(tid, screen, tuple(boxes)) for tid, boxes in groups.items()}


def load_layouts(path: str) -> dict[str, TextLayout]:
    with open(path, encoding="utf-8") as fh:
        return loads_layouts(fh.read())


def dumps_layouts(layouts: Iterable[TextLayout]) -> str:
    layouts = list(layouts)
    if not layouts:
        raise ValidationError("no layouts to write")
    screens = {(l.screen.x0, l.screen.y0, l.screen.width, l.screen.height) for l in layouts}
    if len(screens) != 1:
        raise ValidationError("layouts in one file must share a screen extent")
    screen = layouts[0].screen
    if (screen.x0, screen.y0) != (0.0, 0.0):
        raise ValidationError("layout files assume a screen origin of (0, 0)")
    buf = io.StringIO()
    buf.write(f"# screen={format_float(screen.width)}x{format_float(screen.height)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LAYOUT_HEADER)
    for layout in layouts:
        for box in layout.boxes:
            writer.writerow([
                layout.text_id, box.glyph,
                format_float(box.rect.x0), format_float(box.rect.y0),
                format_float(box.rect.width), format_float(box.rect.height),
                "" if box.word_index is None else str(box.word_index),
                str(box.char_index), "1" if box.is_whitespace else "0",
            ])
    return buf.getvalue()


def write_layouts(path: str, layouts: Iterable[TextLayout]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_layouts(layouts))


# --- Effects files ----------------------------------------------------------

@dataclass(frozen=True)
class EffectsTable:
    """Per-fixation effect values keyed by (reader, text, fixation index).

    ``names`` preserves first-appearance order in the source file; that order
    fixes the effect-column order of every design matrix built from the table.
    Indices count fixations within the (reader, text) scanpath of the
    accompanying scanpath file, starting at zero.
    """

    names: tuple[str, ...]
    values: Mapping[tuple[str, str], Mapping[str, Mapping[int, float]]]

    def __post_init__(self):
        for name in self.names:
            _check_ids(f"effect {name!r}", "the effect name", name)
        for key in self.values:
            _check_ids(f"effects of {key!r}", "reader and text ids", *key)

    def for_scanpath(self, reader_id: str, text_id: str) -> dict[str, dict[int, float]]:
        """Every declared effect, with an empty mapping where the path has no values."""
        per_path = self.values.get((reader_id, text_id), {})
        return {name: dict(per_path.get(name, {})) for name in self.names}


def loads_effects(text: str) -> EffectsTable:
    _, rows = _parse_rows(text, EFFECTS_HEADER)
    names: list[str] = []
    values: dict[tuple[str, str], dict[str, dict[int, float]]] = {}
    for lineno, fields in rows:
        reader_id, text_id, name = fields[0], fields[1], fields[3]
        index = _int_field(fields, 2, "fixation_index", lineno)
        if index < 0:
            raise ParseError(f"fixation_index must be >= 0, got {index}", line=lineno)
        value = _float_field(fields, 4, "value", lineno)
        if not math.isfinite(value):
            raise ParseError(f"value of effect {name!r} must be finite, got {value!r}",
                             line=lineno)
        if name not in names:
            names.append(name)
        per_path = values.setdefault((reader_id, text_id), {})
        per_effect = per_path.setdefault(name, {})
        if index in per_effect:
            raise ParseError(
                f"duplicate value for effect {name!r} at fixation {index} of "
                f"({reader_id}, {text_id})", line=lineno)
        per_effect[index] = value
    return EffectsTable(tuple(names), values)


def load_effects(path: str) -> EffectsTable:
    with open(path, encoding="utf-8") as fh:
        return loads_effects(fh.read())


def dumps_effects(table: EffectsTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EFFECTS_HEADER)
    for (reader_id, text_id) in sorted(table.values):
        per_path = table.values[(reader_id, text_id)]
        for name in table.names:
            if name not in per_path:
                continue
            for index in sorted(per_path[name]):
                writer.writerow([reader_id, text_id, str(index), name,
                                 format_float(per_path[name][index])])
    return buf.getvalue()


def write_effects(path: str, table: EffectsTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_effects(table))
