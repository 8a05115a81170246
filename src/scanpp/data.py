"""Core data model for reading scanpaths.

A fixation is an (onset, location, duration) triple; a scanpath is one
reader's ordered fixation sequence over one text, held as read-only columns
from file to likelihood, which iteration turns into records. Fixations are
mapped to character bounding boxes of a text layout, filtered down to
word-assigned subsequences, and aggregated into the four standard
word-level reading-time measures. Per-fixation predictor vectors are
assembled into design matrices with reader one-hots, effect columns,
interactions, and presence indicators, and ``check_design`` is the one
rule for when design rows may be omitted.

All times are seconds, all coordinates screen pixels. Every type here is
immutable after construction; the functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import UsageError, ValidationError, check_number, is_real

MEASURES = ("first_fixation", "gaze", "total", "scanpath")

POOLED_READER = "pooled"

# Most a fixation's onset may fall before the previous fixation's end, in
# seconds, and still count as touching it rather than overlapping it. A
# built scanpath and a grown ``saccade.HistoryState`` read this one rule.
_OVERLAP_TOL = 1e-12


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle; containment is half-open: [x0, x0+w) x [y0, y0+h)."""

    x0: float
    y0: float
    width: float
    height: float

    def __post_init__(self):
        for name in ("x0", "y0"):
            value = getattr(self, name)
            if not is_real(value):
                raise ValidationError(f"rectangle {name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValidationError(f"rectangle {name} must be finite, got {value}")
        check_number("rectangle width", self.width, 0.0)
        check_number("rectangle height", self.height, 0.0)

    @property
    def x1(self) -> float:
        return self.x0 + self.width

    @property
    def y1(self) -> float:
        return self.y0 + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1


def _fixation_fault(onsets: np.ndarray, durations: np.ndarray,
                    locations: Optional[np.ndarray] = None) -> Optional[tuple[int, str]]:
    """(index, rule) of the first fixation whose onset is not finite and >= 0, duration
    not finite and > 0, or (n, 2) location, where given, not finite; or None."""
    bad_onset = ~(np.isfinite(onsets) & (onsets >= 0))
    bad_duration = ~(np.isfinite(durations) & (durations > 0))
    bad = bad_onset | bad_duration
    if locations is not None:
        bad |= ~np.isfinite(locations).all(axis=1)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    if bad_onset[k]:
        return k, f"onset must be >= 0, got {float(onsets[k])}"
    if bad_duration[k]:
        return k, f"duration must be > 0, got {float(durations[k])}"
    return k, "location must be finite, got ({}, {})".format(*locations[k].tolist())


@dataclass(frozen=True)
class Fixation:
    """One fixation: onset seconds since recording start, screen location, duration seconds."""

    onset: float
    x: float
    y: float
    duration: float

    def __post_init__(self):
        row = np.array([[self.onset, self.duration, self.x, self.y]], dtype=float)
        fault = _fixation_fault(row[:, 0], row[:, 1], row[:, 2:])
        if fault is not None:
            raise ValidationError(f"fixation {fault[1]}")

    @property
    def end(self) -> float:
        return self.onset + self.duration


def _check_ids(owner: str, what: str, *ids: str) -> None:
    """Reject ids, names or glyphs holding a line break, which would split their rows in a file."""
    if any(i.splitlines() not in ([], [i]) for i in ids):
        raise ValidationError(f"{owner}: {what} must hold no line break")


@dataclass(frozen=True, eq=False, init=False)
class Scanpath:
    """Ordered fixation sequence of one reader over one text, as read-only columns.

    ``onsets``, ``durations`` (n,) and ``locations`` (n, 2) come from records
    or, through ``from_arrays``, from arrays, under one check: neither id
    holds a line break, each fixation is finite with onset >= 0 and
    duration > 0, onsets strictly increase, and none starts before the
    previous one ends (the gap is the saccade).
    Iterating, or reading ``fixations``, builds ``Fixation`` records.
    """

    reader_id: str
    text_id: str
    onsets: np.ndarray
    durations: np.ndarray
    locations: np.ndarray

    def __init__(self, reader_id: str, text_id: str, fixations: Iterable[Fixation]):
        rows = np.array([(f.onset, f.duration, f.x, f.y) for f in fixations]).reshape(-1, 4)
        self._fill(reader_id, text_id, rows[:, 0], rows[:, 1], rows[:, 2:])

    @classmethod
    def from_arrays(cls, reader_id: str, text_id: str, onsets, durations,
                    locations) -> "Scanpath":
        """A scanpath of (n,) onsets and durations and (n, 2) locations, copied."""
        path = cls.__new__(cls)
        path._fill(reader_id, text_id, onsets, durations, locations)
        return path

    def _fill(self, reader_id: str, text_id: str, onsets, durations, locations) -> None:
        _check_ids(f"scanpath ({reader_id!r}, {text_id!r})", "reader and text ids",
                   reader_id, text_id)
        name = f"scanpath ({reader_id}, {text_id})"
        t, d, s = (np.array(a, dtype=float) for a in (onsets, durations, locations))
        if not (t.ndim == 1 and d.shape == t.shape and s.shape == t.shape + (2,)):
            raise ValidationError(f"{name}: need (n,) onsets and durations and (n, 2) "
                                  f"locations, got {t.shape}, {d.shape} and {s.shape}")
        fault = _fixation_fault(t, d, s)
        if fault is not None:
            raise ValidationError(f"{name}: fixation {fault[0]} {fault[1]}")
        ends = t[:-1] + d[:-1]
        late = (t[1:] <= t[:-1]) | (t[1:] < ends - _OVERLAP_TOL)
        if late.any():
            k = int(np.argmax(late)) + 1
            if t[k] <= t[k - 1]:
                raise ValidationError(f"{name}: onsets not strictly increasing at t={float(t[k])}")
            raise ValidationError(f"{name}: fixation at t={float(t[k])} overlaps previous one "
                                  f"ending at t={float(ends[k - 1])}")
        for a in (t, d, s):
            a.setflags(write=False)
        self.__dict__.update(reader_id=reader_id, text_id=text_id, onsets=t, durations=d,
                             locations=s)

    def __len__(self) -> int:
        return self.onsets.shape[0]

    def __iter__(self):
        return map(Fixation, self.onsets.tolist(), *self.locations.T.tolist(),
                   self.durations.tolist())

    @property
    def fixations(self) -> tuple[Fixation, ...]:
        return tuple(self)

    def __eq__(self, other) -> bool:
        columns = ("onsets", "durations", "locations")
        return (isinstance(other, Scanpath) and self.reader_id == other.reader_id
                and self.text_id == other.text_id
                and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in columns))


@dataclass(frozen=True)
class Box:
    """One glyph bounding box. Whitespace boxes have no word index."""

    glyph: str
    rect: Rect
    word_index: Optional[int]
    char_index: int
    is_whitespace: bool

    def __post_init__(self):
        _check_ids(f"box {self.glyph!r} (char {self.char_index})", "the glyph", self.glyph)
        if self.is_whitespace != (self.word_index is None):
            raise ValidationError(
                f"box {self.glyph!r} (char {self.char_index}): whitespace boxes must have no "
                "word index and word boxes must have one"
            )


@dataclass(frozen=True)
class TextLayout:
    """Character bounding boxes of one displayed text on a bounded screen region."""

    text_id: str
    screen: Rect
    boxes: tuple[Box, ...]

    def __post_init__(self):
        _check_ids(f"layout {self.text_id!r}", "the text id", self.text_id)
        object.__setattr__(self, "boxes", tuple(self.boxes))
        for box in self.boxes:
            r = box.rect
            if not (r.x0 >= self.screen.x0 and r.x1 <= self.screen.x1
                    and r.y0 >= self.screen.y0 and r.y1 <= self.screen.y1):
                raise ValidationError(
                    f"layout {self.text_id}: box for char {box.char_index} exceeds the screen"
                )
        words = sorted({b.word_index for b in self.boxes if b.word_index is not None})
        if words and words != list(range(words[0], words[0] + len(words))):
            raise ValidationError(f"layout {self.text_id}: word indices are not contiguous")


@dataclass(frozen=True)
class AnnotatedFixation:
    """A fixation plus its box assignment: a word character, a whitespace character, or outside."""

    fixation: Fixation
    kind: str  # "word" | "whitespace" | "outside"
    word_index: Optional[int] = None
    char_index: Optional[int] = None

    @property
    def on_word(self) -> bool:
        return self.kind == "word"


@dataclass(frozen=True)
class AnnotatedScanpath:
    scanpath: Scanpath
    annotations: tuple[AnnotatedFixation, ...]

    def __post_init__(self):
        object.__setattr__(self, "annotations", tuple(self.annotations))
        if len(self.annotations) != len(self.scanpath):
            raise ValidationError("annotation count does not match fixation count")

    @property
    def reader_id(self) -> str:
        return self.scanpath.reader_id

    @property
    def text_id(self) -> str:
        return self.scanpath.text_id


@dataclass(frozen=True)
class AggregatedRecord:
    """One word-level reading-time value for one (reader, text, word)."""

    reader_id: str
    text_id: str
    word_index: int
    measure: str
    value: float

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise UsageError(f"unknown measure {self.measure!r}; expected one of {MEASURES}")
        if self.value <= 0:
            raise ValidationError(f"aggregated value must be > 0, got {self.value}")


def assign_fixations(scanpath: Scanpath, layout: TextLayout) -> list[AnnotatedFixation]:
    """Map each fixation to the unique containing box, or flag it as outside.

    Containment is half-open per axis so a fixation sitting exactly on a
    shared box edge belongs to exactly one box.
    """
    out = []
    for fix in scanpath:
        if not layout.screen.contains(fix.x, fix.y):
            raise ValidationError(
                f"scanpath ({scanpath.reader_id}, {scanpath.text_id}): fixation at "
                f"({fix.x}, {fix.y}) lies outside the screen region"
            )
        hits = [b for b in layout.boxes if b.rect.contains(fix.x, fix.y)]
        if len(hits) > 1:
            raise ValidationError(
                f"layout {layout.text_id}: fixation at ({fix.x}, {fix.y}) is contained in "
                f"{len(hits)} overlapping boxes"
            )
        if not hits:
            out.append(AnnotatedFixation(fix, "outside"))
            continue
        kind = "whitespace" if hits[0].is_whitespace else "word"
        out.append(AnnotatedFixation(fix, kind, hits[0].word_index, hits[0].char_index))
    return out


def annotate(scanpath: Scanpath, layout: TextLayout) -> AnnotatedScanpath:
    return AnnotatedScanpath(scanpath, tuple(assign_fixations(scanpath, layout)))


def filter_scanpath(annotated: AnnotatedScanpath) -> Scanpath:
    """Word-assigned subsequence with original onsets and durations.

    Whitespace and outside fixations are dropped; order is preserved, so the
    operation is idempotent.
    """
    path = annotated.scanpath
    keep = np.array([a.on_word for a in annotated.annotations], dtype=bool)
    return Scanpath.from_arrays(path.reader_id, path.text_id, path.onsets[keep],
                                path.durations[keep], path.locations[keep])


def _word_runs(annotated: AnnotatedScanpath) -> list[tuple[int, float, float]]:
    """Maximal runs of consecutive same-word fixations as (word, summed duration,
    duration of the run's first fixation)."""
    runs: list[tuple[int, float, float]] = []
    for ann in annotated.annotations:
        if not ann.on_word:
            continue
        duration = ann.fixation.duration
        if runs and runs[-1][0] == ann.word_index:
            runs[-1] = (ann.word_index, runs[-1][1] + duration, runs[-1][2])
        else:
            runs.append((ann.word_index, duration, duration))
    return runs


def aggregate(annotated: Iterable[AnnotatedScanpath], strategy: str) -> list[AggregatedRecord]:
    """Aggregate word-assigned fixations into word-level duration measures.

    first_fixation: duration of the first fixation landing on the word.
    gaze: summed durations from first landing until first leaving the word.
    total: summed durations of all fixations on the word.
    scanpath: one record per maximal run of consecutive same-word fixations,
    in temporal order (a word may produce several records).
    """
    if strategy not in MEASURES:
        raise UsageError(f"unknown aggregation strategy {strategy!r}; expected one of {MEASURES}")
    records: list[AggregatedRecord] = []
    for ann in annotated:
        runs = _word_runs(ann)
        if strategy == "scanpath":
            values = [(word, value) for word, value, _ in runs]
        else:
            # each word once, in order of first landing, from its first run
            first: dict[int, dict[str, float]] = {}
            for word, value, head in runs:
                measures = first.setdefault(word, {"first_fixation": head, "gaze": value,
                                                   "total": 0.0})
                measures["total"] += value
            values = [(word, measures[strategy]) for word, measures in first.items()]
        records.extend(AggregatedRecord(ann.reader_id, ann.text_id, word, strategy, value)
                       for word, value in values)
    return records


def pool_across_readers(records: Sequence[AggregatedRecord]) -> list[AggregatedRecord]:
    """Average records across readers per (text, word).

    Readers contributing several records for the same word (scanpath measure)
    enter with their per-reader mean, so every reader carries equal weight.
    """
    if not records:
        return []
    kinds = {r.measure for r in records}
    if len(kinds) > 1:
        raise UsageError(f"cannot pool mixed measures {sorted(kinds)}")
    measure = records[0].measure
    per_reader: dict[tuple[str, int], dict[str, list[float]]] = {}
    for r in records:
        per_reader.setdefault((r.text_id, r.word_index), {}).setdefault(
            r.reader_id, []).append(r.value)
    return [AggregatedRecord(POOLED_READER, text_id, word, measure,
                             float(np.mean([float(np.mean(v)) for v in readers.values()])))
            for (text_id, word), readers in per_reader.items()]


# --- Design matrices -------------------------------------------------------

INTERCEPT = "intercept"


def reader_column(reader_id: str) -> str:
    return f"reader:{reader_id}"


def interaction_column(effect: str, reader_id: str) -> str:
    return f"{effect}*reader:{reader_id}"


def presence_column(effect: str) -> str:
    return f"has:{effect}"


def design_columns(readers: Sequence[str], effects: Sequence[str],
                   reader_encoding: bool = True, interactions: bool = True) -> tuple[str, ...]:
    """Column schema shared by every scanpath of a dataset.

    Columns appear as: intercept, reader one-hots (readers sorted), effect
    values (declared order), effect x reader interactions, then one presence
    indicator per effect.
    """
    cols = [INTERCEPT]
    readers = sorted(readers)
    if reader_encoding:
        cols.extend(reader_column(r) for r in readers)
    cols.extend(effects)
    if reader_encoding and interactions:
        for e in effects:
            cols.extend(interaction_column(e, r) for r in readers)
    cols.extend(presence_column(e) for e in effects)
    return tuple(cols)


def design_for_columns(scanpath: "Scanpath", columns: Sequence[str],
                       effects: Mapping[str, Mapping[int, float]] | None = None) -> np.ndarray:
    """Predictor rows for an explicit column schema.

    Resolves each name by convention: intercept, ``reader:{id}`` one-hots,
    ``has:{name}`` presence indicators, ``{name}*reader:{id}`` interactions,
    and bare effect names with zeros where no value is supplied. Lets every
    scanpath of a dataset share one schema regardless of which reader or
    effects it carries. ``effects`` maps effect name -> {fixation index ->
    value}; an index outside the scanpath, of any effect a column names, is
    a ``ValidationError``.
    """
    effects = effects or {}
    n = len(scanpath)
    values: dict[str, np.ndarray] = {}
    present: dict[str, np.ndarray] = {}
    for col in columns:
        if col == INTERCEPT or col.startswith("reader:"):
            continue
        name = col[len("has:"):] if col.startswith("has:") else col.partition("*reader:")[0]
        if name in values:
            continue
        values[name], present[name] = np.zeros(n), np.zeros(n)
        for idx, val in effects.get(name, {}).items():
            if not 0 <= idx < n:
                raise ValidationError(
                    f"effect {name!r}: fixation index {idx} outside scanpath of length {n}")
            values[name][idx] = float(val)
            present[name][idx] = 1.0

    mat = np.zeros((n, len(columns)), dtype=float)
    for j, col in enumerate(columns):
        if col == INTERCEPT:
            mat[:, j] = 1.0
        elif col.startswith("reader:"):
            if scanpath.reader_id == col[len("reader:"):]:
                mat[:, j] = 1.0
        elif col.startswith("has:"):
            mat[:, j] = present[col[len("has:"):]]
        else:
            name, _, reader = col.partition("*reader:")
            if not reader or scanpath.reader_id == reader:
                mat[:, j] = values[name]
    return mat


def check_design(X: Optional[np.ndarray], p: int, n: Optional[int] = None) -> np.ndarray:
    """Design rows checked against a schema of p columns.

    ``X`` holds the (n, p) rows of n events, or with ``n`` None one (p,)
    row. It may be omitted only where there is nothing to leave out (no
    columns, or no events), and then reads as zeros; so do the empty rows
    of no events, of any width, such as an empty batch holds. Omitting rows
    that have columns is a ``UsageError``, and rows of any other shape are
    a ``ValidationError``.
    """
    shape = (p,) if n is None else (n, p)
    if X is None or (n == 0 and np.shape(X)[:1] == (0,)):
        if p and n != 0:
            raise UsageError(f"the spec has {p} predictor columns, so the design rows "
                             "are required")
        return np.zeros(shape)
    X = np.asarray(X, dtype=float)
    if X.shape != shape:
        raise ValidationError(f"design rows have shape {X.shape}, but the spec's {p} "
                              f"columns need {shape}")
    return X
