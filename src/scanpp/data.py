"""Core data model for reading scanpaths.

A fixation is an (onset, location, duration) triple; a scanpath is one
reader's ordered fixation sequence over one text. Fixations are mapped to
character bounding boxes of a text layout, filtered down to word-assigned
subsequences, and aggregated into the four standard word-level reading-time
measures. Per-fixation predictor vectors are assembled into design matrices
with reader one-hots, effect columns, interactions, and presence indicators,
and ``check_design`` is the one rule for when design rows may be omitted.

All times are seconds, all coordinates screen pixels. Every type here is
immutable after construction; the functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import UsageError, ValidationError

MEASURES = ("first_fixation", "gaze", "total", "scanpath")

POOLED_READER = "pooled"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle; containment is half-open: [x0, x0+w) x [y0, y0+h)."""

    x0: float
    y0: float
    width: float
    height: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"rectangle must have positive extent, got {self}")

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


@dataclass(frozen=True)
class Fixation:
    """One fixation: onset seconds since recording start, screen location, duration seconds."""

    onset: float
    x: float
    y: float
    duration: float

    def __post_init__(self):
        if not np.isfinite(self.onset) or self.onset < 0:
            raise ValidationError(f"fixation onset must be >= 0, got {self.onset}")
        if not np.isfinite(self.duration) or self.duration <= 0:
            raise ValidationError(f"fixation duration must be > 0, got {self.duration}")

    @property
    def end(self) -> float:
        return self.onset + self.duration

    @property
    def location(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Scanpath:
    """Ordered fixation sequence of one reader over one text.

    Invariants: onsets strictly increase and each fixation starts no earlier
    than the previous one ends (the gap between them is the saccade).
    """

    reader_id: str
    text_id: str
    fixations: tuple[Fixation, ...]

    def __post_init__(self):
        object.__setattr__(self, "fixations", tuple(self.fixations))
        prev = None
        for fix in self.fixations:
            if prev is not None:
                if fix.onset <= prev.onset:
                    raise ValidationError(
                        f"scanpath ({self.reader_id}, {self.text_id}): onsets not strictly "
                        f"increasing at t={fix.onset}"
                    )
                if fix.onset < prev.end - 1e-12:
                    raise ValidationError(
                        f"scanpath ({self.reader_id}, {self.text_id}): fixation at t={fix.onset} "
                        f"overlaps previous one ending at t={prev.end}"
                    )
            prev = fix

    def __len__(self) -> int:
        return len(self.fixations)

    def __iter__(self):
        return iter(self.fixations)

    @cached_property
    def onsets(self) -> np.ndarray:
        return np.array([f.onset for f in self.fixations], dtype=float)

    @cached_property
    def durations(self) -> np.ndarray:
        return np.array([f.duration for f in self.fixations], dtype=float)

    @cached_property
    def locations(self) -> np.ndarray:
        return np.array([[f.x, f.y] for f in self.fixations], dtype=float).reshape(len(self.fixations), 2)


@dataclass(frozen=True)
class Box:
    """One glyph bounding box. Whitespace boxes have no word index."""

    glyph: str
    rect: Rect
    word_index: Optional[int]
    char_index: int
    is_whitespace: bool

    def __post_init__(self):
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

    @property
    def word_count(self) -> int:
        words = {b.word_index for b in self.boxes if b.word_index is not None}
        return len(words)


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
        else:
            box = hits[0]
            kind = "whitespace" if box.is_whitespace else "word"
            out.append(AnnotatedFixation(fix, kind, box.word_index, box.char_index))
    return out


def annotate(scanpath: Scanpath, layout: TextLayout) -> AnnotatedScanpath:
    return AnnotatedScanpath(scanpath, tuple(assign_fixations(scanpath, layout)))


def filter_scanpath(annotated: AnnotatedScanpath) -> Scanpath:
    """Word-assigned subsequence with original onsets and durations.

    Whitespace and outside fixations are dropped; order is preserved, so the
    operation is idempotent.
    """
    kept = tuple(a.fixation for a in annotated.annotations if a.on_word)
    return Scanpath(annotated.reader_id, annotated.text_id, kept)


def _word_runs(annotated: AnnotatedScanpath) -> list[tuple[int, float]]:
    """Maximal runs of consecutive same-word fixations as (word, summed duration)."""
    runs: list[tuple[int, float]] = []
    prev_word = None
    for ann in annotated.annotations:
        if not ann.on_word:
            continue
        if ann.word_index == prev_word:
            runs[-1] = (prev_word, runs[-1][1] + ann.fixation.duration)
        else:
            runs.append((ann.word_index, ann.fixation.duration))
            prev_word = ann.word_index
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
            for word, value in runs:
                records.append(AggregatedRecord(ann.reader_id, ann.text_id, word, strategy, value))
            continue
        first_run: dict[int, float] = {}
        first_fix: dict[int, float] = {}
        totals: dict[int, float] = {}
        order: list[int] = []
        seen_first = set()
        for word, value in runs:
            totals[word] = totals.get(word, 0.0) + value
            if word not in seen_first:
                seen_first.add(word)
                first_run[word] = value
                order.append(word)
        for a in ann.annotations:
            if a.on_word and a.word_index not in first_fix:
                first_fix[a.word_index] = a.fixation.duration
        for word in order:
            if strategy == "first_fixation":
                value = first_fix[word]
            elif strategy == "gaze":
                value = first_run[word]
            else:
                value = totals[word]
            records.append(AggregatedRecord(ann.reader_id, ann.text_id, word, strategy, value))
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
    order: list[tuple[str, int]] = []
    for r in records:
        key = (r.text_id, r.word_index)
        if key not in per_reader:
            per_reader[key] = {}
            order.append(key)
        per_reader[key].setdefault(r.reader_id, []).append(r.value)
    pooled = []
    for key in order:
        text_id, word = key
        reader_means = [float(np.mean(v)) for v in per_reader[key].values()]
        pooled.append(AggregatedRecord(POOLED_READER, text_id, word, measure, float(np.mean(reader_means))))
    return pooled


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
    columns, or no events), and then reads as zeros; omitting rows that
    have columns is a ``UsageError``, and rows of any other shape are a
    ``ValidationError``.
    """
    shape = (p,) if n is None else (n, p)
    if X is None:
        if p and n != 0:
            raise UsageError(f"the spec has {p} predictor columns, so the design rows "
                             "are required")
        return np.zeros(shape)
    X = np.asarray(X, dtype=float)
    if X.shape != shape:
        raise ValidationError(f"design rows have shape {X.shape}, but the spec's {p} "
                              f"columns need {shape}")
    return X
