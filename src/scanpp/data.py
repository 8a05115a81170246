"""Core data model for reading scanpaths.

A fixation is an (onset, location, duration) triple; a scanpath is one
reader's ordered fixation sequence over one text. Fixations are mapped to
character bounding boxes of a text layout, filtered down to word-assigned
subsequences, and aggregated into the four standard word-level reading-time
measures. Per-fixation predictor vectors are assembled into design matrices
with reader one-hots, effect columns, interactions, and presence indicators.

All times are seconds, all coordinates screen pixels. Every type here is
immutable after construction; the functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class DesignMatrix:
    """Per-fixation predictor rows with a fixed, documented column order.

    Columns appear as: intercept, reader one-hots (readers sorted), effect
    values (declared order), effect x reader interactions, then one presence
    indicator per effect. Effect values are zeroed wherever the presence
    indicator is zero.
    """

    columns: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[1] != len(self.columns):
            raise ValidationError(
                f"design matrix shape {m.shape} does not match {len(self.columns)} columns"
            )
        object.__setattr__(self, "matrix", m)
        if len(set(self.columns)) != len(self.columns):
            raise ValidationError("duplicate design columns")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.matrix[:, self.columns.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def presence_mask(self, effect: str) -> np.ndarray:
        return self.column(presence_column(effect)) > 0


def design_columns(readers: Sequence[str], effects: Sequence[str],
                   reader_encoding: bool = True, interactions: bool = True) -> tuple[str, ...]:
    """Column schema shared by every scanpath of a dataset."""
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
    effects it carries.
    """
    effects = dict(effects or {})
    n = len(scanpath)
    mat = np.zeros((n, len(columns)), dtype=float)

    def effect_vector(name: str) -> np.ndarray:
        vec = np.zeros(n)
        for idx, val in effects.get(name, {}).items():
            if not 0 <= idx < n:
                raise ValidationError(
                    f"effect {name!r}: fixation index {idx} outside scanpath of length {n}")
            vec[idx] = float(val)
        return vec

    for j, col in enumerate(columns):
        if col == INTERCEPT:
            mat[:, j] = 1.0
        elif col.startswith("reader:"):
            if scanpath.reader_id == col[len("reader:"):]:
                mat[:, j] = 1.0
        elif col.startswith("has:"):
            name = col[len("has:"):]
            for idx in effects.get(name, {}):
                if 0 <= idx < n:
                    mat[idx, j] = 1.0
        elif "*reader:" in col:
            name, _, reader = col.partition("*reader:")
            if scanpath.reader_id == reader:
                mat[:, j] = effect_vector(name)
        else:
            mat[:, j] = effect_vector(col)
    return mat


def build_design(annotated: AnnotatedScanpath,
                 effects: Mapping[str, Mapping[int, float]] | None = None,
                 readers: Sequence[str] = (),
                 reader_encoding: bool = True,
                 interactions: bool = True) -> DesignMatrix:
    """Assemble the predictor matrix for one annotated scanpath.

    ``effects`` maps effect name -> {fixation index -> value}. Fixations with
    no supplied value get a zero in the effect column and a zero presence
    indicator; an index outside the scanpath is an error.
    """
    effects = dict(effects or {})
    n = len(annotated.scanpath)
    for name, values in effects.items():
        for idx in values:
            if not 0 <= idx < n:
                raise ValidationError(
                    f"effect {name!r}: fixation index {idx} outside scanpath of length {n}"
                )
    reader_ids = sorted(set(readers) | ({annotated.reader_id} if reader_encoding else set()))
    if reader_encoding and annotated.reader_id not in reader_ids:
        raise ValidationError(f"reader {annotated.reader_id!r} missing from roster")
    effect_names = list(effects.keys())
    cols = design_columns(reader_ids, effect_names, reader_encoding, interactions)
    mat = np.zeros((n, len(cols)), dtype=float)
    mat[:, 0] = 1.0
    col_index = {c: i for i, c in enumerate(cols)}
    if reader_encoding:
        mat[:, col_index[reader_column(annotated.reader_id)]] = 1.0
    for name in effect_names:
        values = effects[name]
        e_col = col_index[name]
        p_col = col_index[presence_column(name)]
        for idx, val in values.items():
            mat[idx, e_col] = float(val)
            mat[idx, p_col] = 1.0
        if reader_encoding and interactions:
            i_col = col_index[interaction_column(name, annotated.reader_id)]
            mat[:, i_col] = mat[:, e_col]
    return DesignMatrix(cols, mat)
