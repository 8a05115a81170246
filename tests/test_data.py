import numpy as np
import pytest

import scanpp as sp
from scanpp.data import Box, POOLED_READER
from scanpp.fileio import dumps_scanpaths, loads_scanpaths

from conftest import LINE_BREAKS, make_fixations, on_word, random_scanpath


def path_on_words(layout, word_seq, durations, reader="r1"):
    t = 0.0
    fixes = []
    for w, d in zip(word_seq, durations):
        t += 0.05
        x, y = on_word(layout, w)
        fixes.append(sp.Fixation(t, x, y, d))
        t += d
    return sp.Scanpath(reader, layout.text_id, tuple(fixes))


class TestRect:
    def test_half_open_containment(self):
        r = sp.Rect(0.0, 0.0, 10.0, 5.0)
        assert r.contains(0.0, 0.0)
        assert r.contains(9.999, 4.999)
        assert not r.contains(10.0, 2.0)
        assert not r.contains(2.0, 5.0)
        assert not r.contains(-0.001, 2.0)

    def test_area(self):
        assert sp.Rect(1.0, 2.0, 3.0, 4.0).area == 12.0

    def test_rejects_empty(self):
        with pytest.raises(sp.ValidationError):
            sp.Rect(0.0, 0.0, 0.0, 5.0)


class TestScanpath:
    def test_orders_enforced(self):
        good = make_fixations([(0.0, 0.1), (0.2, 0.1)], [(1, 1), (2, 2)])
        sp.Scanpath("r", "t", good)
        overlapping = make_fixations([(0.0, 0.3), (0.2, 0.1)], [(1, 1), (2, 2)])
        with pytest.raises(sp.ValidationError):
            sp.Scanpath("r", "t", overlapping)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(sp.ValidationError):
            sp.Fixation(0.0, 1.0, 1.0, 0.0)

    def test_back_to_back_allowed(self):
        fixes = make_fixations([(0.0, 0.2), (0.2, 0.1)], [(1, 1), (2, 2)])
        path = sp.Scanpath("r", "t", fixes)
        assert len(path) == 2

    def test_saccade_clock(self, simple_scanpath):
        clock = sp.PathData.from_scanpath(simple_scanpath).clock
        onsets = simple_scanpath.onsets
        durs = simple_scanpath.durations
        expected = [onsets[0], onsets[1] - durs[0], onsets[2] - durs[0] - durs[1],
                    onsets[3] - durs[0] - durs[1] - durs[2]]
        assert np.allclose(clock, expected)
        assert np.all(np.diff(clock) > 0)


class TestScanpathColumns:
    def test_arrays_build_the_same_scanpath_as_records(self, simple_scanpath):
        p = simple_scanpath
        built = sp.Scanpath.from_arrays(p.reader_id, p.text_id, p.onsets.tolist(),
                                        p.durations, p.locations)
        assert built == p and built.fixations == p.fixations
        assert list(built) == list(p.fixations) and len(built) == 4
        assert built.fixations[1] == sp.Fixation(0.5, 300.0, 210.0, 0.15)
        assert built != sp.Scanpath.from_arrays("r2", p.text_id, p.onsets, p.durations,
                                                p.locations)
        assert built != sp.Scanpath.from_arrays(p.reader_id, p.text_id, p.onsets,
                                                p.durations, p.locations + 1.0)

    def test_columns_are_read_only(self, simple_scanpath):
        p = simple_scanpath
        for column in (p.onsets, p.durations, p.locations):
            with pytest.raises(ValueError):
                column[0] = 0.0
        with pytest.raises(ValueError):
            p.onsets[1] = 0.0
        assert p.fixations[1].onset == 0.5
        assert sp.PathData.from_scanpath(p).gaps.min() > 0

    def test_from_arrays_copies(self):
        onsets = np.array([0.1, 0.5])
        path = sp.Scanpath.from_arrays("r", "t", onsets, [0.2, 0.1], np.zeros((2, 2)))
        onsets[1] = 0.0
        assert path.onsets.tolist() == [0.1, 0.5]

    def test_one_check_names_the_fixation(self):
        locs = np.zeros((3, 2))
        with pytest.raises(sp.ValidationError, match=r"\(r, t\): fixation 2 duration "
                                                     r"must be > 0, got 0.0"):
            sp.Scanpath.from_arrays("r", "t", [0.1, 0.5, 0.9], [0.2, 0.1, 0.0], locs)
        with pytest.raises(sp.ValidationError, match=r"fixation 1 onset must be >= 0"):
            sp.Scanpath.from_arrays("r", "t", [0.1, np.nan, 0.9], [0.2, 0.1, 0.1], locs)
        with pytest.raises(sp.ValidationError, match=r"not strictly increasing at t=0.5"):
            sp.Scanpath.from_arrays("r", "t", [0.1, 0.5, 0.5], [0.2, 0.1, 0.1], locs)
        with pytest.raises(sp.ValidationError, match=r"fixation at t=0.2 overlaps previous"):
            sp.Scanpath.from_arrays("r", "t", [0.1, 0.2], [0.2, 0.1], locs[:2])
        with pytest.raises(sp.ValidationError, match=r"need \(n,\) onsets"):
            sp.Scanpath.from_arrays("r", "t", [0.1, 0.5], [0.2, 0.1], locs)
        # the loader counts the fixation within its scanpath, not the file
        text = ("reader_id,text_id,onset,duration,x,y\n"
                "r1,t1,0.1,0.2,10,20\nr2,t1,0.1,0.2,10,20\nr1,t1,0.5,0,10,20\n")
        with pytest.raises(sp.ValidationError, match=r"^scanpath \(r1, t1\): fixation 1 "
                                                     r"duration must be > 0, got 0.0$"):
            loads_scanpaths(text)

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_ids_with_a_line_break_rejected(self, brk):
        locs = np.zeros((1, 2))
        for reader_id, text_id in ((f"r{brk}1", "t"), ("r", f"t{brk}"), (brk, "t")):
            with pytest.raises(sp.ValidationError, match=r"^scanpath \(.*\): reader and text "
                                                         "ids must hold no line break$"):
                sp.Scanpath.from_arrays(reader_id, text_id, [0.1], [0.2], locs)
        with pytest.raises(sp.ValidationError, match="line break"):
            sp.Scanpath(f"r{brk}", "t", make_fixations([(0.1, 0.2)], [(1, 1)]))

    @pytest.mark.parametrize("reader_id,text_id", [("r,1", 't "a", b'), ('"r"', "t\t1"),
                                                   (" r ", "текст"), ("", "")])
    def test_ids_without_a_line_break_round_trip(self, reader_id, text_id):
        path = sp.Scanpath.from_arrays(reader_id, text_id, [0.1], [0.2], np.zeros((1, 2)))
        assert loads_scanpaths(dumps_scanpaths([path])) == [path]

    @pytest.mark.parametrize("x,y", [(np.nan, 20.0), (10.0, np.inf), (-np.inf, 20.0)])
    def test_nonfinite_location_rejected(self, x, y):
        with pytest.raises(sp.ValidationError, match="fixation location must be finite"):
            sp.Fixation(0.1, x, y, 0.2)
        locs = np.array([[10.0, 20.0], [x, y]])
        with pytest.raises(sp.ValidationError,
                           match=r"scanpath \(r, t\): fixation 1 location must be finite"):
            sp.Scanpath.from_arrays("r", "t", [0.1, 0.5], [0.2, 0.1], locs)
        text = ("reader_id,text_id,onset,duration,x,y\n"
                "r1,t1,0.1,0.2,10,20\nr2,t1,0.1,0.2,10,20\n"
                f"r1,t1,0.5,0.2,{x},{y}\n")
        with pytest.raises(sp.ValidationError,
                           match=r"scanpath \(r1, t1\): fixation 1 location must be finite"):
            loads_scanpaths(text)


class TestAssignment:
    def test_word_whitespace_outside(self, word_layout):
        wx, wy = on_word(word_layout, 0)
        fixes = make_fixations(
            [(0.0, 0.1), (0.2, 0.1), (0.4, 0.1)],
            [(wx, wy), (151.0, 110.0), (600.0, 600.0)])
        ann = sp.assign_fixations(sp.Scanpath("r", "t1", fixes), word_layout)
        assert [a.kind for a in ann] == ["word", "whitespace", "outside"]
        assert ann[0].word_index == 0
        assert ann[1].word_index is None

    def test_outside_screen_rejected(self, word_layout):
        fixes = make_fixations([(0.0, 0.1)], [(2000.0, 100.0)])
        with pytest.raises(sp.ValidationError):
            sp.assign_fixations(sp.Scanpath("r", "t1", fixes), word_layout)

    def test_shared_edge_belongs_to_one_box(self, word_layout):
        # x=150 is the right edge of word 0 and the left edge of the gap box
        fixes = make_fixations([(0.0, 0.1)], [(150.0, 110.0)])
        ann = sp.assign_fixations(sp.Scanpath("r", "t1", fixes), word_layout)
        assert ann[0].kind == "whitespace"

    def test_overlapping_boxes_rejected(self):
        boxes = (Box(glyph="a", rect=sp.Rect(0.0, 0.0, 10.0, 10.0), word_index=0,
                     char_index=0, is_whitespace=False),
                 Box(glyph="b", rect=sp.Rect(5.0, 0.0, 10.0, 10.0), word_index=1,
                     char_index=1, is_whitespace=False))
        layout = sp.TextLayout(text_id="t", screen=sp.Rect(0, 0, 100, 100), boxes=boxes)
        fixes = make_fixations([(0.0, 0.1)], [(7.0, 5.0)])
        with pytest.raises(sp.ValidationError):
            sp.assign_fixations(sp.Scanpath("r", "t", fixes), layout)


class TestFilter:
    def test_drops_nonword_and_is_idempotent(self, word_layout):
        wx, wy = on_word(word_layout, 1)
        fixes = make_fixations(
            [(0.0, 0.1), (0.2, 0.1), (0.4, 0.1)],
            [(wx, wy), (151.0, 110.0), (wx + 2, wy)])
        ann = sp.annotate(sp.Scanpath("r", "t1", fixes), word_layout)
        kept = sp.filter_scanpath(ann)
        assert len(kept) == 2
        assert kept.fixations[0].onset == 0.0
        again = sp.filter_scanpath(sp.annotate(kept, word_layout))
        assert again == kept


class TestAggregate:
    def test_hand_fixture(self, word_layout):
        # visits w1, w1, w2, w1 with durations .1, .05, .2, .08
        path = path_on_words(word_layout, [1, 1, 2, 1], [0.1, 0.05, 0.2, 0.08])
        ann = sp.annotate(path, word_layout)

        ff = sp.aggregate([ann], "first_fixation")
        assert {(r.word_index, r.value) for r in ff} == {(1, 0.1), (2, 0.2)}

        gaze = sp.aggregate([ann], "gaze")
        gaze_vals = {r.word_index: r.value for r in gaze}
        assert gaze_vals[1] == pytest.approx(0.15, abs=1e-12)
        assert gaze_vals[2] == pytest.approx(0.2, abs=1e-12)

        total = sp.aggregate([ann], "total")
        total_vals = {r.word_index: r.value for r in total}
        assert total_vals[1] == pytest.approx(0.23, abs=1e-12)
        assert total_vals[2] == pytest.approx(0.2, abs=1e-12)

        runs = sp.aggregate([ann], "scanpath")
        assert [(r.word_index, round(r.value, 10)) for r in runs] == [
            (1, 0.15), (2, 0.2), (1, 0.08)]

    def test_single_fixation_word_all_measures_agree(self, word_layout):
        path = path_on_words(word_layout, [0], [0.3])
        ann = sp.annotate(path, word_layout)
        for measure in ("first_fixation", "gaze", "total"):
            recs = sp.aggregate([ann], measure)
            assert len(recs) == 1 and recs[0].value == pytest.approx(0.3)

    def test_unknown_measure_rejected(self, word_layout):
        ann = sp.annotate(path_on_words(word_layout, [0], [0.3]), word_layout)
        with pytest.raises(sp.UsageError):
            sp.aggregate([ann], "skimming")

    def test_measure_ordering_random(self, word_layout):
        rng = np.random.default_rng(7)
        for trial in range(30):
            words = rng.integers(0, 3, size=rng.integers(1, 12))
            durs = rng.uniform(0.05, 0.4, size=len(words))
            path = path_on_words(word_layout, words.tolist(), durs.tolist())
            ann = sp.annotate(path, word_layout)
            ff = {r.word_index: r.value for r in sp.aggregate([ann], "first_fixation")}
            gz = {r.word_index: r.value for r in sp.aggregate([ann], "gaze")}
            tt = {r.word_index: r.value for r in sp.aggregate([ann], "total")}
            assert set(ff) == set(gz) == set(tt)
            for w in ff:
                assert ff[w] <= gz[w] + 1e-12
                assert gz[w] <= tt[w] + 1e-12

    def test_scanpath_runs_sum_to_total(self, word_layout):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 3, size=15)
        durs = rng.uniform(0.05, 0.4, size=15)
        path = path_on_words(word_layout, words.tolist(), durs.tolist())
        ann = sp.annotate(path, word_layout)
        runs = sp.aggregate([ann], "scanpath")
        total = {r.word_index: r.value for r in sp.aggregate([ann], "total")}
        summed = {}
        for r in runs:
            summed[r.word_index] = summed.get(r.word_index, 0.0) + r.value
        for w, v in total.items():
            assert summed[w] == pytest.approx(v, abs=1e-12)


class TestPooling:
    def test_mean_across_readers(self, word_layout):
        a = sp.annotate(path_on_words(word_layout, [0], [0.2], reader="ra"), word_layout)
        b = sp.annotate(path_on_words(word_layout, [0], [0.4], reader="rb"), word_layout)
        recs = sp.aggregate([a, b], "total")
        pooled = sp.pool_across_readers(recs)
        assert len(pooled) == 1
        assert pooled[0].reader_id == POOLED_READER
        assert pooled[0].value == pytest.approx(0.3)

    def test_scanpath_records_enter_with_reader_mean(self, word_layout):
        # reader ra revisits word 0 (runs .1 and .3, mean .2), rb reads it once (.6)
        a = sp.annotate(path_on_words(word_layout, [0, 1, 0], [0.1, 0.2, 0.3],
                                      reader="ra"), word_layout)
        b = sp.annotate(path_on_words(word_layout, [0], [0.6], reader="rb"), word_layout)
        recs = sp.aggregate([a, b], "scanpath")
        pooled = {r.word_index: r.value for r in sp.pool_across_readers(recs)}
        assert pooled[0] == pytest.approx((0.2 + 0.6) / 2)

    def test_mixed_measures_rejected(self, word_layout):
        ann = sp.annotate(path_on_words(word_layout, [0], [0.2]), word_layout)
        recs = sp.aggregate([ann], "total") + sp.aggregate([ann], "gaze")
        with pytest.raises(sp.UsageError):
            sp.pool_across_readers(recs)


class TestDesign:
    def test_column_schema_two_readers_one_effect(self):
        cols = sp.design_columns(["r2", "r1"], ["freq"])
        assert cols == ("intercept", "reader:r1", "reader:r2", "freq",
                        "freq*reader:r1", "freq*reader:r2", "has:freq")
        assert len(cols) == 7

    def test_design_values(self, word_layout):
        path = path_on_words(word_layout, [0, 1], [0.1, 0.1], reader="r1")
        cols = sp.design_columns(["r1", "r2"], ["freq"])
        m = sp.design_for_columns(path, cols, {"freq": {0: 2.5}})
        assert cols == ("intercept", "reader:r1", "reader:r2", "freq",
                        "freq*reader:r1", "freq*reader:r2", "has:freq")
        assert m.shape == (2, 7)
        assert np.allclose(m[0], [1, 1, 0, 2.5, 2.5, 0, 1])
        assert np.allclose(m[1], [1, 1, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("columns", [
        sp.design_columns(["r1"], ["freq"]),
        ("intercept", "freq*reader:r1"),
        ("intercept", "has:freq"),
    ])
    def test_out_of_range_effect_index(self, word_layout, columns):
        path = path_on_words(word_layout, [0], [0.1])
        with pytest.raises(sp.ValidationError, match="fixation index 5"):
            sp.design_for_columns(path, columns, {"freq": {5: 1.0}})

    def test_design_values_other_reader(self, word_layout):
        path = path_on_words(word_layout, [0, 1, 2], [0.1, 0.2, 0.1], reader="r2")
        cols = sp.design_columns(["r1", "r2"], ["freq"])
        m = sp.design_for_columns(path, cols, {"freq": {1: -0.5, 2: 1.5}})
        assert np.array_equal(m, [[1, 0, 1, 0.0, 0, 0.0, 0],
                                  [1, 0, 1, -0.5, 0, -0.5, 1],
                                  [1, 0, 1, 1.5, 0, 1.5, 1]])

    def test_design_for_columns_unknown_reader_is_zero(self):
        path = random_scanpath(np.random.default_rng(0), 3,
                               sp.Rect(0, 0, 100, 100), reader="rz")
        X = sp.design_for_columns(path, ("intercept", "reader:r1"), None)
        assert np.allclose(X[:, 0], 1.0)
        assert np.allclose(X[:, 1], 0.0)
