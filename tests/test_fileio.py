from dataclasses import replace

import numpy as np
import pytest

import scanpp as sp
import scanpp.fileio as fio

from conftest import LINE_BREAKS, make_fixations


@pytest.fixture
def two_paths():
    a = sp.Scanpath("r1", "t1", make_fixations(
        [(0.1, 0.2), (0.5, 0.15)], [(100.5, 200.25), (300.0, 210.0)]))
    b = sp.Scanpath("r2", "t1", make_fixations(
        [(0.05, 0.1)], [(50.0, 60.0)]))
    return [a, b]


class TestScanpathFiles:
    def test_value_round_trip(self, two_paths):
        text = fio.dumps_scanpaths(two_paths)
        assert fio.loads_scanpaths(text) == two_paths

    def test_canonical_byte_round_trip(self, two_paths):
        text = fio.dumps_scanpaths(two_paths)
        assert fio.dumps_scanpaths(fio.loads_scanpaths(text)) == text

    def test_exact_floats_survive(self):
        path = sp.Scanpath("r", "t", make_fixations(
            [(0.1, 1 / 3)], [(np.pi, 2 / 7)]))
        back = fio.loads_scanpaths(fio.dumps_scanpaths([path]))[0]
        assert back.fixations[0].duration == 1 / 3
        assert back.fixations[0].x == np.pi

    def test_ms_unit_scales_onset_and_duration(self):
        text = ("# unit=ms\n"
                "reader_id,text_id,onset,duration,x,y\n"
                "r1,t1,100,200,10,20\n")
        path = fio.loads_scanpaths(text)[0]
        assert path.fixations[0].onset == pytest.approx(0.1)
        assert path.fixations[0].duration == pytest.approx(0.2)

    def test_unit_defaults_to_seconds(self):
        text = ("reader_id,text_id,onset,duration,x,y\n"
                "r1,t1,0.1,0.2,10,20\n")
        path = fio.loads_scanpaths(text)[0]
        assert path.fixations[0].onset == 0.1

    def test_unknown_unit_rejected(self):
        text = ("# unit=minutes\n"
                "reader_id,text_id,onset,duration,x,y\n")
        with pytest.raises(sp.ParseError):
            fio.loads_scanpaths(text)

    def test_wrong_header_rejected(self):
        with pytest.raises(sp.ParseError) as err:
            fio.loads_scanpaths("onset,duration\n")
        assert "line 1" in str(err.value)

    def test_bad_float_names_line(self):
        text = ("reader_id,text_id,onset,duration,x,y\n"
                "r1,t1,0.1,0.2,10,20\n"
                "r1,t1,abc,0.2,10,20\n")
        with pytest.raises(sp.ParseError) as err:
            fio.loads_scanpaths(text)
        assert "line 3" in str(err.value)

    def test_invalid_order_names_scanpath(self):
        text = ("reader_id,text_id,onset,duration,x,y\n"
                "r1,t1,0.5,0.2,10,20\n"
                "r1,t1,0.1,0.2,10,20\n")
        with pytest.raises(sp.ValidationError) as err:
            fio.loads_scanpaths(text)
        assert "r1" in str(err.value) and "t1" in str(err.value)

    def test_groups_by_reader_and_text_in_file_order(self):
        text = ("reader_id,text_id,onset,duration,x,y\n"
                "r2,t1,0.1,0.2,10,20\n"
                "r1,t1,0.1,0.2,10,20\n"
                "r2,t1,0.5,0.2,11,21\n")
        paths = fio.loads_scanpaths(text)
        assert [(p.reader_id, len(p)) for p in paths] == [("r2", 2), ("r1", 1)]

    def test_file_io(self, two_paths, tmp_path):
        target = tmp_path / "paths.csv"
        fio.write_scanpaths(target, two_paths)
        assert fio.load_scanpaths(target) == two_paths


class TestLayoutFiles:
    def test_round_trip(self, word_layout):
        text = fio.dumps_layouts([word_layout])
        loaded = fio.loads_layouts(text)
        assert set(loaded) == {"t1"}
        assert loaded["t1"] == word_layout
        assert fio.dumps_layouts([loaded["t1"]]) == text

    def test_screen_pragma_required(self):
        text = "text_id,glyph,x0,y0,w,h,word_index,char_index,is_whitespace\n"
        with pytest.raises(sp.ParseError):
            fio.loads_layouts(text)

    def test_empty_word_index_means_whitespace(self):
        text = ("# screen=100x100\n"
                "text_id,glyph,x0,y0,w,h,word_index,char_index,is_whitespace\n"
                "t1,a,0,0,10,10,0,0,0\n"
                "t1, ,10,0,5,10,,1,1\n")
        layout = fio.loads_layouts(text)["t1"]
        assert layout.boxes[1].word_index is None
        assert layout.boxes[1].is_whitespace

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_text_id_with_a_line_break_rejected(self, word_layout, brk):
        for text_id in (f"t{brk}1", f"t{brk}", brk):
            with pytest.raises(sp.ValidationError, match=r"^layout .*: the text id must hold "
                                                         "no line break$"):
                sp.TextLayout(text_id, word_layout.screen, word_layout.boxes)

    @pytest.mark.parametrize("text_id", ["t,1", 't "a", b', " t ", "текст", ""])
    def test_text_id_without_a_line_break_round_trips(self, word_layout, text_id):
        layout = sp.TextLayout(text_id, word_layout.screen, word_layout.boxes)
        assert fio.loads_layouts(fio.dumps_layouts([layout])) == {text_id: layout}

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_glyph_with_a_line_break_rejected(self, brk):
        for glyph in (f"a{brk}b", brk):
            with pytest.raises(sp.ValidationError, match=r"^box .* \(char 3\): the glyph must "
                                                         "hold no line break$"):
                sp.data.Box(glyph, sp.Rect(0.0, 0.0, 5.0, 10.0), None, 3, True)

    @pytest.mark.parametrize("glyph", [",", '"', "a,b", '"a", b', "\t", " ", "  "])
    def test_glyph_without_a_line_break_round_trips(self, word_layout, glyph):
        boxes = tuple(replace(b, glyph=glyph) if b.is_whitespace else b
                      for b in word_layout.boxes)
        layout = sp.TextLayout("t1", word_layout.screen, boxes)
        assert fio.loads_layouts(fio.dumps_layouts([layout])) == {"t1": layout}

    def test_box_outside_screen_rejected(self):
        text = ("# screen=100x100\n"
                "text_id,glyph,x0,y0,w,h,word_index,char_index,is_whitespace\n"
                "t1,a,95,0,10,10,0,0,0\n")
        with pytest.raises(sp.ValidationError):
            fio.loads_layouts(text)


class TestEffectsFiles:
    def test_round_trip_and_declared_order(self):
        text = ("reader_id,text_id,fixation_index,effect_name,value\n"
                "r1,t1,0,surprisal,1.5\n"
                "r1,t1,1,freq,-0.25\n"
                "r1,t1,1,surprisal,2.0\n")
        table = fio.loads_effects(text)
        assert table.names == ("surprisal", "freq")
        per = table.for_scanpath("r1", "t1")
        assert per["surprisal"] == {0: 1.5, 1: 2.0}
        assert per["freq"] == {1: -0.25}
        dumped = fio.dumps_effects(table)
        assert fio.loads_effects(dumped).values == table.values
        assert fio.dumps_effects(fio.loads_effects(dumped)) == dumped

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_ids_with_a_line_break_rejected(self, brk):
        for key in ((f"r{brk}1", "t"), ("r", f"t{brk}"), (brk, "t")):
            with pytest.raises(sp.ValidationError, match=r"^effects of \(.*\): reader and text "
                                                         "ids must hold no line break$"):
                fio.EffectsTable(("freq",), {("r", "t"): {}, key: {"freq": {0: 1.0}}})

    @pytest.mark.parametrize("reader_id,text_id", [("r,1", 't "a", b'), ('"r"', "t\t1"),
                                                   (" r ", "текст"), ("", "")])
    def test_ids_without_a_line_break_round_trip(self, reader_id, text_id):
        table = fio.EffectsTable(("freq",), {(reader_id, text_id): {"freq": {0: 1.5}}})
        assert fio.loads_effects(fio.dumps_effects(table)).values == table.values

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_effect_name_with_a_line_break_rejected(self, brk):
        for name in (f"f{brk}1", f"f{brk}", brk):
            with pytest.raises(sp.ValidationError, match=r"^effect .*: the effect name must "
                                                         "hold no line break$"):
                fio.EffectsTable(("freq", name), {("r", "t"): {name: {0: 1.0}}})

    @pytest.mark.parametrize("name", ["f,1", 'f "a", b', '"f"', "f\t1", " f ", "частота"])
    def test_effect_name_without_a_line_break_round_trips(self, name):
        table = fio.EffectsTable(("freq", name), {("r", "t"): {"freq": {0: 0.5},
                                                              name: {0: 1.5, 2: -1.0}}})
        loaded = fio.loads_effects(fio.dumps_effects(table))
        assert loaded.names == table.names and loaded.values == table.values

    def test_unknown_scanpath_gets_empty_maps(self):
        text = ("reader_id,text_id,fixation_index,effect_name,value\n"
                "r1,t1,0,freq,1.0\n")
        table = fio.loads_effects(text)
        assert table.for_scanpath("r9", "t9") == {"freq": {}}

    def test_negative_index_rejected(self):
        text = ("reader_id,text_id,fixation_index,effect_name,value\n"
                "r1,t1,-1,freq,1.0\n")
        with pytest.raises(sp.ParseError) as err:
            fio.loads_effects(text)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, value):
        text = ("reader_id,text_id,fixation_index,effect_name,value\n"
                "r1,t1,0,freq,1.0\n"
                f"r1,t1,1,freq,{value}\n")
        with pytest.raises(sp.ParseError, match=rf"^line 3: value of effect 'freq' must be "
                                                rf"finite, got {value}$"):
            fio.loads_effects(text)

    def test_duplicate_rejected(self):
        text = ("reader_id,text_id,fixation_index,effect_name,value\n"
                "r1,t1,0,freq,1.0\n"
                "r1,t1,0,freq,2.0\n")
        with pytest.raises(sp.ParseError) as err:
            fio.loads_effects(text)
        assert "line 3" in str(err.value)
