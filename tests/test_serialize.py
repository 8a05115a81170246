"""Files that hold several documents: fit documents, ``--params`` files and
report files are cut at their header lines in one place, and a ParseError
from any document names the line of the whole file."""
from pathlib import Path

import numpy as np
import pytest

import scanpp as sp
from scanpp.evaluate import Bootstrap, ComparisonReport
from scanpp.fit import DurationModel, SaccadeModel
from scanpp.serialize import (
    PARAMS_MAGIC,
    dumps_fit,
    dumps_params,
    dumps_reports,
    loads_fit,
    loads_params,
    loads_params_docs,
    loads_reports,
)

FIT_GOLDEN = Path(__file__).parent / "data" / "fit_golden.txt"
OMEGA = sp.Rect(0.0, 0.0, 640.0, 480.0)
COLUMNS = ("intercept", "x1")


def golden_fits():
    """The fit documents of the golden file, by section name."""
    chunks = FIT_GOLDEN.read_text(encoding="utf-8").split("--- ")[1:]
    return dict(chunk.partition("\n")[::2] for chunk in chunks)


def raw_for(model):
    return np.linspace(-0.5, 0.5, model.dim)


def report(model, mean):
    summary = Bootstrap(mean=mean, low=mean - 0.25, high=mean + 0.5, replicates=200, seed=3)
    return ComparisonReport(model=model, baseline="poisson", values=np.empty(0),
                            summary=summary, dataset_variant="full", test_events=12)


def line_of(text, prefix):
    """The 1-based number of the line of ``text`` that starts with ``prefix``."""
    return next(i for i, line in enumerate(text.split("\n"), 1) if line.startswith(prefix))


class TestFitDocuments:
    @pytest.mark.parametrize("name", list(golden_fits()))
    def test_golden_fit_reads_as_one_parameter_document(self, name):
        text = golden_fits()[name]
        loaded = loads_fit(text)
        assert dumps_fit(loaded.model, loaded.result) == text
        (doc,) = loads_params_docs(text)
        assert doc.model.names == loaded.model.names
        assert doc.raw.tobytes() == loaded.result.raw.tobytes()

    def test_second_parameter_section_is_parse_error(self):
        text = golden_fits()["grid_search duration convolution"]
        loaded = loads_fit(text)
        extra = dumps_params(loaded.model, loaded.result.raw)
        second = text.count("\n") + 1
        with pytest.raises(sp.ParseError, match=rf"^line {second}: fit document needs one "
                                                r"parameter section, has 2$"):
            loads_fit(text + extra)

    def test_missing_parameter_section_is_parse_error(self):
        text = golden_fits()["train saccade full minibatch"]
        with pytest.raises(sp.ParseError, match=r"^line 1: fit document needs one "
                                                r"parameter section, has 0$"):
            loads_fit(text[:text.index(PARAMS_MAGIC)])

    @pytest.mark.parametrize("name", list(golden_fits()))
    def test_parameter_error_names_the_file_line(self, name):
        text = golden_fits()[name]
        k = line_of(text, "raw ")
        lines = text.split("\n")
        lines[k - 1] = lines[k - 1].rsplit(" ", 1)[0] + " nan"
        with pytest.raises(sp.ParseError, match=rf"^line {k}: raw .* must be finite, got nan$"):
            loads_fit("\n".join(lines))
        with pytest.raises(sp.ParseError, match=rf"^line {k}: raw .* must be finite, got nan$"):
            loads_params_docs("\n".join(lines))


class TestParameterDocuments:
    def test_back_to_back_documents_in_file_order(self):
        models = [DurationModel(sp.DurationSpec(columns=COLUMNS)),
                  SaccadeModel(sp.SaccadeSpec(variant="hawkes", columns=COLUMNS), OMEGA)]
        docs = loads_params_docs("".join(dumps_params(m, raw_for(m)) for m in models))
        assert [d.model.names for d in docs] == [m.names for m in models]
        for doc, model in zip(docs, models):
            assert doc.raw.tobytes() == raw_for(model).tobytes()

    def test_no_header_reads_no_document(self):
        assert loads_params_docs("") == []
        assert loads_params_docs("kind saccade\n") == []

    def test_error_in_a_later_document_names_the_file_line(self):
        duration = DurationModel(sp.DurationSpec(columns=COLUMNS))
        first = dumps_params(duration, raw_for(duration))
        model = SaccadeModel(sp.SaccadeSpec(variant="hawkes", columns=COLUMNS), OMEGA)
        second = dumps_params(model, raw_for(model)).replace("kind saccade", "kind markov")
        kind_line = first.count("\n") + 2
        with pytest.raises(sp.ParseError,
                           match=rf"^line {kind_line}: unknown model kind 'markov'$"):
            loads_params_docs(first + second)

    @pytest.mark.parametrize("model", [
        SaccadeModel(sp.SaccadeSpec(columns=COLUMNS), OMEGA),
        DurationModel(sp.DurationSpec(columns=COLUMNS)),
    ], ids=["saccade", "duration"])
    def test_settings_left_out_take_the_spec_defaults(self, model):
        settings = ("variant", "mean_fn", "link", "mean_variant", "distribution", "lags")
        lines = [line for line in dumps_params(model, raw_for(model)).split("\n")
                 if line.partition(" ")[0] not in settings]
        loaded = loads_params("\n".join(lines))
        assert loaded.model.spec == model.spec
        assert loaded.raw.tobytes() == raw_for(model).tobytes()

    @pytest.mark.parametrize("value", ["x", "2.5"])
    def test_bad_lag_count_names_its_line(self, value):
        model = DurationModel(sp.DurationSpec(columns=COLUMNS))
        text = dumps_params(model, raw_for(model))
        k = line_of(text, "lags ")
        with pytest.raises(sp.ParseError, match=rf"^line {k}: bad integer '{value}'$"):
            loads_params(text.replace("lags 0", f"lags {value}"))

    @pytest.mark.parametrize("omega", [None, "omega 0.0 0.0 640.0"])
    def test_bad_omega_names_a_line(self, omega):
        model = SaccadeModel(sp.SaccadeSpec(columns=COLUMNS), OMEGA)
        text = dumps_params(model, raw_for(model))
        k = line_of(text, "omega ")
        lines = text.split("\n")
        if omega is None:
            del lines[k - 1]
            k = 1
        else:
            lines[k - 1] = omega
        with pytest.raises(sp.ParseError, match=rf"^line {k}: saccade document needs "
                                                r"'omega x0 y0 width height'$"):
            loads_params("\n".join(lines))


class TestReportFiles:
    def test_reports_dump_back_to_the_same_bytes(self):
        text = dumps_reports([report("hawkes", 0.5), report("rse", 1.25)])
        loaded = loads_reports(text)
        assert [r.model for r in loaded] == ["hawkes", "rse"]
        assert dumps_reports(loaded) == text

    def test_no_report(self):
        assert loads_reports(dumps_reports([])) == []

    def test_error_in_a_later_report_names_the_file_line(self):
        text = dumps_reports([report("hawkes", 0.5), report("rse", 1.25)])
        lines = text.split("\n")
        k = len(lines) - 1 - lines[::-1].index("mean 1.25")
        lines[k] = "mean abc"
        with pytest.raises(sp.ParseError, match=rf"^line {k + 1}: bad float 'abc'$"):
            loads_reports("\n".join(lines))
        lines[k] = "mean 1.25"
        del lines[k + 1]
        with pytest.raises(sp.ParseError, match=r"^line 12: report document is missing "
                                                r"'ci_low'$"):
            loads_reports("\n".join(lines))

    def test_text_before_the_first_report_is_parse_error(self):
        text = dumps_reports([report("hawkes", 0.5)])
        with pytest.raises(sp.ParseError, match=r"^line 1: expected header 'scanpp-report 1'$"):
            loads_reports("model hawkes\n" + text)
