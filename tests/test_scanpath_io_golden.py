"""Scanpath file loading and writing, pinned byte for byte.

Each case is a scanpath file. For a file that loads, the golden file
``data/scanpath_io_golden.txt`` holds the bytes ``dumps_scanpaths`` writes
for what ``loads_scanpaths`` read; for one that does not, it holds the
exception's type and message. The valid cases cover time units, interleaved
groups, padded and unusual numeric tokens and quoted ids; the invalid ones
cover a bad token in each numeric column, wrong field counts, out-of-order
and overlapping fixations, bad durations and onsets, and which of several
faults is reported first. Each section starts with a ``--- name`` line.
Regenerate the file with ``python tests/test_scanpath_io_golden.py`` only
when these outputs change on purpose.
"""
from pathlib import Path

import pytest

from scanpp.errors import ScanppError
from scanpp.fileio import dumps_scanpaths, loads_scanpaths

GOLDEN = Path(__file__).parent / "data" / "scanpath_io_golden.txt"
HEADER = "reader_id,text_id,onset,duration,x,y\n"

CASES = {
    # --- files that load
    "ms unit": "# unit=ms\n" + HEADER + "r1,t1,100,200,10,20\nr1,t1,350,150,12.5,21\n"
               "r1,t1,1000.5,0.25,-3,4e2\n",
    "seconds by default": HEADER + "r1,t1,0.1,0.2,10,20\n",
    "interleaved groups": HEADER + "r2,t1,0.1,0.2,10,20\nr1,t1,0.1,0.2,11,21\n"
                          "r2,t2,0.3,0.1,12,22\nr2,t1,0.5,0.2,13,23\nr1,t1,0.4,0.1,14,24\n"
                          "r2,t2,0.6,0.3,15,25\n",
    "padded numeric fields": HEADER + "r1,t1, 0.1 ,0.2  ,\t10,20 \n"
                             "r1,t1,  0.5,   0.15,300.0 ,  210\n",
    "exponents and signs": HEADER + "r1,t1,1e-1,2E-1,1.5e+2,+2.5E2\n"
                           "r1,t1,5E-1,.15,1e3,-7.5e-3\nr1,t1,+1.,1_0e-1,1_000,0.5\n",
    "negative zero": HEADER + "r1,t1,-0.0,0.2,-0.0,0.0\nr1,t1,0.5,0.1,-0,-0.0e0\n",
    "long mantissas": HEADER + "r1,t1,0.1000000000000000055511151231257827,"
                      "0.33333333333333331482961625624739,3.141592653589793238462643,"
                      "1e-320\nr1,t1,0.99999999999999999999,1e-300,1.7976931348623157e308,"
                      "-1.7976931348623157e308\n",
    "quoted ids with commas": HEADER + '"r,1","t ""a"", b",0.1,0.2,10,20\n'
                              '"r,1","t ""a"", b",0.5,0.2,11,21\nr2,"t1",0.1,0.2,10,20\n',
    "padded and unicode ids": HEADER + " r1,t1 ,0.1,0.2,10,20\nr1,t1,0.1,0.2,10,20\n"
                              "lés,текст,0.1,0.2,10,20\n",
    "comments blank lines and crlf": "# a comment\r\n\r\n" + HEADER.replace("\n", "\r\n")
                                     + "r1,t1,0.1,0.2,10,20\r\n   \r\n# unit=s\r\n"
                                     "r1,t1,0.5,0.2,11,21\r\n",
    "later unit pragma wins": "# unit=s\n" + HEADER + "r1,t1,100,200,10,20\n# unit=ms\n",
    "touching and tolerated overlap": HEADER + "r1,t1,0.1,0.2,10,20\nr1,t1,0.30000000000000004,"
                                      "0.1,11,21\nr1,t1,0.3999999999995,0.1,12,22\n",
    "header only": HEADER,
    "stray quotes": HEADER + 'r"1,t1,0.1,0.2,10,20\n"r2"x,t1,0.1,0.2,10,20\n',
    # --- files that do not
    "bad onset": HEADER + "r1,t1,0.1,0.2,10,20\nr1,t1,abc,0.2,10,20\n",
    "bad duration": HEADER + "r1,t1,0.1,0.2,10,20\nr1,t1,0.5,0.2s,10,20\n",
    "bad x": HEADER + "r1,t1,0.1,0.2,1 0,20\n",
    "bad y": HEADER + "r1,t1,0.1,0.2,10,\n",
    "bad y in ms file": "# unit=ms\n" + HEADER + "r1,t1,100,200,10,20\nr2,t1,1,2,3,y\n",
    "too few fields": HEADER + "r1,t1,0.1,0.2,10\n",
    "too many fields": HEADER + "r1,t1,0.1,0.2,10,20\nr1,t1,0.5,0.2,10,20,30\n",
    "unknown unit": "# unit=minutes\n" + HEADER,
    "wrong header": "reader_id,text_id,onset,duration,y,x\nr1,t1,0.1,0.2,10,20\n",
    "missing header": "# unit=s\n\n",
    "out of order": HEADER + "r1,t1,0.5,0.2,10,20\nr1,t1,0.1,0.2,10,20\n",
    "repeated onset": HEADER + "r1,t1,0.5,0.1,10,20\nr1,t1,0.5,0.2,10,20\n",
    "overlap": HEADER + "r1,t1,0.1,0.2,10,20\nr1,t1,0.25,0.2,10,20\n",
    "overlap in second group": HEADER + "r1,t1,0.1,0.2,10,20\nr2,t1,0.1,0.2,10,20\n"
                               "r1,t1,0.5,0.2,10,20\nr2,t1,0.2,0.2,10,20\n",
    "zero duration": HEADER + "r1,t1,0.1,0.2,10,20\nr1,t1,0.5,0,10,20\n",
    "negative duration": HEADER + "r1,t1,0.1,-0.2,10,20\n",
    "negative zero duration": HEADER + "r1,t1,0.1,-0.0,10,20\n",
    "nan duration": HEADER + "r1,t1,0.1,nan,10,20\n",
    "inf duration": HEADER + "r1,t1,0.1,inf,10,20\n",
    "negative onset": HEADER + "r1,t1,0.1,0.2,10,20\nr2,t2,-0.1,0.2,10,20\n",
    "nan onset": HEADER + "r1,t1,NaN,0.2,10,20\n",
    "inf onset": HEADER + "r1,t1,-inf,0.2,10,20\n",
    "duration underflows in ms": "# unit=ms\n" + HEADER + "r1,t1,1,1e-322,10,20\n",
    "bad value before bad fixation": HEADER + "r1,t1,0.1,0.2,10,20\nr2,t1,0.1,x,10,20\n"
                                     "r1,t1,0.5,0,10,20\n",
    "bad fixation before bad value": HEADER + "r1,t1,0.1,0.2,10,20\nr1,t1,0.5,0,10,20\n"
                                     "r2,t1,0.1,x,10,20\n",
    "bad fixation before disorder": HEADER + "r1,t1,0.5,0.2,10,20\nr1,t1,0.1,0.2,10,20\n"
                                    "r2,t1,0.1,-1,10,20\n",
    "short row after disorder": HEADER + "r1,t1,0.5,0.2,10,20\nr1,t1,0.1,0.2,10,20\n"
                                "r2,t1,0.1\n",
    "first disordered group": HEADER + "r2,t1,0.5,0.2,10,20\nr1,t1,0.5,0.2,10,20\n"
                              "r1,t1,0.1,0.2,10,20\nr2,t1,0.6,0.2,10,20\n",
}


def outcome(text: str) -> str:
    try:
        return dumps_scanpaths(loads_scanpaths(text))
    except ScanppError as exc:
        return f"{type(exc).__name__}: {exc}\n"


def golden_text():
    return "".join(f"--- {name}\n{outcome(text)}" for name, text in CASES.items())


def golden_sections():
    out = {}
    for chunk in GOLDEN.read_text(encoding="utf-8").split("\n--- "):
        name, _, text = chunk.removeprefix("--- ").partition("\n")
        out[name] = text + "\n"
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_matches_golden(name):
    assert outcome(CASES[name]) == golden_sections()[name]


def test_golden_holds_every_case():
    assert list(golden_sections()) == list(CASES)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text().removesuffix("\n"), encoding="utf-8")
