import numpy as np
import pytest

import scanpp as sp
from scanpp import mathutil


@pytest.fixture
def omega():
    return sp.Rect(0.0, 0.0, 1024.0, 768.0)


# every character on which str.splitlines, and so the loaders, break a line
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029")


def shrink_blocks(monkeypatch):
    """Cap the band's blocks at 20 pairs, and record each block the band yields.

    Returns a list that fills with (rows, pairs) per block as the band runs.
    """
    monkeypatch.setattr(mathutil, "_BLOCK_PAIRS", 20)
    blocks = []
    band = mathutil._band

    def recorded(*args):
        for block in band(*args):
            blocks.append((block[1] - block[0], block[3].size))
            yield block

    monkeypatch.setattr(mathutil, "_band", recorded)
    return blocks


def assert_shrunk(blocks, at_least):
    """At least ``at_least`` blocks were taken, each of 20 pairs at most or one row."""
    assert len(blocks) >= at_least
    assert all(size <= 20 or rows == 1 for rows, size in blocks)


# The training total adds the self-exciting compensator source by source,
# and the per-event terms add it event by event. The two sums agree within
# this many times the sum of the terms' magnitudes, each taken at least 1,
# plus the overlap integral where the kernel clock steps back.
TOTAL_RTOL = 1e-13


def assert_total_matches(total, per_event, rtol=TOTAL_RTOL, atol=0.0):
    """``total`` is -inf where a term is not finite, else the terms' sum within
    rtol times the sum of max(1, |term|), plus atol."""
    if not np.all(np.isfinite(per_event)):
        assert total == -np.inf
        return
    bound = rtol * np.sum(np.maximum(1.0, np.abs(per_event))) + atol
    assert abs(total - np.sum(per_event)) <= bound


def make_fixations(times_durs, locs):
    return tuple(sp.Fixation(t, x, y, d) for (t, d), (x, y) in zip(times_durs, locs))


@pytest.fixture
def simple_scanpath():
    fixes = make_fixations(
        [(0.1, 0.2), (0.5, 0.15), (0.9, 0.25), (1.5, 0.2)],
        [(100.0, 200.0), (300.0, 210.0), (500.0, 205.0), (700.0, 208.0)])
    return sp.Scanpath("r1", "t1", fixes)


def random_scanpath(rng, n, omega, reader="r0", text="t0", mean_gap=0.3,
                    mean_dur=0.2):
    t = 0.0
    fixes = []
    for _ in range(n):
        t += rng.exponential(mean_gap) + 1e-4
        d = mean_dur * (0.5 + rng.random())
        x = float(rng.uniform(omega.x0, omega.x0 + omega.width))
        y = float(rng.uniform(omega.y0, omega.y0 + omega.height))
        fixes.append(sp.Fixation(t, x, y, d))
        t += d
    return sp.Scanpath(reader, text, tuple(fixes))


def small_instance(rng, variant="hawkes", mean_fn="full", p=2, n=6, link="softplus"):
    """O(1)-scaled random instance for quadrature and finite-difference checks."""
    w = float(rng.uniform(1.0, 3.0))
    h = float(rng.uniform(1.0, 3.0))
    omega = sp.Rect(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)), w, h)
    t = 0.0
    fixes = []
    for _ in range(n):
        t += float(rng.uniform(0.05, 0.4))
        d = float(rng.uniform(0.1, 0.3))
        x = float(rng.uniform(omega.x0 + 0.05, omega.x1 - 0.05))
        y = float(rng.uniform(omega.y0 + 0.05, omega.y1 - 0.05))
        fixes.append(sp.Fixation(t, x, y, d))
        t += d
    path = sp.Scanpath("r", "t", tuple(fixes))
    if variant != "hawkes":
        spec = sp.SaccadeSpec(variant=variant, link=link)
        design = np.zeros((n, 0))
    else:
        spec = sp.SaccadeSpec(variant="hawkes", mean_fn=mean_fn, link=link,
                              columns=tuple(f"c{i}" for i in range(p)))
        design = rng.uniform(-1.0, 1.0, size=(n, p))
        design[:, 0] = 1.0
    params = sp.SaccadeParams.initial(spec, nu=float(rng.uniform(0.2, 1.0)),
                                      sigma2=float(rng.uniform(0.1, 0.5)))
    if variant == "hawkes":
        params = params.replace(alpha=rng.uniform(-0.5, 1.0, size=p),
                                beta=rng.uniform(-0.5, 1.0, size=p))
        if mean_fn in ("affine", "full"):
            params = params.replace(A=np.eye(2) + rng.uniform(-0.1, 0.1, size=(2, 2)),
                                    b=rng.uniform(-0.2, 0.2, size=2))
        if mean_fn == "full":
            params = params.replace(C=rng.uniform(-0.1, 0.1, size=(2, p)))
    return path, design, spec, params, omega


@pytest.fixture
def word_layout():
    boxes = []
    x = 50.0
    for wi, word in enumerate(["the", "cat", "sat"]):
        boxes.append(sp.data.Box(glyph=word, rect=sp.Rect(x, 100.0, 100.0, 20.0),
                                 word_index=wi, char_index=4 * wi,
                                 is_whitespace=False))
        x += 100.0
        if wi < 2:
            boxes.append(sp.data.Box(glyph=" ", rect=sp.Rect(x, 100.0, 10.0, 20.0),
                                     word_index=None, char_index=4 * wi + 3,
                                     is_whitespace=True))
            x += 10.0
    return sp.TextLayout(text_id="t1", screen=sp.Rect(0.0, 0.0, 1024.0, 768.0),
                         boxes=tuple(boxes))


def on_word(layout, word_index, dx=5.0, dy=5.0):
    """A point inside the word_index-th word box."""
    for box in layout.boxes:
        if box.word_index == word_index:
            return (box.rect.x0 + dx, box.rect.y0 + dy)
    raise AssertionError(f"layout has no word {word_index}")
