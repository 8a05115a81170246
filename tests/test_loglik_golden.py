"""Bit-exact values of the likelihood passes that fit documents depend on.

Training steps along ``saccade.loglik_grad`` and ``duration_loglik_grad``, so
a fit document's digits follow from their bits. The golden file
``data/loglik_golden.txt`` holds ``repr`` of the training total and of
every per-event term, compensator increment and gradient entry over the
saccade variant grid, on
one batch of segments of lengths 0, 1, 2 and 90, and of the duration terms
and gradient for each mean x distribution pair. The values must not depend
on the BLAS thread count. Each section starts with a ``--- name`` line.
Regenerate the file with ``PYTHONPATH=src python tests/test_loglik_golden.py``
only when these values change on purpose. Before it writes, it prints each
section that changes and the largest relative change of each of its lines,
so a regeneration states its size.
"""
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import scanpp as sp
from scanpp import saccade
from scanpp.cli import _blas_threads
from scanpp.duration import _log_density, _means, duration_loglik_grad

from conftest import assert_total_matches

GOLDEN = Path(__file__).parent / "data" / "loglik_golden.txt"
OMEGA = sp.Rect(0.0, 0.0, 3.0, 2.0)
LENGTHS = (0, 1, 2, 90)


def segment(rng, m, label):
    """m fixations on OMEGA over columns (intercept, z), z uniform on [-1, 1]."""
    gaps = rng.uniform(0.05, 0.4, m)
    durs = rng.uniform(0.1, 0.3, m)
    onsets = np.cumsum(gaps) + np.concatenate(([0.0], np.cumsum(durs[:-1])))[:m]
    locs = np.column_stack([rng.uniform(0.1, 2.9, m), rng.uniform(0.1, 1.9, m)])
    design = np.column_stack([np.ones(m), rng.uniform(-1.0, 1.0, m)])
    return sp.PathData(onsets, durs, locs, design, labels=(label,))


def saccade_batch(p):
    """One batch of segments of LENGTHS, keeping the first p design columns."""
    rng = np.random.default_rng(2024)
    b = sp.PathData.concat([segment(rng, m, f"r{k}/t{k}") for k, m in enumerate(LENGTHS)])
    return sp.PathData(b.onsets, b.durations, b.locations, b.design[:, :p], starts=b.starts,
                       labels=b.labels)


def saccade_cases():
    """(name, spec, params) over the variant grid; the decay is fast enough to band."""
    for variant in ("poisson", "last_fixation"):
        spec = sp.SaccadeSpec(variant=variant)
        yield variant, spec, sp.SaccadeParams.initial(spec, nu=0.5, sigma2=0.2)
    weights = {"softplus": ([0.3, 0.4], [5.0, 0.5]), "relu": ([0.8, 0.3], [4.0, 1.0])}
    for mean_fn, link, columns in itertools.product(("baseline", "affine", "full"),
                                                    ("softplus", "relu"), (False, True)):
        cols = ("intercept", "z") if columns else ()
        spec = sp.SaccadeSpec(variant="hawkes", mean_fn=mean_fn, link=link, columns=cols)
        params = sp.SaccadeParams.initial(spec, nu=0.5, sigma2=0.2).replace(
            A=np.array([[0.95, 0.03], [-0.02, 1.05]]), b=np.array([0.05, -0.03]))
        if columns:
            alpha, beta = weights[link]
            params = params.replace(alpha=np.array(alpha), beta=np.array(beta),
                                    C=np.array([[0.02, -0.04], [0.03, 0.01]]))
        name = f"hawkes {mean_fn} {link} {'columns' if columns else 'no-columns'}"
        yield name, spec, params


def duration_cases():
    columns = ("intercept", "x1", "x2")
    for variant, dist in itertools.product(("plain", "convolution", "markov"),
                                           ("lognormal", "gamma")):
        spill = () if variant == "plain" else ("x1", "x2")
        spec = sp.DurationSpec(mean_variant=variant, spillover=spill,
                               lags=2 if variant == "markov" else 0, distribution=dist,
                               columns=columns)
        params = sp.DurationParams.initial(spec, kernel=(2.0, 3.0, 0.05), sigma2=0.08)
        params = params.replace(w=np.array([math.log(0.2), 0.1, -0.05]), shape=6.0)
        if variant == "convolution":
            params = params.replace(w_prime=np.array([0.3, -0.2]),
                                    kernel_alpha=np.array([2.0, 3.0]),
                                    kernel_beta=np.array([3.0, 5.0]),
                                    kernel_theta=np.array([0.05, 0.0]))
        elif variant == "markov":
            params = params.replace(w_prime=np.array([[0.3, -0.2], [0.1, 0.05]]))
        yield f"{variant} {dist}", spec, params


def duration_path():
    rng = np.random.default_rng(2025)
    unit = segment(rng, 60, "r0/t0")
    design = np.column_stack([unit.design, rng.uniform(-1.0, 1.0, unit.n)])
    return unit, design


def line(name, values):
    return " ".join([name] + [repr(float(v)) for v in np.ravel(values)]) + "\n"


def sections():
    out = {}
    for name, spec, params in saccade_cases():
        batch = saccade_batch(spec.p)
        total, grads = saccade.loglik_grad(batch, spec, params, OMEGA)
        text = [line("total", [total]),
                line("loglik_terms", saccade.loglik_terms(batch, spec, params, OMEGA).per_event),
                line("comp", saccade.compensator_increments(batch, spec, params, OMEGA))]
        text += [line(f"grad {key}", value) for key, value in grads.items()]
        out[f"saccade {name}"] = "".join(text)
    unit, design = duration_path()
    for name, spec, params in duration_cases():
        per_event, grads = duration_loglik_grad(
            sp.PathData(unit.onsets, unit.durations, unit.locations, design), spec, params)
        # the terms again without the gradient, as DurationModel.per_event_loglik forms them
        xi = _means(unit.onsets, design, (0,), spec, params)[1]
        text = [line("terms", per_event),
                line("duration_loglik",
                     _log_density(unit.durations, xi, spec, params, grad=False)[0])]
        text += [line(f"grad {key}", value) for key, value in grads.items()]
        out[f"duration {name}"] = "".join(text)
    return out


def golden_text():
    return "".join(f"--- {name}\n{text}" for name, text in sections().items())


def parse(text):
    """{section: {line name: values}} of a golden text, as ``line`` writes it."""
    out = {}
    for chunk in text.split("--- ")[1:]:
        name, _, body = chunk.partition("\n")
        lines = out[name] = {}
        for row in body.splitlines():
            words = row.split()
            k = 2 if words[0] == "grad" else 1
            lines[" ".join(words[:k])] = np.array(words[k:], dtype=float)
    return out


def relative_change(old, new):
    """Largest |new - old| / |old| over aligned values; inf where a value changes
    from zero, changes finiteness or the shapes differ; 0 where every value is equal."""
    if old.shape != new.shape:
        return math.inf
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    if same.all():
        return 0.0
    old, new = old[~same], new[~same]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(new - old) / np.abs(old)
    return float(np.max(np.where(np.isfinite(rel), rel, math.inf)))


def golden_changes(old_text, new_text):
    """One line per section that differs between two golden texts, with the
    largest relative change of each line that moved."""
    old, new = parse(old_text), parse(new_text)
    report = []
    for name in list(old) + [n for n in new if n not in old]:
        if name not in new or name not in old:
            report.append(f"{name}: section {'removed' if name not in new else 'added'}")
            continue
        if list(old[name]) != list(new[name]):
            report.append(f"{name}: lines differ: {list(old[name])} -> {list(new[name])}")
            continue
        moved = [(line, relative_change(old[name][line], new[name][line]))
                 for line in old[name]]
        moved = [f"{line} {rel:.2g}" for line, rel in moved if rel]
        if moved:
            report.append(f"{name}: {', '.join(moved)}")
    return report


def test_change_report_names_each_moved_line():
    text = golden_text()
    name, body = next(iter(parse(text).items()))
    assert golden_changes(text, text) == []
    first = next(iter(body))
    value = body[first][0]
    moved = text.replace(repr(float(value)), repr(float(value) * (1.0 + 2**-40)), 1)
    assert golden_changes(text, moved) == [f"{name}: {first} {2**-40:.2g}"]
    assert golden_changes(text, text + "--- extra\nterms 1.0\n") == ["extra: section added"]


@pytest.mark.parametrize("name,spec,params", list(saccade_cases()),
                         ids=[case[0] for case in saccade_cases()])
def test_total_is_the_sum_of_the_terms(name, spec, params):
    # the loss pass's total is the gradient pass's, bit for bit
    batch = saccade_batch(spec.p)
    total, _ = saccade.loglik_grad(batch, spec, params, OMEGA)
    assert saccade.loglik_grad(batch, spec, params, OMEGA, grad=False) == (total, None)
    assert_total_matches(total, saccade.loglik_terms(batch, spec, params, OMEGA).per_event)


@pytest.mark.parametrize("name,spec,params", list(saccade_cases()),
                         ids=[case[0] for case in saccade_cases()])
def test_increments_are_the_scoring_pass_increments(name, spec, params):
    # compensator_increments runs a pass of its own that forms no intensity
    batch = saccade_batch(spec.p)
    assert np.array_equal(saccade.compensator_increments(batch, spec, params, OMEGA),
                          saccade.event_intensities(batch, spec, params, OMEGA)[1])


@pytest.fixture(params=[1, 2], ids=lambda n: f"blas{n}")
def blas_threads(request):
    """The BLAS thread count set to 1, then 2, and restored afterwards."""
    before = _blas_threads()
    _blas_threads(request.param)
    yield
    if before:
        _blas_threads(max(before.values()))


def test_bytes_match_golden(blas_threads):
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    text = golden_text()
    before = GOLDEN.read_text(encoding="utf-8") if GOLDEN.exists() else ""
    for change in golden_changes(before, text) or ["no section changes"]:
        print(change)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(text, encoding="utf-8")
