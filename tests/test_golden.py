"""Byte-exact outputs of the sampler and of an intensity snapshot.

Every benchmark input and ``scanpp simulate`` output comes from
``sample_scanpath``, and ``scanpp plot`` writes ``grid_csv`` and
``svg_heatmap``, so the golden file ``data/sim_golden.txt`` holds their bytes
for fixed seeds. Each section
starts with a ``--- name`` line. Regenerate it with
``python tests/test_golden.py`` only when these outputs change on purpose.
"""
import math
from pathlib import Path

import numpy as np
import pytest

import scanpp as sp
from scanpp.fileio import dumps_scanpaths
from scanpp.plotting import grid_csv, intensity_grid, svg_heatmap

GOLDEN = Path(__file__).parent / "data" / "sim_golden.txt"
OMEGA = sp.Rect(0.0, 0.0, 1920.0, 1080.0)
COLUMNS = ("intercept", "reader:r0", "reader:r1", "reader:r2")
EVENTS = 200
SEED = 4242


def softplus_inv(y):
    return y + math.log(-math.expm1(-y))


def rse_model():
    """The benchmark's generating model: full RSE over an intercept plus reader one-hot."""
    spec = sp.SaccadeSpec(variant="hawkes", mean_fn="full", columns=COLUMNS)
    C = np.zeros((2, 4))
    C[:, 1:] = np.array([(-25.0, 10.0), (0.0, -12.0), (25.0, 5.0)]).T
    params = sp.SaccadeParams.initial(spec, nu=4.82e-7, sigma2=1600.0).replace(
        alpha=np.array([0.0] + [softplus_inv(a) for a in (1.3, 1.7, 2.0)]),
        beta=np.array([0.0] + [softplus_inv(d) for d in (2.4, 3.0, 3.4)]),
        A=np.eye(2), b=np.array([127.3, 0.0]), C=C)
    return spec, params


def affine_model():
    spec = sp.SaccadeSpec(variant="hawkes", mean_fn="affine", columns=("intercept",))
    params = sp.SaccadeParams.initial(spec, nu=5e-7, sigma2=2500.0).replace(
        alpha=np.array([softplus_inv(1.6)]), beta=np.array([softplus_inv(2.8)]),
        A=np.array([[0.95, 0.02], [-0.01, 0.9]]), b=np.array([110.0, 30.0]))
    return spec, params


def plain_durations():
    spec = sp.DurationSpec(columns=("intercept",))
    params = sp.DurationParams.initial(spec, sigma2=0.1).replace(w=np.array([math.log(0.2)]))
    return spec, params


def spillover_durations():
    """Convolution spillover of ``freq``, sampled at the CLI's default row (intercept only)."""
    spec = sp.DurationSpec(mean_variant="convolution", spillover=("freq",),
                           columns=("intercept", "freq"))
    params = sp.DurationParams.initial(spec, kernel=(2.0, 3.0, 0.05), sigma2=0.08).replace(
        w=np.array([math.log(0.22), 0.15]), w_prime=np.array([0.3]))
    return spec, params


def relu_hawkes_model():
    spec = sp.SaccadeSpec(variant="hawkes", link="relu", columns=("intercept",))
    params = sp.SaccadeParams.initial(spec, nu=5e-7, sigma2=2000.0).replace(
        alpha=np.array([1.4]), beta=np.array([2.6]))
    return spec, params


def last_fixation_model():
    spec = sp.SaccadeSpec(variant="last_fixation")
    return spec, sp.SaccadeParams.initial(spec, nu=4e-7, sigma2=2200.0)


def poisson_model():
    spec = sp.SaccadeSpec(variant="poisson")
    return spec, sp.SaccadeParams.initial(spec, nu=6e-7)


def gamma_durations():
    spec = sp.DurationSpec(distribution="gamma", columns=("intercept",))
    params = sp.DurationParams.initial(spec, sigma2=0.1).replace(w=np.array([math.log(0.21)]))
    return spec, params


def markov_durations():
    """Two markov lags of ``freq``."""
    spec = sp.DurationSpec(mean_variant="markov", spillover=("freq",), lags=2,
                           columns=("intercept", "freq"))
    params = sp.DurationParams.initial(spec, sigma2=0.09).replace(
        w=np.array([math.log(0.2), 0.1]), w_prime=np.array([[0.25], [-0.1]]))
    return spec, params


def simulate(saccade, durations, x_row, x_dur_row):
    spec, params = saccade
    dur_spec, dur_params = durations
    config = sp.SimConfig(horizon=1000.0, omega=OMEGA, seed=SEED, max_events=EVENTS)
    sim = sp.sample_scanpath(spec, params, dur_spec, dur_params, config, x_row=x_row,
                             x_dur_row=x_dur_row, reader_id="r1", text_id="golden")
    assert len(sim.scanpath) == EVENTS
    return sim.scanpath


def rse_path():
    return simulate(rse_model(), plain_durations(), np.array([1.0, 0.0, 1.0, 0.0]),
                    np.ones(1))


def sections():
    rse = rse_path()
    affine = simulate(affine_model(), spillover_durations(), np.ones(1),
                      np.array([1.0, 0.0]))
    # spillover of a nonzero freq value, markov lags, gamma durations, and the
    # relu, last-fixation and poisson saccade models
    spillover = simulate(affine_model(), spillover_durations(), np.ones(1),
                         np.array([1.0, 0.8]))
    relu = simulate(relu_hawkes_model(), gamma_durations(), np.ones(1), np.ones(1))
    last = simulate(last_fixation_model(), markov_durations(), None, np.array([1.0, -0.6]))
    poisson = simulate(poisson_model(), plain_durations(), None, np.ones(1))
    spec, params = rse_model()
    fixes = rse.fixations
    t = (fixes[99].end + fixes[100].onset) / 2.0
    X = np.tile([1.0, 0.0, 1.0, 0.0], (len(rse), 1))
    xs, ys, values = intensity_grid(t, rse, spec, params, OMEGA, 16, 16, X=X)
    return {
        "sample_scanpath rse plain": dumps_scanpaths([rse]),
        "sample_scanpath affine convolution": dumps_scanpaths([affine]),
        "grid_csv rse 16x16 after 100": grid_csv(xs, ys, values),
        "svg_heatmap rse 16x16 after 100": svg_heatmap(t, rse, OMEGA, xs, ys, values),
        "sample_scanpath affine convolution freq 0.8": dumps_scanpaths([spillover]),
        "sample_scanpath hawkes relu gamma": dumps_scanpaths([relu]),
        "sample_scanpath last_fixation markov": dumps_scanpaths([last]),
        "sample_scanpath poisson plain": dumps_scanpaths([poisson]),
    }


def golden_text():
    return "".join(f"--- {name}\n{text}" for name, text in sections().items())


def golden_sections():
    out = {}
    for chunk in GOLDEN.read_text(encoding="utf-8").split("--- ")[1:]:
        name, _, text = chunk.partition("\n")
        out[name] = text
    return out


@pytest.fixture(scope="module")
def computed():
    return sections()


@pytest.mark.parametrize("name", ["sample_scanpath rse plain",
                                  "sample_scanpath affine convolution",
                                  "grid_csv rse 16x16 after 100",
                                  "svg_heatmap rse 16x16 after 100",
                                  "sample_scanpath affine convolution freq 0.8",
                                  "sample_scanpath hawkes relu gamma",
                                  "sample_scanpath last_fixation markov",
                                  "sample_scanpath poisson plain"])
def test_bytes_match_golden(computed, name):
    assert computed[name] == golden_sections()[name]


def test_golden_holds_every_section(computed):
    assert list(golden_sections()) == list(computed)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text(), encoding="utf-8")
