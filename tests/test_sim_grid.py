"""Bit-exact sampled paths over the model × duration grid.

Each case samples one path of a saccade model (poisson, last_fixation, and
hawkes under every center map and link, with general three-column design
rows) by one duration model (plain, convolution, markov, gamma), at 150 and
600 events. ``data/sim_grid_digests.txt`` holds one sha256 per case, over
the path's onsets, durations and locations as float64 bytes and its
thinning counts, so a change that moves a sampled value in its last bit, or
a thinning decision, fails here. Regenerate it with
``python tests/test_sim_grid.py`` only when the sampler's output changes on
purpose.
"""
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import scanpp as sp

DIGESTS = Path(__file__).parent / "data" / "sim_grid_digests.txt"
OMEGA = sp.Rect(0.0, 0.0, 1920.0, 1080.0)
SEED = 4242
LENGTHS = (150, 600)
X_ROW = np.array([1.0, 0.37, -1.21])
X_DUR_ROW = np.array([1.0, 0.8])


def saccade_models():
    yield "poisson", sp.SaccadeSpec(variant="poisson"), {"nu": 6e-7}
    yield ("last_fixation", sp.SaccadeSpec(variant="last_fixation"),
           {"nu": 4e-7, "sigma2": 2200.0})
    for mean_fn, link in itertools.product(("baseline", "affine", "full"), ("softplus", "relu")):
        spec = sp.SaccadeSpec(variant="hawkes", mean_fn=mean_fn, link=link,
                              columns=("intercept", "x1", "x2"))
        fields = {"nu": 5e-7, "sigma2": 2000.0, "alpha": np.array([0.8, 0.5, -0.2]),
                  "beta": np.array([2.2, -0.4, 0.3])}
        if mean_fn != "baseline":
            fields.update(A=np.array([[0.95, 0.02], [-0.01, 0.9]]), b=np.array([110.0, 30.0]))
        if mean_fn == "full":
            fields["C"] = np.array([[0.0, 20.0, -10.0], [0.0, -5.0, 8.0]])
        yield f"hawkes {mean_fn} {link}", spec, fields


def duration_models():
    spec = sp.DurationSpec(columns=("intercept", "x1"))
    yield "plain", spec, sp.DurationParams.initial(spec, sigma2=0.1).replace(
        w=np.array([math.log(0.2), 0.05]))
    spec = sp.DurationSpec(mean_variant="convolution", spillover=("x1",),
                           columns=("intercept", "x1"))
    yield "convolution", spec, sp.DurationParams.initial(
        spec, kernel=(2.0, 3.0, 0.05), sigma2=0.08).replace(
        w=np.array([math.log(0.22), 0.15]), w_prime=np.array([0.3]))
    spec = sp.DurationSpec(mean_variant="markov", spillover=("x1",), lags=2,
                           columns=("intercept", "x1"))
    yield "markov", spec, sp.DurationParams.initial(spec, sigma2=0.09).replace(
        w=np.array([math.log(0.2), 0.1]), w_prime=np.array([[0.25], [-0.1]]))
    spec = sp.DurationSpec(distribution="gamma", columns=("intercept", "x1"))
    yield "gamma", spec, sp.DurationParams.initial(spec, sigma2=0.1).replace(
        w=np.array([math.log(0.21), -0.05]))


def cases():
    """Each case's name and a function that samples it."""
    out = {}
    for (sname, spec, fields), (dname, dspec, dparams), events in itertools.product(
            saccade_models(), duration_models(), LENGTHS):
        sigma2 = fields.get("sigma2", 1.0)
        params = sp.SaccadeParams.initial(spec, nu=fields["nu"], sigma2=sigma2).replace(
            **{k: v for k, v in fields.items() if k not in ("nu", "sigma2")})
        x_row = X_ROW if spec.p else None
        config = sp.SimConfig(horizon=math.inf, omega=OMEGA, seed=SEED, max_events=events)

        def sample(spec=spec, params=params, dspec=dspec, dparams=dparams, config=config,
                   x_row=x_row):
            return sp.sample_scanpath(spec, params, dspec, dparams, config, x_row=x_row,
                                      x_dur_row=X_DUR_ROW)

        out[f"{sname} / {dname} / {events}"] = sample
    return out


CASES = cases()


def digest(sim) -> str:
    path = sim.scanpath
    h = hashlib.sha256()
    for values in (path.onsets, path.durations, path.locations):
        h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    h.update(f"{sim.truncated} {sim.candidates} {sim.accepted} "
             f"{sim.location_fallbacks}".encode())
    return h.hexdigest()


def digests_text() -> str:
    return "".join(f"{digest(sample())}  {name}\n" for name, sample in CASES.items())


def recorded() -> dict[str, str]:
    out = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        value, _, name = line.partition("  ")
        out[name] = value
    return out


def test_digests_hold_every_case():
    assert len(CASES) == 8 * 4 * len(LENGTHS)
    assert list(recorded()) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_sampled_path_matches_digest(name):
    sim = CASES[name]()
    assert len(sim.scanpath) == sim.accepted == int(name.rsplit(" / ", 1)[1])
    assert digest(sim) == recorded()[name]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(digests_text(), encoding="utf-8")
