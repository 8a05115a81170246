"""Byte-exact fit documents of the trainer's paths.

``data/loglik_golden.txt`` pins the likelihood bits and
``data/params_golden.txt`` the parameter documents, but a trained fit also
goes through the fitting basis, the SGD steps, the chain rule into the
packed vector and ``dumps_fit``. The golden file ``data/fit_golden.txt``
holds the ``dumps_fit`` bytes of a full-batch and a minibatch ``train`` of a
full center-map saccade model, whose fitting basis is not the identity, and
of a ``grid_search`` of a convolution duration model. Each section starts
with a ``--- name`` line. Regenerate the file with
``PYTHONPATH=src python tests/test_fit_golden.py`` only when these
documents change on purpose.
"""
from pathlib import Path

import numpy as np
import pytest

import scanpp as sp
from scanpp.fit import DurationModel, GridSpec, SaccadeModel, TrainConfig, grid_search, train
from scanpp.serialize import dumps_fit

GOLDEN = Path(__file__).parent / "data" / "fit_golden.txt"
OMEGA = sp.Rect(0.0, 0.0, 1024.0, 768.0)


def segment(rng, m, label):
    """m fixations drifting rightwards on OMEGA over columns (intercept, z)."""
    gaps = rng.uniform(0.05, 0.3, m)
    durs = rng.uniform(0.1, 0.35, m)
    onsets = np.cumsum(gaps) + np.concatenate(([0.0], np.cumsum(durs[:-1])))
    x = np.clip(100.0 + np.cumsum(rng.normal(40.0, 30.0, m)), 5.0, 1019.0)
    y = np.clip(384.0 + rng.normal(0.0, 60.0, m), 5.0, 763.0)
    design = np.column_stack([np.ones(m), rng.uniform(-1.0, 1.0, m)])
    return sp.PathData(onsets, durs, np.column_stack([x, y]), design, labels=(label,))


def units(seed, count=10, m=15):
    rng = np.random.default_rng(seed)
    return [segment(rng, m, f"r{k % 3}/t{k}") for k in range(count)]


def sections():
    saccade = SaccadeModel(sp.SaccadeSpec(variant="hawkes", mean_fn="full",
                                          columns=("intercept", "z")), OMEGA)
    config = TrainConfig(learning_rate=0.002, max_epochs=5, patience=5, seed=3)
    data = units(11)
    full = train(saccade, data, config.replace(batch_size=64))
    mini = train(saccade, data, config.replace(batch_size=3))
    duration = DurationModel(sp.DurationSpec(mean_variant="convolution", spillover=("z",),
                                             columns=("intercept", "z")))
    grid = GridSpec(batch_sizes=(4, 64), learning_rates=(0.05, 0.01), weight_decays=(0.0,),
                    kernel_inits=((2.0, 3.0, 0.5), (3.0, 5.0, 0.0)))
    searched = grid_search(duration, units(12), grid,
                           TrainConfig(max_epochs=4, patience=4, seed=5))
    return {"train saccade full full-batch": dumps_fit(saccade, full),
            "train saccade full minibatch": dumps_fit(saccade, mini),
            "grid_search duration convolution": dumps_fit(duration, searched)}


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


@pytest.mark.parametrize("name", ["train saccade full full-batch",
                                  "train saccade full minibatch",
                                  "grid_search duration convolution"])
def test_bytes_match_golden(computed, name):
    assert computed[name] == golden_sections()[name]


def test_golden_holds_every_section(computed):
    assert list(golden_sections()) == list(computed)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text(), encoding="utf-8")
