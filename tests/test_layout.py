"""The packed parameter layout of the model adapters.

The order of the ``raw`` vector and its names are the fit-document format, so
the golden file ``data/params_golden.txt`` holds the ``dumps_params`` bytes of
fixed raw vectors over the spec grid. Regenerate it with
``python tests/test_layout.py`` only when the format changes on purpose.
"""
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scanpp as sp
from scanpp.fit import DurationModel, SaccadeModel
from scanpp.serialize import dumps_params, loads_params

GOLDEN = Path(__file__).parent / "data" / "params_golden.txt"
OMEGA = sp.Rect(0.0, 0.0, 1024.0, 768.0)
COLUMNS = ("intercept", "reader:r1", "x1")


def saccade_specs():
    specs = [sp.SaccadeSpec(variant="poisson"), sp.SaccadeSpec(variant="last_fixation")]
    for mean_fn, link, cols in itertools.product(("baseline", "affine", "full"),
                                                 ("softplus", "relu"), ((), COLUMNS)):
        specs.append(sp.SaccadeSpec(variant="hawkes", mean_fn=mean_fn, link=link,
                                    columns=cols))
    return specs


def duration_specs():
    specs = []
    for variant, dist in itertools.product(("plain", "convolution", "markov"),
                                           ("lognormal", "gamma")):
        specs.append(sp.DurationSpec(
            mean_variant=variant, spillover=() if variant == "plain" else ("x1",),
            lags=2 if variant == "markov" else 0, distribution=dist,
            columns=("intercept", "x1")))
    return specs


def models():
    return ([SaccadeModel(spec, OMEGA) for spec in saccade_specs()]
            + [DurationModel(spec) for spec in duration_specs()])


def fixed_raw(dim):
    """Multiples of 1/4 in [-1.25, 1.25], so every value prints exactly."""
    return np.array([((7 * i) % 11 - 5) / 4 for i in range(dim)])


def golden_text():
    return "".join(dumps_params(m, fixed_raw(m.dim)) for m in models())


def test_params_documents_match_golden():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


def test_golden_documents_load_back():
    docs = GOLDEN.read_text(encoding="utf-8").split("scanpp-params 1\n")[1:]
    for model, doc in zip(models(), docs):
        loaded = loads_params("scanpp-params 1\n" + doc)
        assert loaded.model.names == model.names
        np.testing.assert_array_equal(loaded.raw, fixed_raw(model.dim))


def constrained_value(model, params, name):
    """The params entry a name addresses, found by parsing the name."""
    field, _, label = name.partition("[")
    value = np.asarray(getattr(params, field), dtype=float)
    if not label:
        return float(value)
    spec = model.spec
    index = []
    for part in label[:-1].split(","):
        if part.startswith("lag"):
            index.append(int(part[3:]) - 1)
        elif part in ("0", "1"):
            index.append(int(part))
        elif field in ("w", "alpha", "beta", "C"):
            index.append(spec.columns.index(part))
        else:
            index.append(spec.spillover.index(part))
    return float(value[tuple(index)])


@st.composite
def model_and_raw(draw):
    model = draw(st.sampled_from(models()))
    values = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=64)
    raw = np.array(draw(st.lists(values, min_size=model.dim, max_size=model.dim)))
    # a kernel shift packs back to its raw value only while it is positive
    for i, name in enumerate(model.names):
        if name.startswith("kernel_theta["):
            raw[i] = abs(raw[i]) + 0.1
    return model, raw


@settings(max_examples=200, deadline=None)
@given(model_and_raw())
def test_pack_inverts_unpack(case):
    model, raw = case
    np.testing.assert_allclose(model.pack(model.unpack(raw)), raw, rtol=1e-12, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(model_and_raw())
def test_constrained_aligns_with_names(case):
    model, raw = case
    params = model.unpack(raw)
    values = model.constrained(raw)
    assert values.shape == (len(model.names),) == (model.dim,)
    for name, value in zip(model.names, values):
        assert value == constrained_value(model, params, name), name


@pytest.mark.parametrize("model", models(), ids=lambda m: f"{m.kind}-{m.dim}-{m.names[-1]}")
def test_decay_mask_covers_slopes_and_spillover(model):
    want = [name.startswith(("C[", "w_prime["))
            or (name.startswith(("alpha[", "beta[", "w[")) and not name.endswith("[intercept]"))
            for name in model.names]
    assert model.layout.decay_mask.tolist() == want


@pytest.mark.parametrize("model", models(), ids=lambda m: f"{m.kind}-{m.dim}-{m.names[-1]}")
def test_boundary_values_pack_to_their_floors(model):
    if isinstance(model, SaccadeModel):
        params = sp.SaccadeParams.initial(model.spec, nu=0.0, sigma2=2.0)
        raw = model.pack(params)
        assert raw[0] == sp.mathutil.softplus_inv(1e-300)
        return
    params = sp.DurationParams.initial(model.spec, kernel=(1.0 + 1e-13, 1e-13, 0.0))
    raw = dict(zip(model.names, model.pack(params)))
    for name, value in raw.items():
        if name.startswith(("kernel_alpha[", "kernel_beta[")):
            assert value == sp.mathutil.softplus_inv(1e-12)
        elif name.startswith("kernel_theta["):
            assert value == 0.0
            assert model.unpack(model.pack(params)).kernel_theta[0] == 0.0


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text(), encoding="utf-8")
