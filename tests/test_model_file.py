"""The model file: v3 round trips, full and nystrom files of v1 and v2 still
read, rf files of v1 and v2 refused, v3 rf files of the float64 feature
cosine read, and every malformed file raising ConfigError."""

import base64
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernelbcd.errors import ConfigError
from kernelbcd.kernels import FeatureMapSpec, KernelSpec, _block_params
from kernelbcd.solvers import Model, load_model, predict, save_model

FIXTURES = os.path.join(os.path.dirname(__file__), "data")
METHODS = ("full", "nystrom", "rf")


def fixture_model(method: str) -> Model:
    """The model each checked-in v1 and v2 file holds.  Its values come
    from exact arithmetic, so every numpy builds them bit for bit; they
    include -0.0, a subnormal, a huge value and fractions with no short
    decimal form.  The files ``data/model_v1_<method>.kbcd`` were written
    from these models by the v1 ``save_model``, whose arrays are JSON
    lists, and ``data/model_v2_<method>.kbcd`` by the v2 one."""
    coefficients = (np.arange(18.0).reshape(6, 3) - 7.5) / 7.0
    coefficients[0, 0] = -0.0
    coefficients[1, 1] = 5e-324
    coefficients[2, 2] = 1e300
    coefficients[3, 0] = 0.1
    anchors = np.arange(24.0).reshape(6, 4) / 3.0 - 2.0
    if method == "full":
        return Model("full", coefficients, kernel=KernelSpec("rbf", 1.5), anchors=anchors)
    if method == "nystrom":
        return Model(
            "nystrom", coefficients, kernel=KernelSpec("rbf", 2.5), anchors=anchors,
            landmarks=np.array([5, 0, 17, 3, 9, 11], dtype=np.int64),
        )
    return Model(
        "rf", coefficients, features=FeatureMapSpec(p=6, sigma=1.5, master_seed=7), dim=4
    )


def assert_same_model(a: Model, b: Model) -> None:
    assert a.method == b.method
    assert a.kernel == b.kernel and a.features == b.features and a.dim == b.dim
    for name in ("coefficients", "anchors", "landmarks"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


def assert_fixture_loads_bit_for_bit(method, version):
    path = os.path.join(FIXTURES, f"model_v{version}_{method}.kbcd")
    with open(path) as fh:
        assert fh.readline() == f"kernelbcd-model-v{version}\n"
    loaded, written = load_model(path), fixture_model(method)
    assert_same_model(loaded, written)
    probe = np.arange(20.0).reshape(5, 4) / 11.0 - 0.7
    assert np.array_equal(predict(loaded, probe), predict(written, probe))


@pytest.mark.parametrize("method", ["full", "nystrom"])
def test_v1_fixture_loads_bit_for_bit(method):
    assert_fixture_loads_bit_for_bit(method, 1)


@pytest.mark.parametrize("method", ["full", "nystrom"])
def test_v2_fixture_loads_bit_for_bit(method):
    assert_fixture_loads_bit_for_bit(method, 2)


@pytest.mark.parametrize("version", [1, 2])
def test_old_rf_fixture_is_refused(version):
    # its features were drawn by a rule the package no longer has, so it
    # must not predict with other features than it was trained on
    path = os.path.join(FIXTURES, f"model_v{version}_rf.kbcd")
    with pytest.raises(ConfigError, match=f"kernelbcd-model-v{version} rf model: .*retrain"):
        load_model(path)


@pytest.mark.parametrize("method", METHODS)
def test_v3_file_is_stable(method, tmp_path):
    model = fixture_model(method)
    first, second, again = (tmp_path / name for name in ("a", "b", "c"))
    save_model(model, first)
    save_model(model, second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b"kernelbcd-model-v3\n")
    save_model(load_model(first), again)
    assert again.read_bytes() == first.read_bytes()
    assert_same_model(load_model(first), model)
    # v3 keeps the v2 layout: only the magic line differs
    with open(os.path.join(FIXTURES, f"model_v2_{method}.kbcd"), "rb") as fh:
        assert fh.read().replace(b"-v2\n", b"-v3\n", 1) == first.read_bytes()


def test_v3_rf_file_predicts_within_the_cosine_bound_of_float64(tmp_path):
    # an rf file stores the feature spec, not the features, so a v3 file
    # written while the features took the float64 cosine loads as is; each
    # feature moves by at most 2**-22 sqrt(2/p), so a class score by at most
    # that times the 1-norm of the class's coefficient column
    path = tmp_path / "model.kbcd"
    with open(os.path.join(FIXTURES, "model_v2_rf.kbcd"), "rb") as fh:
        path.write_bytes(fh.read().replace(b"-v2\n", b"-v3\n", 1))
    model = load_model(path)
    assert_same_model(model, fixture_model("rf"))
    probe = np.arange(20.0).reshape(5, 4) / 11.0 - 0.7
    spec, w = model.features, model.coefficients
    freqs, phases = _block_params(spec, np.arange(spec.p), 4)
    scale = np.sqrt(2.0 / spec.p)
    float64_scores = (scale * np.cos(probe @ freqs + phases)) @ w
    # the 1e-12 covers the two score GEMMs' own rounding
    bound = (2.0**-22 + 1e-12) * scale * np.abs(w).sum(axis=0)
    assert np.all(np.abs(predict(model, probe) - float64_scores) <= bound)


def float_arrays(shape):
    return arrays(np.float64, shape, elements=st.floats(width=64))


@st.composite
def models(draw):
    method = draw(st.sampled_from(METHODS))
    p = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    coefficients = draw(float_arrays((p, k)))
    if method == "rf":
        sigma = draw(st.floats(1e-300, 1e300))
        seed = draw(st.integers(0, 2**64 - 1))
        dim = draw(st.one_of(st.none(), st.integers(1, 2**40)))
        return Model("rf", coefficients, features=FeatureMapSpec(p, sigma, seed), dim=dim)
    kernel = draw(st.sampled_from([KernelSpec("linear", 3.0), KernelSpec("rbf", 0.25)]))
    anchors = draw(float_arrays((p, draw(st.integers(1, 4)))))
    landmarks = None
    if method == "nystrom":
        landmarks = draw(arrays(np.int64, p))
    return Model(method, coefficients, kernel=kernel, anchors=anchors, landmarks=landmarks)


@settings(max_examples=150, deadline=None)
@given(model=models())
def test_v2_roundtrip_is_exact(model):
    # the v3 file round trips; the same bytes under the v2 magic line, the
    # layout v3 keeps, read back the same model, unless it is an rf model
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.kbcd")
        save_model(model, path)
        loaded = load_model(path)
        assert_same_model(loaded, model)
        for name in ("coefficients", "anchors", "landmarks"):
            a = getattr(loaded, name)
            assert a is None or (a.flags.writeable and a.dtype.isnative)
        with open(path, "rb") as fh:
            written = fh.read()
        save_model(loaded, path)
        with open(path, "rb") as fh:
            assert fh.read() == written
        with open(path, "wb") as fh:
            fh.write(written.replace(b"kernelbcd-model-v3\n", b"kernelbcd-model-v2\n", 1))
        if model.method == "rf":
            with pytest.raises(ConfigError, match="retrain"):
                load_model(path)
        else:
            assert_same_model(load_model(path), model)


def rewrite(path, edit):
    """Apply ``edit`` to the JSON header of the model file at ``path``."""
    magic, body = path.read_text().split("\n", 1)
    payload = json.loads(body)
    edit(payload)
    path.write_text(magic + "\n" + json.dumps(payload) + "\n")


def _set(entry, key, value):
    def edit(payload):
        payload[entry][key] = value
    return edit


def _drop(key):
    def edit(payload):
        del payload[key]
    return edit


BAD_EDITS = {
    "missing key": _drop("kernel"),
    "bad base64": _set("coefficients", "data", "not base64!"),
    "base64 of a non-string": _set("coefficients", "data", 17),
    "short data": _set("coefficients", "data", base64.b64encode(bytes(8)).decode()),
    "unexpected dtype": _set("coefficients", "dtype", "<f4"),
    "big-endian dtype": _set("landmarks", "dtype", ">i8"),
    "wrong rank": _set("coefficients", "shape", [18]),
    "rank 3": _set("anchors", "shape", [6, 2, 2]),
    "negative shape": _set("landmarks", "shape", [-6]),
    "fractional shape": _set("landmarks", "shape", [6.0]),
    "shape not a list": _set("landmarks", "shape", 6),
    "entry without data": lambda payload: payload["anchors"].pop("data"),
    "bad kernel": lambda payload: payload.update(kernel={"family": "poly"}),
    "kernel not an object": lambda payload: payload.update(kernel=[1.0]),
    "ragged v1 list": lambda payload: payload.update(coefficients=[[1.0], [1.0, 2.0]]),
    "rows mismatch": lambda payload: payload.update(coefficients=[[1.0]]),
    "bad dim": lambda payload: payload.update(dim="four"),
    "nystrom without landmarks": lambda payload: payload.update(landmarks=None),
}


@pytest.mark.parametrize("name", sorted(BAD_EDITS))
def test_malformed_header_is_config_error(name, tmp_path):
    path = tmp_path / "model.kbcd"
    save_model(fixture_model("nystrom"), path)
    rewrite(path, BAD_EDITS[name])
    with pytest.raises(ConfigError):
        load_model(path)


@pytest.mark.parametrize(
    "key, value", [("master_seed", -1), ("master_seed", 1.5), ("p", 6.0)]
)
def test_bad_feature_integers_are_config_error(key, value, tmp_path):
    # the feature spec refuses them when the file is read, not at the
    # first predict
    path = tmp_path / "model.kbcd"
    save_model(fixture_model("rf"), path)
    rewrite(path, _set("features", key, value))
    with pytest.raises(ConfigError):
        load_model(path)


@pytest.mark.parametrize(
    "content",
    [
        b"kernelbcd-model-v2\n",
        b"kernelbcd-model-v2\n[1, 2]\n",
        b"kernelbcd-model-v2\n\xff\xfe\n",
        b"kernelbcd-model-v3\n{}\n",
        b"kernelbcd-model-v4\n{}\n",
        b"\xff\xfe\x00garbage\n{}\n",
        b"",
    ],
)
def test_malformed_file_is_config_error(content, tmp_path):
    path = tmp_path / "model.kbcd"
    path.write_bytes(content)
    with pytest.raises(ConfigError):
        load_model(path)


@pytest.mark.parametrize("method", METHODS)
def test_truncated_file_is_config_error(method, tmp_path):
    path = tmp_path / "model.kbcd"
    save_model(fixture_model(method), path)
    whole = path.read_bytes()
    for size in (len(whole) // 3, len(whole) - 5):
        path.write_bytes(whole[:size])
        with pytest.raises(ConfigError):
            load_model(path)


def test_float32_sigma_model_saves_and_loads(tmp_path):
    # a float32 sigma once trained, then failed in save_model with "Object
    # of type float32 is not JSON serializable"
    from kernelbcd.kernels import gaussian_blobs
    from kernelbcd.solvers import make_plan, solve_rf

    data = gaussian_blobs(16, 2, 2, seed=0)
    model, _ = solve_rf(data, FeatureMapSpec(16, np.float32(2.0)), 0.1, make_plan(16, 8), 1)
    save_model(model, tmp_path / "m.kbcd")
    assert_same_model(load_model(tmp_path / "m.kbcd"), model)
