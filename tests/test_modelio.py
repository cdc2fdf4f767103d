import json

import numpy as np
import pytest

from carrysim.modelio import ModelFileError, load_model_dict, load_model_file
from carrysim.models import LeslieGowerModel, MayOsterModel, NeuralNetModel
from carrysim.periodic import PeriodicLVSystem


def may_dict():
    return {"type": "may_oster", "n": 2, "B": [0.5, 0.4], "A": [[1.0, 0.2], [0.3, 1.0]]}


def periodic_dict():
    return {
        "type": "periodic_lv",
        "n": 2,
        "fourier": {
            "B": [{"const": 1.0, "cos": [0.2]}, {"const": 0.8, "sin": [0.1]}],
            "A": [
                [{"const": 1.0}, {"const": 0.3}],
                [{"const": 0.2}, {"const": 1.1, "cos": [0.05]}],
            ],
        },
    }


def test_load_may_oster():
    loaded = load_model_dict(may_dict())
    assert loaded.family == "may_oster"
    assert isinstance(loaded.model, MayOsterModel)
    assert np.allclose(loaded.model.axial_fixed_points(), [0.5, 0.4])


def test_load_leslie_gower():
    loaded = load_model_dict(
        {"type": "leslie_gower", "n": 2, "C": [1.3, 1.2], "A": [[1.0, 0.5], [0.4, 1.0]]}
    )
    assert isinstance(loaded.model, LeslieGowerModel)


def test_load_neural_net():
    loaded = load_model_dict(
        {
            "type": "neural_net",
            "n": 2,
            "B": [0.5, 0.4],
            "A": [[1.0, 0.2], [0.3, 1.0]],
            "gamma": 1.0,
        }
    )
    assert isinstance(loaded.model, NeuralNetModel)
    assert loaded.model.gamma == 1.0


def test_load_periodic():
    loaded = load_model_dict(periodic_dict())
    assert loaded.model is None
    assert isinstance(loaded.system, PeriodicLVSystem)
    pm = loaded.map_model()
    assert pm.n == 2


def test_unknown_type_rejected():
    with pytest.raises(ModelFileError, match="unknown model type"):
        load_model_dict({"type": "ricker", "n": 1})


def test_unknown_field_rejected():
    data = may_dict()
    data["extra"] = 1
    with pytest.raises(ModelFileError, match="unknown field 'extra'"):
        load_model_dict(data)


def test_family_mismatched_field_rejected():
    data = may_dict()
    data["gamma"] = 1.0  # gamma belongs to neural_net only
    with pytest.raises(ModelFileError, match="unknown field 'gamma'"):
        load_model_dict(data)


def test_negative_interaction_rejected():
    data = may_dict()
    data["A"][0][0] = -1.0
    with pytest.raises(ModelFileError, match=r"A\[1\]\[1\]"):
        load_model_dict(data)


def test_wrong_length_rejected():
    data = may_dict()
    data["B"] = [0.5]
    with pytest.raises(ModelFileError, match="list of 2 numbers"):
        load_model_dict(data)


def test_non_numeric_rejected():
    data = may_dict()
    data["B"] = [0.5, "x"]
    with pytest.raises(ModelFileError, match=r"'B'\[2\]"):
        load_model_dict(data)


def test_missing_n_rejected():
    data = may_dict()
    del data["n"]
    with pytest.raises(ModelFileError, match="'n'"):
        load_model_dict(data)


@pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"],
)
def test_non_finite_numbers_rejected(literal, tmp_path):
    data = may_dict()
    data["B"][1] = "VALUE"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data).replace('"VALUE"', literal))
    with pytest.raises(ModelFileError, match=r"^field 'B'\[2\] must be finite"):
        load_model_file(path)
    data = periodic_dict()
    data["fourier"]["B"][1]["sin"] = [0.1, "VALUE"]
    path.write_text(json.dumps(data).replace('"VALUE"', literal))
    with pytest.raises(ModelFileError, match=r"^fourier\.B\[2\]\.sin\[2\] must be finite"):
        load_model_file(path)


def test_fourier_unknown_key_rejected():
    data = periodic_dict()
    data["fourier"]["B"][0]["tan"] = [1.0]
    with pytest.raises(ModelFileError, match="'tan'"):
        load_model_dict(data)


def test_fourier_missing_const_rejected():
    data = periodic_dict()
    del data["fourier"]["A"][0][0]["const"]
    with pytest.raises(ModelFileError, match=r"fourier.A\[1\]\[1\]"):
        load_model_dict(data)


def test_fourier_plain_numbers_accepted():
    data = periodic_dict()
    data["fourier"]["A"][0][0] = 1.0
    loaded = load_model_dict(data)
    assert loaded.system.A[0][0].const == 1.0


def test_load_from_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(may_dict()))
    loaded = load_model_file(path)
    assert loaded.family == "may_oster"


def test_invalid_json_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(ModelFileError, match="not valid JSON"):
        load_model_file(path)


def test_missing_file():
    with pytest.raises(ModelFileError, match="cannot read"):
        load_model_file("/nonexistent/model.json")
