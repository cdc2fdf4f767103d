"""Model description files (JSON) and their strict validation.

Schema: {"type": "may_oster" | "leslie_gower" | "neural_net" | "periodic_lv",
"n": int, then family-specific fields}.  Unknown fields are rejected, and
every complaint names the offending field (1-based indices).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .models import (
    CompetitionModel,
    LeslieGowerModel,
    MayOsterModel,
    ModelParameterError,
    NeuralNetModel,
)
from .periodic import (
    FourierSeries,
    IntegrationConfig,
    PeriodicLVSystem,
    PoincareMapModel,
)


class ModelFileError(ValueError):
    """Malformed model description file."""


_FIELDS = {
    "may_oster": {"type", "n", "B", "A"},
    "leslie_gower": {"type", "n", "C", "A"},
    "neural_net": {"type", "n", "B", "A", "gamma"},
    "periodic_lv": {"type", "n", "fourier"},
}


@dataclass
class LoadedModel:
    family: str
    model: CompetitionModel | None = None
    system: PeriodicLVSystem | None = None

    @property
    def n(self) -> int:
        return self.model.n if self.model is not None else self.system.n

    def map_model(self, config: IntegrationConfig | None = None) -> CompetitionModel:
        """The discrete-time map: the model itself, or the Poincare map."""
        if self.model is not None:
            return self.model
        return PoincareMapModel(self.system, config)


def load_model_file(path) -> LoadedModel:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"model file {path} is not valid UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"model file {path} is not valid JSON: {exc}") from exc
    return load_model_dict(data)


def load_model_dict(data) -> LoadedModel:
    if not isinstance(data, dict):
        raise ModelFileError("model description must be a JSON object")
    family = data.get("type")
    if family is None:
        raise ModelFileError("missing field 'type'")
    if family not in _FIELDS:
        raise ModelFileError(
            f"unknown model type {family!r}; expected one of {sorted(_FIELDS)}"
        )
    unknown = set(data) - _FIELDS[family]
    if unknown:
        raise ModelFileError(
            f"unknown field {sorted(unknown)[0]!r} for model type '{family}'"
        )
    n = _field(data, "n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ModelFileError("field 'n' must be an integer >= 1")

    try:
        if family == "may_oster":
            return LoadedModel(
                family, model=MayOsterModel(_vector(data, "B", n), _matrix(data, "A", n))
            )
        if family == "leslie_gower":
            return LoadedModel(
                family, model=LeslieGowerModel(_vector(data, "C", n), _matrix(data, "A", n))
            )
        if family == "neural_net":
            gamma = _number(_field(data, "gamma"), "field 'gamma'")
            return LoadedModel(
                family,
                model=NeuralNetModel(_vector(data, "B", n), _matrix(data, "A", n), gamma),
            )
        system = _parse_fourier(data, n)
        return LoadedModel(family, system=system)
    except ModelParameterError as exc:
        raise ModelFileError(str(exc)) from exc


def _field(data: dict, key: str):
    if key not in data:
        raise ModelFileError(f"missing field {key!r}")
    return data[key]


def _number(value, name: str) -> float:
    """The one number check: a finite JSON number, with ``name`` in every complaint.

    JSON files may spell NaN and Infinity, and Python's parser accepts them.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFileError(f"{name} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ModelFileError(f"{name} must be finite, got {number}")
    return number


def _numbers(value, name: str, n: int | None = None) -> list[float]:
    """A list of numbers, of length ``n`` when it is given."""
    if not isinstance(value, list) or (n is not None and len(value) != n):
        count = "" if n is None else f"{n} "
        raise ModelFileError(f"{name} must be a list of {count}numbers")
    return [_number(v, f"{name}[{k + 1}]") for k, v in enumerate(value)]


def _vector(data: dict, key: str, n: int) -> list[float]:
    return _numbers(_field(data, key), f"field {key!r}", n)


def _matrix(data: dict, key: str, n: int) -> list[list[float]]:
    rows = _field(data, key)
    if not isinstance(rows, list) or len(rows) != n:
        raise ModelFileError(f"field {key!r} must be a list of n rows of n numbers, n = {n}")
    return [_numbers(row, f"field {key!r}[{i + 1}]", n) for i, row in enumerate(rows)]


def _parse_fourier(data: dict, n: int) -> PeriodicLVSystem:
    if "fourier" not in data:
        raise ModelFileError("missing field 'fourier'")
    block = data["fourier"]
    if not isinstance(block, dict):
        raise ModelFileError("field 'fourier' must be an object with 'B' and 'A'")
    unknown = set(block) - {"B", "A"}
    if unknown:
        raise ModelFileError(f"unknown field {sorted(unknown)[0]!r} inside 'fourier'")
    if "B" not in block or "A" not in block:
        raise ModelFileError("'fourier' must contain both 'B' and 'A'")
    b_block = block["B"]
    if not isinstance(b_block, list) or len(b_block) != n:
        raise ModelFileError(f"'fourier.B' must be a list of {n} coefficient entries")
    B = [_parse_series(entry, f"fourier.B[{i + 1}]") for i, entry in enumerate(b_block)]
    a_block = block["A"]
    if not isinstance(a_block, list) or len(a_block) != n:
        raise ModelFileError(
            f"'fourier.A' must be a list of n rows of n coefficient entries, n = {n}"
        )
    A = []
    for i, row in enumerate(a_block):
        if not isinstance(row, list) or len(row) != n:
            raise ModelFileError(f"'fourier.A[{i + 1}]' must be a list of {n} entries")
        A.append(
            [
                _parse_series(entry, f"fourier.A[{i + 1}][{j + 1}]")
                for j, entry in enumerate(row)
            ]
        )
    return PeriodicLVSystem(B, A)


def _parse_series(entry, where: str) -> FourierSeries:
    if isinstance(entry, dict):
        unknown = set(entry) - {"const", "cos", "sin"}
        if unknown:
            raise ModelFileError(f"unknown field {sorted(unknown)[0]!r} in {where}")
        if "const" not in entry:
            raise ModelFileError(f"{where} is missing 'const'")
        return FourierSeries(
            _number(entry["const"], f"{where}.const"),
            cos=_numbers(entry.get("cos", []), f"{where}.cos"),
            sin=_numbers(entry.get("sin", []), f"{where}.sin"),
        )
    if isinstance(entry, bool) or not isinstance(entry, (int, float)):
        raise ModelFileError(f"{where} must be a number or an object with 'const'")
    return FourierSeries(_number(entry, where))
