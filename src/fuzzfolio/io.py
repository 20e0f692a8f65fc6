"""Instance files: a self-describing JSON schema plus bundled fixtures.

Schema, all fields required:

    {
      "assets":       [{"r0": .., "r1": .., "r2": .., "beta": .., "gamma": ..}, ...],
      "target":       {same record shape},
      "total_fund":   number,
      "upper_bounds": [number, ...],
      "factor":       {"mean": .., "std_dev": ..}
    }
"""

from __future__ import annotations

import dataclasses
import json
import math
from importlib import resources
from pathlib import Path

from .errors import ValidationError
from .fuzzy import FuzzyRandomReturn, RandomFactor
from .model import PortfolioInstance

__all__ = ["load_instance", "loads_instance", "write_instance", "bundled_names", "bundled_instance"]


def load_instance(path: str | Path) -> PortfolioInstance:
    """Parse and validate an instance file; errors carry file locations."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return loads_instance(text, source=str(path))


def loads_instance(text: str, source: str = "<string>") -> PortfolioInstance:
    try:
        # integers read as floats: one past the float range reads as inf and
        # is rejected by field, as is one too long for int()
        raw = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{source}: arrays or objects nested too deeply to parse") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{source}: top level must be an object")
    for f in dataclasses.fields(PortfolioInstance):
        if f.name not in raw:
            raise ValidationError(f"{source}: missing field {f.name!r}")

    assets = raw["assets"]
    if not isinstance(assets, list) or not assets:
        raise ValidationError(f"{source}: 'assets' must be a nonempty array")
    parsed = [_record(FuzzyRandomReturn, a, f"{source}: assets[{i}]") for i, a in enumerate(assets)]
    target = _record(FuzzyRandomReturn, raw["target"], f"{source}: target")
    factor = _record(RandomFactor, raw["factor"], f"{source}: factor")

    bounds = raw["upper_bounds"]
    if not isinstance(bounds, list):
        raise ValidationError(f"{source}: 'upper_bounds' must be an array of numbers")
    where = f"{source}: upper_bounds"
    upper = tuple(_finite(b, where, i) for i, b in enumerate(bounds))
    total_fund = _number(raw, "total_fund", source)

    try:
        return PortfolioInstance(
            assets=tuple(parsed),
            target=target,
            total_fund=total_fund,
            upper_bounds=upper,
            factor=factor,
        )
    except ValidationError as exc:
        exc.args = (f"{source}: {exc}",)
        raise


def _record(cls, raw, where: str):
    """An instance of the dataclass cls from a JSON object of its fields."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be an object")
    values = {f.name: _number(raw, f.name, where) for f in dataclasses.fields(cls)}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _number(raw: dict, key: str, where: str) -> float:
    if key not in raw:
        raise ValidationError(f"{where}: missing field {key!r}")
    return _finite(raw[key], where, key)


def _finite(v, where: str, key: str | int) -> float:
    # key is an object's field name or an array's index
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        what = f"{where}[{key}]" if isinstance(key, int) else f"{where}: field {key!r}"
        rule = "be finite" if isinstance(v, float) else "be a number"
        raise ValidationError(f"{what} must {rule}, got {v!r}")
    return float(v)


def write_instance(instance: PortfolioInstance, path: str | Path) -> None:
    """Serialize an instance; floats round-trip exactly through load_instance."""
    Path(path).write_text(json.dumps(dataclasses.asdict(instance), indent=2) + "\n")


def bundled_names() -> list[str]:
    """Names of instances shipped with the package."""
    root = resources.files("fuzzfolio.data")
    return sorted(p.name.removesuffix(".json") for p in root.iterdir() if p.name.endswith(".json"))


def bundled_instance(name: str) -> PortfolioInstance:
    """Load a bundled instance, e.g. the five-asset benchmark 'paper_table1'."""
    ref = resources.files("fuzzfolio.data").joinpath(f"{name}.json")
    if not ref.is_file():
        raise ValidationError(f"no bundled instance named {name!r}; available: {bundled_names()}")
    return loads_instance(ref.read_text(), source=f"bundled:{name}")
