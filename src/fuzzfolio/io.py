"""Instance files: a self-describing JSON schema plus bundled fixtures.

The records and the instance check their own numbers; the loader checks the JSON
shape (objects, keys, arrays) and adds the place in the file.  Schema, all fields required:

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
        raise ValidationError(f"{path}: {exc.strerror or exc}", field="path") from exc
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

    if not isinstance(raw["upper_bounds"], list):
        raise ValidationError(f"{source}: 'upper_bounds' must be an array of numbers")
    try:
        return PortfolioInstance(parsed, target, raw["total_fund"], raw["upper_bounds"], factor)
    except ValidationError as exc:
        exc.args = (f"{source}: {exc}",)
        raise


def _record(cls, raw, where: str):
    """An instance of the dataclass cls from a JSON object of its fields."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be an object")
    for f in dataclasses.fields(cls):
        if f.name not in raw:
            raise ValidationError(f"{where}: missing field {f.name!r}")
    try:
        return cls(**{f.name: raw[f.name] for f in dataclasses.fields(cls)})
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def write_instance(instance: PortfolioInstance, path: str | Path) -> None:
    """Serialize an instance; floats round-trip exactly through load_instance."""
    try:
        Path(path).write_text(json.dumps(dataclasses.asdict(instance), indent=2) + "\n")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}", field="path") from exc


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
