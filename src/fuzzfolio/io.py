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

import json
import math
from importlib import resources
from pathlib import Path

from .errors import ValidationError
from .fuzzy import FuzzyRandomReturn, RandomFactor
from .model import PortfolioInstance

__all__ = ["load_instance", "loads_instance", "write_instance", "bundled_names", "bundled_instance"]

_RETURN_FIELDS = ("r0", "r1", "r2", "beta", "gamma")


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
    if not isinstance(raw, dict):
        raise ValidationError(f"{source}: top level must be an object")
    for key in ("assets", "target", "total_fund", "upper_bounds", "factor"):
        if key not in raw:
            raise ValidationError(f"{source}: missing field {key!r}")

    assets = raw["assets"]
    if not isinstance(assets, list) or not assets:
        raise ValidationError(f"{source}: 'assets' must be a nonempty array")
    parsed = [
        _parse_return(a, f"{source}: assets[{i}]") for i, a in enumerate(assets)
    ]
    target = _parse_return(raw["target"], f"{source}: target")

    factor_raw = raw["factor"]
    if not isinstance(factor_raw, dict):
        raise ValidationError(f"{source}: 'factor' must be an object")
    mean = _number(factor_raw, "mean", f"{source}: factor")
    std_dev = _number(factor_raw, "std_dev", f"{source}: factor")
    try:
        factor = RandomFactor(mean=mean, std_dev=std_dev)
    except ValueError as exc:
        raise ValidationError(f"{source}: factor: {exc}") from exc

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


def _parse_return(raw, where: str) -> FuzzyRandomReturn:
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be an object")
    values = {f: _number(raw, f, where) for f in _RETURN_FIELDS}
    try:
        return FuzzyRandomReturn(**values)
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
    payload = {
        "assets": [_return_record(a) for a in instance.assets],
        "target": _return_record(instance.target),
        "total_fund": instance.total_fund,
        "upper_bounds": list(instance.upper_bounds),
        "factor": {"mean": instance.factor.mean, "std_dev": instance.factor.std_dev},
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _return_record(r: FuzzyRandomReturn) -> dict:
    return {f: getattr(r, f) for f in _RETURN_FIELDS}


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
