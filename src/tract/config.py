"""What a run configuration holds: the model, the limits, the parameters.

``model_from_config`` builds a model from its JSON description.
``Limits`` is a config file's ``limits`` object; ``CriterionParams`` holds
the criterion parameters, given as flags or under ``analysis``.  Each
checks its own fields, and the CLI takes its keys, casts and flags from
them.  The module needs only ``eigenmodel``, so reading a config loads no
analysis code.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from . import exprdsl
from .eigenmodel import (
    EigenModel,
    ExpDecay,
    Expression,
    Family,
    FiniteRank,
    Geometric,
    GeometricTail,
    PolyDecay,
    PowerLawTail,
    StretchedExpTail,
    Tabulated,
    TailEnvelope,
)

__all__ = ["Limits", "CriterionParams", "model_from_config"]


# ---------------------------------------------------------------------------
# Limits and parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Limits:
    d_max: int = 64
    j_max: int = 1 << 26
    n_max: int = 1_000_000
    tol: float = 1e-10
    c_min: float = 2.0**-10

    def __post_init__(self):
        if min(self.d_max, self.j_max, self.n_max) < 1:
            raise ValueError("limits must be positive")
        if self.j_max > 1 << 62:
            raise ValueError("j_max must be at most 2**62 (the search indexes with int64)")
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        # The WT c grid runs from 1 down to c_min.
        if not (0.0 < self.c_min <= 1.0):
            raise ValueError("c_min must lie in (0, 1]")

    def as_dict(self) -> dict:
        return asdict(self)


# Fields with an inclusive lower bound; every other field must be positive.
_AT_LEAST = {"tau1": 0.0, "tau3": 0.0, "k": 1}


@dataclass(frozen=True)
class CriterionParams:
    """Parameter bundle for the criterion sums; unused fields stay None, set ones are finite."""

    tau: float | None = None
    tau1: float | None = None
    tau2: float | None = None
    tau3: float | None = None
    c_tilde: float | None = None
    c: float | None = None
    s: float | None = None
    t: float | None = None
    k: int | None = None

    def __post_init__(self):
        for name, v in self.__dict__.items():
            low = _AT_LEAST.get(name)
            if v is not None and not (math.isfinite(v) and (v > 0 if low is None else v >= low)):
                rule = "> 0" if low is None else f">= {low:g}"
                raise ValueError(f"{name} must be finite and {rule}, got {v!r}")

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------


def _cast(cast, value, where: str):
    """cast(value); a value of the wrong JSON type is a ValueError naming where."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _floats(values, where: str) -> tuple[float, ...]:
    return tuple(_cast(float, v, where) for v in _cast(iter, values, where))


# Config name of each tail form -> its class and the config keys of its fields.
_TAIL_FORMS = {
    "PowerLaw": (PowerLawTail, ("A", "beta")),
    "Geometric": (GeometricTail, ("A", "r")),
    "StretchedExp": (StretchedExpTail, ("A", "b", "gamma")),
}


def _tail_from_config(spec: dict) -> TailEnvelope:
    if not isinstance(spec, dict):
        raise ValueError("tail envelope must be an object")
    if "form" not in spec:
        raise ValueError("tail envelope needs a 'form' field")
    form_name = spec["form"]
    if not isinstance(form_name, str) or form_name not in _TAIL_FORMS:
        raise ValueError(f"unknown tail form {form_name!r}")
    form_cls, keys = _TAIL_FORMS[form_name]
    unknown = set(spec) - {"form", "valid_from", *keys}
    if unknown:
        raise ValueError(f"unknown tail key {sorted(unknown)[0]!r}")
    missing = [k for k in keys if k not in spec]
    if missing:
        raise ValueError(f"tail form {form_name} missing field {missing[0]!r}")
    valid_from = _cast(int, spec.get("valid_from", 1), "tail valid_from")
    values = [_cast(float, spec[k], f"tail field {k!r}") for k in keys]
    if form_cls is PowerLawTail and values[1] <= 1:
        raise ValueError("declared PowerLaw tails require beta > 1")
    return TailEnvelope(form_cls(*values), valid_from, exact=False)


# The closed forms take their parameters by field name, with the class defaults.
_CLOSED_FORMS = {"PolyDecay": PolyDecay, "ExpDecay": ExpDecay, "Geometric": Geometric}
_PARAM_FIELDS = {
    **{kind: tuple(f.name for f in fields(cls) if f.init) for kind, cls in _CLOSED_FORMS.items()},
    "FiniteRank": ("values",),
    "Tabulated": ("prefix",),
    "Expression": ("formula",),
}


def model_from_config(spec: dict) -> EigenModel:
    """Build a model from the CLI's JSON description (strict keys and types)."""
    if not isinstance(spec, dict):
        raise ValueError("model description must be an object")
    unknown = set(spec) - {"kind", "params", "tail", "d_scale"}
    if unknown:
        raise ValueError(f"unknown model key {sorted(unknown)[0]!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _PARAM_FIELDS:
        raise ValueError(f"unknown model kind {kind!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("model params must be an object")
    unknown = set(params) - set(_PARAM_FIELDS[kind])
    if unknown:
        raise ValueError(f"unknown {kind} parameter {sorted(unknown)[0]!r}")
    tail = _tail_from_config(spec["tail"]) if spec.get("tail") is not None else None

    if kind in _CLOSED_FORMS:
        family: Family = _CLOSED_FORMS[kind](
            **{k: _cast(float, v, f"{kind} parameter {k!r}") for k, v in params.items()}
        )
    elif kind == "FiniteRank":
        family = FiniteRank(_floats(params.get("values", ()), "FiniteRank values"))
    elif kind == "Tabulated":
        if tail is None:
            raise ValueError("Tabulated models require a tail envelope")
        family = Tabulated(_floats(params.get("prefix", ()), "Tabulated prefix"), tail)
        tail = None
    else:
        family = Expression(str(params.get("formula", "")))

    d_scale = spec.get("d_scale")
    if d_scale and not isinstance(d_scale, str):
        raise ValueError(f"d_scale must be a formula, got {d_scale!r}")
    return EigenModel(family=family, d_scale=exprdsl.parse(d_scale) if d_scale else None, declared_tail=tail)
