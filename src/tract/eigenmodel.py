"""Eigenvalue sequence models and their tail envelopes.

A model produces, for every dimension d, a non-increasing positive sequence
lambda(d, 1) >= lambda(d, 2) >= ... -> 0.  Everything downstream (complexity,
criterion sums, classification, bound checks) consumes eigenvalues solely
through this module.

Families
--------
PolyDecay   lambda(d, j) = a * j**-alpha
ExpDecay    lambda(d, j) = a * exp(-b * j**gamma)
Geometric   lambda(d, j) = a * r**j
FiniteRank  an explicit finite multiset, stored non-increasing; indices past
            the rank signal BeyondRank
Tabulated   an explicit prefix continued by its mandatory tail envelope
Expression  a formula in d and j (see :mod:`tract.exprdsl`)

Every family provides ``value(d, j)``, ``values(d, j)`` and
``log_values(d, j)`` (unscaled, unclamped where the family can be), its
``envelope`` (an analytic bound, or None), its ``rank`` (None when infinite)
and ``d_free`` (whether it ignores d).  The three closed forms are their
exact tail form: every one of those answers comes from the form.  Callers
read these attributes; no code outside this module dispatches on the family.

An optional per-dimension scale factor c_d (a closed-form expression in d)
multiplies every family.  Under the normalized error criterion the scale
cancels algebraically, which this module exploits so normalized ratios are
bit-identical with and without it.

Values below ``MIN_POSITIVE`` are clamped to that sentinel so underflow to
zero cannot corrupt ratios such as (CRI_d / lambda)**(s/2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import exprdsl
from .errors import BeyondRankError, EvalDomainError, ValidationFailedError

__all__ = [
    "MIN_POSITIVE",
    "ErrorCriterion",
    "PolyDecay",
    "ExpDecay",
    "Geometric",
    "FiniteRank",
    "Tabulated",
    "Expression",
    "PowerLawTail",
    "GeometricTail",
    "StretchedExpTail",
    "TailEnvelope",
    "EigenModel",
    "eigenvalue",
    "eigenvalues",
    "ratio",
    "ratios",
    "log_ratio",
    "log_ratios",
    "cri",
    "support",
    "tail_bound",
    "ratio_envelope",
    "validate",
    "ensure_valid",
    "ValidationReport",
    "Violation",
    "model_from_config",
]

MIN_POSITIVE = 1e-300


class ErrorCriterion(enum.Enum):
    """Absolute or normalized error criterion; fixes CRI_d in {1, lambda(d,1)}."""

    ABS = "ABS"
    NOR = "NOR"

    @classmethod
    def parse(cls, text: str) -> "ErrorCriterion":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"criterion must be ABS or NOR, got {text!r}") from None


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


class _Family:
    """What a family provides when it has nothing more specific to say."""

    rank: int | None = None  # finite support, if any
    envelope: "TailEnvelope | None" = None  # analytic bound on the unscaled values
    d_free: bool = True  # lambda(d, j) does not depend on d

    def log_values(self, d: int, j: np.ndarray) -> np.ndarray:
        """ln lambda without the d-scale."""
        return np.log(self.values(d, j))


@dataclass(frozen=True)
class _ClosedForm(_Family):
    """A family that is its own exact envelope; its values and logarithms are
    the form's, so deep-tail logarithms stay exact where the values underflow."""

    envelope: "TailEnvelope" = field(init=False, compare=False, repr=False)

    def _set_envelope(self, form: "TailForm") -> None:
        object.__setattr__(self, "envelope", TailEnvelope(form, 1, exact=True))

    def value(self, d: int, j: int) -> float:
        return self.envelope.form.value(j)

    def values(self, d: int, j: np.ndarray) -> np.ndarray:
        return self.envelope.form.value_array(j)

    def log_values(self, d: int, j: np.ndarray) -> np.ndarray:
        return self.envelope.form.log_value(j)


@dataclass(frozen=True)
class PolyDecay(_ClosedForm):
    a: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if not (self.a > 0 and self.alpha > 0):
            raise ValueError("PolyDecay requires a > 0 and alpha > 0")
        self._set_envelope(PowerLawTail(self.a, self.alpha))


@dataclass(frozen=True)
class ExpDecay(_ClosedForm):
    a: float = 1.0
    b: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.gamma > 0):
            raise ValueError("ExpDecay requires a, b, gamma > 0")
        self._set_envelope(StretchedExpTail(self.a, self.b, self.gamma))


@dataclass(frozen=True)
class Geometric(_ClosedForm):
    a: float = 1.0
    r: float = 0.5

    def __post_init__(self):
        if not (self.a > 0 and 0 < self.r < 1):
            raise ValueError("Geometric requires a > 0 and r in (0, 1)")
        self._set_envelope(GeometricTail(self.a, self.r))


@dataclass(frozen=True)
class FiniteRank(_Family):
    entries: tuple[float, ...]
    _table: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("FiniteRank requires at least one eigenvalue")
        if any(not (v > 0) or not math.isfinite(v) for v in self.entries):
            raise ValueError("FiniteRank eigenvalues must be positive and finite")
        # A multiset: answers must not depend on input order, and the
        # initial error lambda(d, 1) must be the largest entry.
        object.__setattr__(self, "entries", tuple(sorted(self.entries, reverse=True)))
        object.__setattr__(self, "_table", np.asarray(self.entries, dtype=float))

    @property
    def rank(self) -> int:
        return len(self.entries)

    def value(self, d: int, j: int) -> float:
        if j > self.rank:
            raise BeyondRankError(d, j, self.rank)
        return self.entries[j - 1]

    def values(self, d: int, j: np.ndarray) -> np.ndarray:
        j = np.asarray(j)
        if np.any(j > self.rank):
            raise BeyondRankError(d, int(j.max()), self.rank)
        return self._table[j - 1]


@dataclass(frozen=True)
class Tabulated(_Family):
    prefix: tuple[float, ...]
    continuation: "TailEnvelope"
    _table: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.prefix:
            raise ValueError("Tabulated requires a non-empty prefix")
        if any(not (v > 0) or not math.isfinite(v) for v in self.prefix):
            raise ValueError("Tabulated eigenvalues must be positive and finite")
        # A multiset, as FiniteRank: lambda(d, 1) is the largest entry, and
        # the continuation must not rise above the smallest one.
        prefix = tuple(sorted(self.prefix, reverse=True))
        j = len(prefix) + 1
        if self.continuation.bound(j) > prefix[-1]:
            raise ValueError(
                f"Tabulated continuation at j={j} ({self.continuation.bound(j)!r}) "
                f"exceeds the last prefix entry {prefix[-1]!r}"
            )
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "_table", np.asarray(prefix, dtype=float))

    @property
    def envelope(self) -> "TailEnvelope":
        return self.continuation

    def value(self, d: int, j: int) -> float:
        if j <= len(self.prefix):
            return self.prefix[j - 1]
        return self.continuation.bound(j)

    def _split(self, j: np.ndarray, head, tail) -> np.ndarray:
        """head(prefix entries) inside the prefix, tail(j) past it."""
        j = np.asarray(j)
        out = np.empty(j.shape, dtype=float)
        inside = j <= len(self.prefix)
        out[inside] = head(self._table[j[inside] - 1])
        out[~inside] = tail(j[~inside])
        return out

    def values(self, d: int, j: np.ndarray) -> np.ndarray:
        return self._split(j, np.asarray, self.continuation.bound_array)

    def log_values(self, d: int, j: np.ndarray) -> np.ndarray:
        # Past the prefix the logarithm comes from the form, unclamped.
        return self._split(j, np.log, self.continuation.form.log_value)


@dataclass(frozen=True)
class Expression(_Family):
    formula: str
    tree: exprdsl.Expr = field(init=False, compare=False)
    d_free: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "tree", exprdsl.parse(self.formula))
        object.__setattr__(self, "d_free", "d" not in exprdsl.variables_used(self.tree))

    def value(self, d: int, j: int) -> float:
        v = exprdsl.evaluate(self.tree, d, j)
        if v < 0 or not math.isfinite(v):
            raise EvalDomainError(f"formula produced invalid eigenvalue {v!r}", d=d, j=j)
        # Exact zeros are indistinguishable from underflow here; both clamp.
        return max(v, MIN_POSITIVE)

    def values(self, d: int, j: np.ndarray) -> np.ndarray:
        out = exprdsl.compile_array(self.tree)(float(d), np.asarray(j, dtype=float))
        if np.any(out < 0):
            bad = int(np.asarray(j)[np.flatnonzero(out < 0)[0]])
            raise EvalDomainError("formula produced negative eigenvalue", d=d, j=bad)
        return np.maximum(out, MIN_POSITIVE)


Family = Union[PolyDecay, ExpDecay, Geometric, FiniteRank, Tabulated, Expression]


# ---------------------------------------------------------------------------
# Tail envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerLawTail:
    scale: float
    beta: float

    def __post_init__(self):
        if not (self.scale > 0 and self.beta > 0):
            raise ValueError("PowerLaw tail requires scale > 0 and beta > 0")

    def value(self, j: float) -> float:
        return self.scale * float(j) ** -self.beta

    def value_array(self, j: np.ndarray) -> np.ndarray:
        return self.scale * np.asarray(j, dtype=float) ** -self.beta

    def log_value(self, j):
        return math.log(self.scale) - self.beta * np.log(np.asarray(j, dtype=float))

    def scaled(self, factor: float) -> "PowerLawTail":
        return PowerLawTail(self.scale * factor, self.beta)


@dataclass(frozen=True)
class GeometricTail:
    scale: float
    ratio: float

    def __post_init__(self):
        if not (self.scale > 0 and 0 < self.ratio < 1):
            raise ValueError("Geometric tail requires scale > 0 and ratio in (0, 1)")

    def value(self, j: float) -> float:
        try:
            return self.scale * self.ratio ** float(j)
        except OverflowError:
            return 0.0

    def value_array(self, j: np.ndarray) -> np.ndarray:
        with np.errstate(under="ignore"):
            return self.scale * self.ratio ** np.asarray(j, dtype=float)

    def log_value(self, j):
        return math.log(self.scale) + np.asarray(j, dtype=float) * math.log(self.ratio)

    @property
    def stretched(self) -> tuple[float, float]:
        """(rate, power) of the same decay written as scale * exp(-rate j**power)."""
        return -math.log(self.ratio), 1.0

    def scaled(self, factor: float) -> "GeometricTail":
        return GeometricTail(self.scale * factor, self.ratio)


@dataclass(frozen=True)
class StretchedExpTail:
    scale: float
    rate: float
    power: float

    def __post_init__(self):
        if not (self.scale > 0 and self.rate > 0 and self.power > 0):
            raise ValueError("StretchedExp tail requires scale, rate, power > 0")

    def value(self, j: float) -> float:
        try:
            return self.scale * math.exp(-self.rate * float(j) ** self.power)
        except OverflowError:
            return 0.0

    def value_array(self, j: np.ndarray) -> np.ndarray:
        with np.errstate(under="ignore"):
            return self.scale * np.exp(-self.rate * np.asarray(j, dtype=float) ** self.power)

    def log_value(self, j):
        with np.errstate(over="ignore"):
            return math.log(self.scale) - self.rate * np.asarray(j, dtype=float) ** self.power

    @property
    def stretched(self) -> tuple[float, float]:
        return self.rate, self.power

    def scaled(self, factor: float) -> "StretchedExpTail":
        return StretchedExpTail(self.scale * factor, self.rate, self.power)


TailForm = Union[PowerLawTail, GeometricTail, StretchedExpTail]


@dataclass(frozen=True)
class TailEnvelope:
    """An analytic upper bound on lambda(d, j) for j >= valid_from.

    ``exact`` marks envelopes that coincide with the sequence (closed-form
    families are their own envelope; a tabulated model equals its declared
    envelope beyond the prefix).  Exact envelopes are two-sided and can
    therefore certify divergence, not just convergence.
    """

    form: TailForm
    valid_from: int = 1
    exact: bool = False

    def bound(self, j: float) -> float:
        return max(self.form.value(j), MIN_POSITIVE)

    def bound_array(self, j: np.ndarray) -> np.ndarray:
        return np.maximum(self.form.value_array(j), MIN_POSITIVE)

    def scaled(self, factor: float) -> "TailEnvelope":
        return TailEnvelope(self.form.scaled(factor), self.valid_from, self.exact)

    def shifted(self, valid_from: int) -> "TailEnvelope":
        return TailEnvelope(self.form, max(self.valid_from, valid_from), self.exact)


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenModel:
    family: Family
    d_scale: exprdsl.Expr | None = None  # closed-form c_d > 0; must not use j
    declared_tail: "TailEnvelope | None" = None  # user-declared envelope (Expression models)

    def __post_init__(self):
        if self.d_scale is not None and "j" in exprdsl.variables_used(self.d_scale):
            raise ValueError("d_scale must be a formula in d only")
        if self.declared_tail is not None and isinstance(self.family, FiniteRank):
            raise ValueError("FiniteRank spectra are finite; a tail envelope is meaningless")

    @property
    def kind(self) -> str:
        return type(self.family).__name__

    @property
    def d_independent(self) -> bool:
        """True when lambda(d, j) does not depend on d at all."""
        return self.d_scale is None and self.family.d_free

    def scale_at(self, d: int) -> float:
        if self.d_scale is None:
            return 1.0
        c = exprdsl.evaluate(self.d_scale, d, 1)
        if c < 0 or not math.isfinite(c):
            raise EvalDomainError(f"d_scale produced invalid factor {c!r}", d=d)
        # A positive closed form that underflows clamps like any eigenvalue.
        return max(c, MIN_POSITIVE)


def _clamp(v: float) -> float:
    return v if v >= MIN_POSITIVE else MIN_POSITIVE


def support(model: EigenModel, d: int) -> int | None:
    """Finite rank of the spectrum for dimension d, or None if infinite."""
    return model.family.rank


def eigenvalue(model: EigenModel, d: int, j: int) -> float:
    """lambda(d, j), clamped below at MIN_POSITIVE."""
    if d < 1 or j < 1:
        raise ValueError(f"d and j must be >= 1, got d={d}, j={j}")
    return _clamp(model.family.value(d, j) * model.scale_at(d))


def eigenvalues(model: EigenModel, d: int, j: np.ndarray) -> np.ndarray:
    """Vectorised lambda(d, j) over an index array."""
    vals = model.family.values(d, np.asarray(j)) * model.scale_at(d)
    return np.maximum(vals, MIN_POSITIVE)


def cri(model: EigenModel, d: int, criterion: ErrorCriterion) -> float:
    """CRI_d: 1 under ABS, lambda(d, 1) under NOR."""
    if criterion is ErrorCriterion.ABS:
        return 1.0
    return eigenvalue(model, d, 1)


def ratio(model: EigenModel, d: int, j: int, criterion: ErrorCriterion) -> float:
    """lambda(d, j) / CRI_d.

    Under NOR the per-dimension scale cancels algebraically, so it is left
    out of both numerator and denominator; the result is bit-identical for
    scaled and unscaled variants of the same family.
    """
    if criterion is ErrorCriterion.ABS:
        return eigenvalue(model, d, j)
    lead = _clamp(model.family.value(d, 1))
    return _clamp(model.family.value(d, j)) / lead


def ratios(model: EigenModel, d: int, j: np.ndarray, criterion: ErrorCriterion) -> np.ndarray:
    if criterion is ErrorCriterion.ABS:
        return eigenvalues(model, d, j)
    lead = _clamp(model.family.value(d, 1))
    vals = np.maximum(model.family.values(d, np.asarray(j)), MIN_POSITIVE)
    return vals / lead


def log_ratios(model: EigenModel, d: int, j: np.ndarray, criterion: ErrorCriterion) -> np.ndarray:
    """ln(lambda(d, j)/CRI_d) without underflow saturation (closed forms)."""
    if criterion is ErrorCriterion.NOR:
        # One family call; the lead lambda(d, 1) goes last, so an invalid
        # index in j is still the one an error names.
        logs = model.family.log_values(d, np.append(j, 1))
        return logs[:-1] - logs[-1]
    logs = model.family.log_values(d, np.asarray(j))
    if model.d_scale is not None:
        return logs + math.log(model.scale_at(d))
    return logs


def log_ratio(model: EigenModel, d: int, j: int, criterion: ErrorCriterion) -> float:
    """Scalar counterpart of :func:`log_ratios`."""
    return float(log_ratios(model, d, np.asarray([j], dtype=np.int64), criterion)[0])


def tail_bound(model: EigenModel, d: int, start: int = 1) -> TailEnvelope | None:
    """The tightest known envelope on lambda(d, j) valid for j >= start.

    Closed-form families are their own (exact) envelope.  Tabulated models
    return their declared continuation.  Expression models return a declared
    envelope if present, else None, which downgrades downstream certification
    to heuristic.
    """
    scale = model.scale_at(d)
    env = model.family.envelope or model.declared_tail
    if env is None:
        return None
    if scale != 1.0:
        env = env.scaled(scale)
    return env.shifted(start)


def ratio_envelope(
    model: EigenModel, d: int, criterion: ErrorCriterion, start: int = 1
) -> TailEnvelope | None:
    """Envelope on the normalized sequence lambda(d, j)/CRI_d for j >= start.

    For Tabulated models the returned envelope starts past the prefix, where
    it is exact by construction.
    """
    fam = model.family
    if isinstance(fam, Tabulated):
        env = fam.continuation.shifted(max(start, len(fam.prefix) + 1))
        env = TailEnvelope(env.form, env.valid_from, exact=True)
        if criterion is ErrorCriterion.NOR:
            return env.scaled(1.0 / _clamp(fam.value(d, 1)))
        return env.scaled(model.scale_at(d))
    if criterion is ErrorCriterion.ABS:
        return tail_bound(model, d, start)
    # The d-scale cancels against CRI_d, so it is left out of both.
    env = fam.envelope or model.declared_tail
    if env is None:
        return None
    return env.shifted(start).scaled(1.0 / _clamp(fam.value(d, 1)))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # nonpositive | nonfinite | increase | envelope | eval-domain
    d: int
    j: int
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    d_max: int
    j_probe: int
    probed_indices: int

    def summary(self) -> str:
        if self.ok:
            return f"pass (d <= {self.d_max}, {self.probed_indices} indices probed up to {self.j_probe})"
        first = self.violations[0]
        return (
            f"{len(self.violations)} violation(s); first: {first.kind} at "
            f"(d={first.d}, j={first.j}): {first.detail}"
        )


def probe_indices(j_probe: int, dense: int = 512) -> np.ndarray:
    """Dense prefix plus a logarithmic grid up to j_probe."""
    head = np.arange(1, min(dense, j_probe) + 1, dtype=np.int64)
    if j_probe <= dense:
        return head
    count = max(2, int(math.ceil(64 * math.log10(j_probe / dense))) + 1)
    tail = np.unique(
        np.round(np.geomspace(dense, j_probe, num=count)).astype(np.int64)
    )
    return np.unique(np.concatenate([head, tail]))


def validate(model: EigenModel, d_max: int = 8, j_probe: int = 10_000) -> ValidationReport:
    """Check positivity, monotone non-increase, and envelope domination.

    Closed forms are monotone analytically; the probe still runs so formula
    mistakes (Expression) and bad tables surface with a (d, j) witness.
    """
    if d_max < 1 or j_probe < 1:
        raise ValueError("d_max and j_probe must be >= 1")
    violations: list[Violation] = []
    idx = probe_indices(j_probe)
    for d in range(1, d_max + 1):
        cap = support(model, d)
        indices = idx[idx <= cap] if cap is not None else idx
        if indices.size == 0:
            continue
        # Each probed index is compared with its successor.
        succ = np.minimum(indices + 1, cap) if cap is not None else indices + 1
        try:
            vals = eigenvalues(model, d, indices)
            nxt = eigenvalues(model, d, succ)
        except EvalDomainError as exc:
            violations.append(Violation("eval-domain", d, exc.j or 0, str(exc)))
            continue
        for pos in np.flatnonzero(~np.isfinite(vals)):
            violations.append(Violation("nonfinite", d, int(indices[pos]), f"value {vals[pos]!r}"))
        for pos in np.flatnonzero(vals <= 0):
            violations.append(Violation("nonpositive", d, int(indices[pos]), f"value {vals[pos]!r}"))
        bad = np.flatnonzero(nxt > vals)
        for pos in bad:
            jj = int(indices[pos])
            violations.append(
                Violation(
                    "increase",
                    d,
                    jj + 1,
                    f"lambda(d,{jj + 1})={nxt[pos]!r} > lambda(d,{jj})={vals[pos]!r}",
                )
            )
        env = _declared_envelope(model)
        if env is not None:
            j0 = env.valid_from
            hi = max(10 * j0, min(j_probe, 10 * j0))
            grid = probe_indices(hi)
            grid = grid[grid >= j0]
            if cap is not None:
                grid = grid[grid <= cap]
            if isinstance(model.family, Tabulated):
                grid = grid[grid <= len(model.family.prefix)]
            if grid.size:
                values = eigenvalues(model, d, grid)
                bounds = env.scaled(model.scale_at(d)).bound_array(grid)
                for pos in np.flatnonzero(values > bounds * (1 + 1e-12)):
                    violations.append(
                        Violation(
                            "envelope",
                            d,
                            int(grid[pos]),
                            f"lambda={values[pos]!r} exceeds envelope {bounds[pos]!r}",
                        )
                    )
    report = ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        d_max=d_max,
        j_probe=j_probe,
        probed_indices=int(idx.size),
    )
    return report


def _declared_envelope(model: EigenModel) -> TailEnvelope | None:
    fam = model.family
    if isinstance(fam, Tabulated):
        return fam.continuation
    return model.declared_tail


def ensure_valid(model: EigenModel, d_max: int = 8, j_probe: int = 10_000) -> ValidationReport:
    report = validate(model, d_max, j_probe)
    if not report.ok:
        raise ValidationFailedError(report)
    return report


# ---------------------------------------------------------------------------
# Config ingestion
# ---------------------------------------------------------------------------

_TAIL_FIELDS = {
    "PowerLaw": ("A", "beta"),
    "Geometric": ("A", "r"),
    "StretchedExp": ("A", "b", "gamma"),
}


def _tail_from_config(spec: dict) -> TailEnvelope:
    unknown = set(spec) - {"form", "valid_from"} - set(_TAIL_FIELDS.get(spec.get("form", ""), ()))
    if "form" not in spec:
        raise ValueError("tail envelope needs a 'form' field")
    form_name = spec["form"]
    if form_name not in _TAIL_FIELDS:
        raise ValueError(f"unknown tail form {form_name!r}")
    if unknown:
        raise ValueError(f"unknown tail key {sorted(unknown)[0]!r}")
    missing = [k for k in _TAIL_FIELDS[form_name] if k not in spec]
    if missing:
        raise ValueError(f"tail form {form_name} missing field {missing[0]!r}")
    valid_from = int(spec.get("valid_from", 1))
    if form_name == "PowerLaw":
        beta = float(spec["beta"])
        if beta <= 1:
            raise ValueError("declared PowerLaw tails require beta > 1")
        form: TailForm = PowerLawTail(float(spec["A"]), beta)
    elif form_name == "Geometric":
        form = GeometricTail(float(spec["A"]), float(spec["r"]))
    else:
        form = StretchedExpTail(float(spec["A"]), float(spec["b"]), float(spec["gamma"]))
    return TailEnvelope(form, valid_from, exact=False)


_PARAM_FIELDS = {
    "PolyDecay": ("a", "alpha"),
    "ExpDecay": ("a", "b", "gamma"),
    "Geometric": ("a", "r"),
    "FiniteRank": ("values",),
    "Tabulated": ("prefix",),
    "Expression": ("formula",),
}


def model_from_config(spec: dict) -> EigenModel:
    """Build a model from the CLI's JSON description (strict keys)."""
    if not isinstance(spec, dict):
        raise ValueError("model description must be an object")
    unknown = set(spec) - {"kind", "params", "tail", "d_scale"}
    if unknown:
        raise ValueError(f"unknown model key {sorted(unknown)[0]!r}")
    kind = spec.get("kind")
    if kind not in _PARAM_FIELDS:
        raise ValueError(f"unknown model kind {kind!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("model params must be an object")
    unknown = set(params) - set(_PARAM_FIELDS[kind])
    if unknown:
        raise ValueError(f"unknown {kind} parameter {sorted(unknown)[0]!r}")
    tail = _tail_from_config(spec["tail"]) if spec.get("tail") is not None else None

    if kind == "PolyDecay":
        family: Family = PolyDecay(float(params.get("a", 1.0)), float(params.get("alpha", 1.0)))
    elif kind == "ExpDecay":
        family = ExpDecay(
            float(params.get("a", 1.0)), float(params.get("b", 1.0)), float(params.get("gamma", 1.0))
        )
    elif kind == "Geometric":
        family = Geometric(float(params.get("a", 1.0)), float(params.get("r", 0.5)))
    elif kind == "FiniteRank":
        family = FiniteRank(tuple(float(v) for v in params.get("values", ())))
    elif kind == "Tabulated":
        if tail is None:
            raise ValueError("Tabulated models require a tail envelope")
        family = Tabulated(tuple(float(v) for v in params.get("prefix", ())), tail)
        tail = None
    else:
        family = Expression(str(params.get("formula", "")))

    d_scale = exprdsl.parse(spec["d_scale"]) if spec.get("d_scale") else None
    return EigenModel(family=family, d_scale=d_scale, declared_tail=tail)
