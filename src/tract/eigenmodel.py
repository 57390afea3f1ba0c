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

Every family answers arrays of indices only: ``values(d, j)`` and
``log_values(d, j)`` take an int64 index array j and return the unscaled
values and their logarithms (unclamped where the family can be); d is an
int, or an int array of shape (m, 1) broadcast against j.  It also
provides its ``envelope`` (an analytic bound, or None), its ``rank`` (None
when infinite) and ``d_free`` (whether it ignores d).  The three closed
forms are their exact tail form: every one of those answers comes from the
form.  Callers read these attributes; no code outside this module
dispatches on the family.  A single eigenvalue is a one-element array call,
so every search, count and sum reads the same values.

An optional per-dimension scale factor c_d (a closed-form expression in d)
multiplies every family.  Under the normalized error criterion the scale
cancels algebraically, which this module exploits so normalized ratios are
bit-identical with and without it.

Linear values (``eigenvalues``, ``ratios``, a tail's ``bound_array``) clamp
below at ``MIN_POSITIVE``, so no count divides by an underflowed zero.  The
criterion sums read logarithms: their terms from ``log_ratios`` and their tail
bound from the ``log_scale`` of ``ratio_envelope``, both less the same ln CRI_d.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Union

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
    "ratio_envelope",
    "validate",
    "ensure_valid",
    "ValidationReport",
    "Violation",
]

MIN_POSITIVE = 1e-300


class ErrorCriterion(enum.Enum):
    """Absolute or normalized error criterion; fixes CRI_d in {1, lambda(d,1)}."""

    ABS = "ABS"
    NOR = "NOR"

    @classmethod
    def parse(cls, text: str) -> "ErrorCriterion":
        try:
            return cls[str(text).upper()]
        except KeyError:
            raise ValueError(f"criterion must be ABS or NOR, got {text!r}") from None


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def _require_finite(obj) -> None:
    """ValueError naming the first constructor field of obj that is not a finite number."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.init and not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__} {f.name} must be finite, got {value!r}")


class _Family:
    """What a family provides when it has nothing more specific to say."""

    rank: int | None = None  # finite support, if any
    envelope: "TailEnvelope | None" = None  # analytic bound on the unscaled values
    d_free: bool = True  # lambda(d, j) does not depend on d

    def log_values(self, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
        """ln lambda without the d-scale."""
        return np.log(self.values(d, j))


@dataclass(frozen=True)
class _ClosedForm(_Family):
    """A family that is its own exact envelope; its values and logarithms are
    the form's, so deep-tail logarithms stay exact where the values underflow."""

    envelope: "TailEnvelope" = field(init=False, compare=False, repr=False)

    def _set_envelope(self, form: "TailForm") -> None:
        object.__setattr__(self, "envelope", TailEnvelope(form, 1, exact=True))

    def values(self, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
        return self.envelope.form.value_array(j)

    def log_values(self, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
        return self.envelope.form.log_value(j)


@dataclass(frozen=True)
class PolyDecay(_ClosedForm):
    a: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if not (self.a > 0 and self.alpha > 0):
            raise ValueError("PolyDecay requires a > 0 and alpha > 0")
        self._set_envelope(PowerLawTail(self.a, self.alpha))


@dataclass(frozen=True)
class ExpDecay(_ClosedForm):
    a: float = 1.0
    b: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if not (self.a > 0 and self.b > 0 and self.gamma > 0):
            raise ValueError("ExpDecay requires a, b, gamma > 0")
        self._set_envelope(StretchedExpTail(self.a, self.b, self.gamma))


@dataclass(frozen=True)
class Geometric(_ClosedForm):
    a: float = 1.0
    r: float = 0.5

    def __post_init__(self):
        _require_finite(self)
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

    def values(self, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
        j = np.asarray(j)
        if np.any(j > self.rank):
            raise BeyondRankError(int(np.min(d)), int(j.max()), self.rank)
        return self._table[j - 1]


@dataclass(frozen=True)
class Tabulated(_Family):
    prefix: tuple[float, ...]
    continuation: "TailEnvelope"
    _table: np.ndarray = field(init=False, compare=False, repr=False)
    # The continuation from where it gives the values: exact, past the prefix.
    envelope: "TailEnvelope" = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.prefix:
            raise ValueError("Tabulated requires a non-empty prefix")
        if any(not (v > 0) or not math.isfinite(v) for v in self.prefix):
            raise ValueError("Tabulated eigenvalues must be positive and finite")
        # A multiset, as FiniteRank: lambda(d, 1) is the largest entry, and
        # the continuation must not rise above the smallest one.
        prefix = tuple(sorted(self.prefix, reverse=True))
        j = len(prefix) + 1
        first = float(self.continuation.bound_array(j))
        if first > prefix[-1]:
            raise ValueError(
                f"Tabulated continuation at j={j} ({first!r}) "
                f"exceeds the last prefix entry {prefix[-1]!r}"
            )
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "_table", np.asarray(prefix, dtype=float))
        object.__setattr__(self, "envelope", self.continuation._replace(exact=True).shifted(j))

    def _split(self, j: np.ndarray, head, tail) -> np.ndarray:
        """head(prefix entries) inside the prefix, tail(j) past it."""
        j = np.asarray(j)
        out = np.empty(j.shape, dtype=float)
        inside = j <= len(self.prefix)
        out[inside] = head(self._table[j[inside] - 1])
        out[~inside] = tail(j[~inside])
        return out

    def values(self, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
        return self._split(j, np.asarray, self.continuation.bound_array)

    def log_values(self, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
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

    def values(self, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
        return _clamped(self.tree, d, j, "formula produced negative eigenvalue")


def _clamped(tree: exprdsl.Expr, d, j, negative: str) -> np.ndarray:
    """A formula over d and j, clamped below at MIN_POSITIVE.  An error names
    the smallest failing d, as a loop over d would; within a d the walk goes first."""
    try:
        out = exprdsl.compile_array(tree)(d, j)
    except EvalDomainError as exc:
        earlier = np.reshape(d, -1) < exc.d
        if earlier.any():
            _clamped(tree, d[earlier], j, negative)
        raise
    if (out < 0).any():
        first = np.flatnonzero(out < 0)[0]
        dd, jj = (np.broadcast_to(a, out.shape).reshape(-1)[first] for a in (d, j))
        raise EvalDomainError(negative, d=int(dd), j=int(jj))
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
        _require_finite(self)
        if not (self.scale > 0 and self.beta > 0):
            raise ValueError("PowerLaw tail requires scale > 0 and beta > 0")

    def value_array(self, j: np.ndarray) -> np.ndarray:
        return self.scale * np.asarray(j, dtype=float) ** -self.beta

    def log_value(self, j):
        return math.log(self.scale) - self.beta * np.log(np.asarray(j, dtype=float))


@dataclass(frozen=True)
class GeometricTail:
    scale: float
    ratio: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.scale > 0 and 0 < self.ratio < 1):
            raise ValueError("Geometric tail requires scale > 0 and ratio in (0, 1)")

    def value_array(self, j: np.ndarray) -> np.ndarray:
        with np.errstate(under="ignore"):
            return self.scale * self.ratio ** np.asarray(j, dtype=float)

    def log_value(self, j):
        return math.log(self.scale) + np.asarray(j, dtype=float) * math.log(self.ratio)

    @property
    def stretched(self) -> tuple[float, float]:
        """(rate, power) of the same decay written as scale * exp(-rate j**power)."""
        return -math.log(self.ratio), 1.0


@dataclass(frozen=True)
class StretchedExpTail:
    scale: float
    rate: float
    power: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.scale > 0 and self.rate > 0 and self.power > 0):
            raise ValueError("StretchedExp tail requires scale, rate, power > 0")

    def value_array(self, j: np.ndarray) -> np.ndarray:
        with np.errstate(under="ignore"):
            return self.scale * np.exp(-self.rate * np.asarray(j, dtype=float) ** self.power)

    def log_value(self, j):
        with np.errstate(over="ignore"):
            return math.log(self.scale) - self.rate * np.asarray(j, dtype=float) ** self.power

    @property
    def stretched(self) -> tuple[float, float]:
        return self.rate, self.power


TailForm = Union[PowerLawTail, GeometricTail, StretchedExpTail]


class TailEnvelope(NamedTuple):
    """An analytic upper bound e**log_factor * form(j) on lambda(d, j) for
    j >= valid_from.

    ``exact`` marks envelopes that coincide with the sequence (closed-form
    families are their own envelope; a tabulated model equals its declared
    envelope beyond the prefix).  Exact envelopes are two-sided and can
    therefore certify divergence, not just convergence.  ``log_factor`` is
    kept apart from the form, so the bound's scale is read as its logarithm
    ``log_scale`` even where the factor itself is past the double range.
    """

    form: TailForm
    valid_from: int = 1
    exact: bool = False
    log_factor: float = 0.0

    @property
    def log_scale(self) -> float:
        """ln of the bound's scale: ln form.scale + log_factor."""
        return math.log(self.form.scale) + self.log_factor

    def bound_array(self, j: np.ndarray) -> np.ndarray:
        return np.maximum(self.form.value_array(j) * math.exp(self.log_factor), MIN_POSITIVE)

    def shifted(self, valid_from: int) -> "TailEnvelope":
        return self._replace(valid_from=max(self.valid_from, valid_from))


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
        return _ratios_d_free(self, ErrorCriterion.ABS)  # under ABS the ratios are the eigenvalues

    def scale_at(self, d: int | np.ndarray) -> float | np.ndarray:
        """c_d at an int d, or over an int array of d; clamped like any eigenvalue."""
        if self.d_scale is None:
            return 1.0
        c = _clamped(self.d_scale, d, 1, "d_scale produced a negative factor")
        return float(c) if c.ndim == 0 else c


def support(model: EigenModel, d: int) -> int | None:
    """Finite rank of the spectrum for dimension d, or None if infinite."""
    return model.family.rank


def eigenvalues(model: EigenModel, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
    """lambda(d, j) over an index array, clamped below at MIN_POSITIVE."""
    vals = model.family.values(d, np.asarray(j)) * model.scale_at(d)
    return np.maximum(vals, MIN_POSITIVE)


def eigenvalue(model: EigenModel, d: int, j: int) -> float:
    """One-element view of :func:`eigenvalues`."""
    if d < 1 or j < 1:
        raise ValueError(f"d and j must be >= 1, got d={d}, j={j}")
    return float(eigenvalues(model, d, np.array([j], dtype=np.int64))[0])


def cri(model: EigenModel, d: int, criterion: ErrorCriterion) -> float:
    """CRI_d: 1 under ABS, lambda(d, 1) under NOR."""
    if criterion is ErrorCriterion.ABS:
        return 1.0
    return eigenvalue(model, d, 1)


def ratios(model: EigenModel, d: int | np.ndarray, j: np.ndarray, criterion: ErrorCriterion) -> np.ndarray:
    """lambda(d, j) / CRI_d over an index array.

    Under NOR the per-dimension scale cancels algebraically, so it is left
    out of both numerator and denominator; the result is bit-identical for
    scaled and unscaled variants of the same family.  The lead lambda(d, 1)
    comes from the same family call, last, as in :func:`log_ratios`.
    """
    if criterion is ErrorCriterion.ABS:
        return eigenvalues(model, d, j)
    vals = np.maximum(model.family.values(d, np.append(j, 1)), MIN_POSITIVE)
    return vals[..., :-1] / vals[..., -1:]


def _ratios_d_free(model: EigenModel, criterion: ErrorCriterion) -> bool:
    """True when lambda(d, j)/CRI_d does not depend on d: the family ignores
    d, and a d-scale is absent or, under NOR, cancels against CRI_d."""
    return model.family.d_free and (model.d_scale is None or criterion is ErrorCriterion.NOR)


def ratio(model: EigenModel, d: int, j: int, criterion: ErrorCriterion) -> float:
    """One-element view of :func:`ratios`."""
    return float(ratios(model, d, np.array([j], dtype=np.int64), criterion)[0])


def log_ratios(model: EigenModel, d: int | np.ndarray, j: np.ndarray, criterion: ErrorCriterion) -> np.ndarray:
    """ln(lambda(d, j)/CRI_d) without underflow saturation (closed forms)."""
    if criterion is ErrorCriterion.NOR:
        # One family call; the lead lambda(d, 1) goes last, so an invalid
        # index in j is still the one an error names.
        logs = model.family.log_values(d, np.append(j, 1))
        return logs[..., :-1] - logs[..., -1:]
    logs = model.family.log_values(d, np.asarray(j))
    if model.d_scale is not None:
        return logs + np.log(model.scale_at(d))
    return logs


def log_ratio(model: EigenModel, d: int, j: int, criterion: ErrorCriterion) -> float:
    """Scalar counterpart of :func:`log_ratios`."""
    return float(log_ratios(model, d, np.asarray([j], dtype=np.int64), criterion)[0])


def ratio_envelope(
    model: EigenModel, d: int, criterion: ErrorCriterion, start: int = 1
) -> TailEnvelope | None:
    """Envelope on the normalized sequence lambda(d, j)/CRI_d for j >= start,
    or None when the model has none (downstream certification is then
    heuristic).

    It is the family's own envelope (closed forms are exact; a Tabulated
    model is exact past its prefix), else the declared tail.  Its
    ``log_factor`` gains what :func:`log_ratios` adds to the family's logs:
    -ln lambda(d, 1) under NOR, where the d-scale cancels against CRI_d and
    is left out of both, and ln c_d under ABS.
    """
    env = model.family.envelope or model.declared_tail
    if env is None:
        return None
    if criterion is ErrorCriterion.NOR:
        shift = -float(model.family.log_values(d, np.ones(1, dtype=np.int64))[0])
    else:
        shift = float(np.log(model.scale_at(d)))
    return env.shifted(start)._replace(log_factor=env.log_factor + shift)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class Violation(NamedTuple):
    kind: str  # nonfinite | increase | envelope | eval-domain
    d: int
    j: int
    detail: str


class ValidationReport(NamedTuple):
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


def probe_indices(j_probe: int) -> np.ndarray:
    """Dense prefix of 512 indices plus a logarithmic grid up to j_probe."""
    dense = 512
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
    # A declared envelope must dominate the values it does not give itself:
    # an Expression's from its onset, a Tabulated prefix from the onset of
    # its continuation.  Its grid runs to ten times the onset.
    fam = model.family
    env = fam.continuation if isinstance(fam, Tabulated) else model.declared_tail
    grid = np.empty(0, dtype=np.int64)
    if env is not None:
        grid = probe_indices(10 * env.valid_from)
        grid = grid[grid >= env.valid_from]
        if isinstance(fam, Tabulated):
            grid = grid[grid <= len(fam.prefix)]
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
        for pos in np.flatnonzero(nxt > vals):
            jj = int(indices[pos])
            violations.append(
                Violation(
                    "increase",
                    d,
                    jj + 1,
                    f"lambda(d,{jj + 1})={nxt[pos]!r} > lambda(d,{jj})={vals[pos]!r}",
                )
            )
        if grid.size:
            values = eigenvalues(model, d, grid)
            bounds = env._replace(log_factor=env.log_factor + math.log(model.scale_at(d))).bound_array(grid)
            for pos in np.flatnonzero(values > bounds * (1 + 1e-12)):
                violations.append(
                    Violation(
                        "envelope",
                        d,
                        int(grid[pos]),
                        f"lambda={values[pos]!r} exceeds envelope {bounds[pos]!r}",
                    )
                )
    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        d_max=d_max,
        j_probe=j_probe,
        probed_indices=int(idx.size),
    )


def ensure_valid(model: EigenModel, d_max: int = 8, j_probe: int = 10_000) -> ValidationReport:
    report = validate(model, d_max, j_probe)
    if not report.ok:
        raise ValidationFailedError(report)
    return report
