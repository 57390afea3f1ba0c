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

Every family answers logarithms of arrays of indices only:
``log_values(d, j)`` takes an int64 index array j and returns ln of the
unscaled values, also where the values lie past the double range; d is an
int, or an int array of shape (m, 1) broadcast against j.  ``log_decimal(d,
j)`` gives one of them at the precision of the current :mod:`decimal`
context, for the tie rule of :func:`compare_ratios` and the linear views
:func:`eigenvalues`.  A family also provides its ``envelope`` (an analytic
bound, or None), its ``rank`` (None when infinite) and ``d_free`` (whether
it ignores d).  The three closed
forms are their exact tail form: every one of those answers comes from the
form.  Callers read these attributes; no code outside this module
dispatches on the family.  A single eigenvalue is a one-element array call,
so every search, count and sum reads the same values.

An optional per-dimension scale factor c_d (a closed-form expression in d)
multiplies every family.  Under the normalized error criterion the scale
cancels algebraically, which this module exploits so normalized ratios are
bit-identical with and without it.

The spectrum is read in logarithms only.  The criterion sums take their
terms from ``log_ratios`` and their tail bound from the ``log_scale`` of
``ratio_envelope``, both less the same ln CRI_d; the counts compare
``log_ratios`` with ln t through :func:`compare_ratios`; ``eigenvalues`` and
``ratios`` are the exp of ``log_ratios``, so 0 below the double range.  An
Expression's logarithms, and ln c_d, come from :func:`tract.exprdsl.log_array`.
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
    "compare_ratios",
    "cri",
    "ratio_envelope",
    "validate",
    "ensure_valid",
    "ValidationReport",
    "Violation",
]


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


@dataclass(frozen=True)
class _ClosedForm(_Family):
    """A family that is its own exact envelope; its logarithms are the form's."""

    envelope: "TailEnvelope" = field(init=False, compare=False, repr=False)

    def _set_envelope(self, form: "TailForm") -> None:
        object.__setattr__(self, "envelope", TailEnvelope(form, 1, exact=True))

    def log_values(self, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
        return self.envelope.form.log_value(j)

    def log_decimal(self, d: int, j: int):
        return self.envelope.form.log_decimal(j)


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
        object.__setattr__(self, "_table", np.log(self.entries))

    @property
    def rank(self) -> int:
        return len(self.entries)

    def log_values(self, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
        j = np.asarray(j)
        if np.any(j > self.rank):
            raise BeyondRankError(int(np.min(d)), int(j.max()), self.rank)
        return self._table[j - 1]

    def log_decimal(self, d: int, j: int):
        return _decimal(self.entries[j - 1]).ln()


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
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "_table", np.log(prefix))
        j = len(prefix) + 1
        first = self.log_values(1, np.array([j]))
        if _signs(first, prefix[-1], lambda _: self.log_decimal(1, j))[0] > 0:
            raise ValueError(
                f"Tabulated continuation at j={j} ({math.exp(first[0]):.15g}) "
                f"exceeds the last prefix entry {prefix[-1]!r}"
            )
        object.__setattr__(self, "envelope", self.continuation._replace(exact=True).shifted(j))

    def log_values(self, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
        # Past the prefix the logarithm comes from the continuation, factor included.
        j = np.asarray(j)
        out = np.empty(j.shape, dtype=float)
        inside = j <= len(self.prefix)
        out[inside] = self._table[j[inside] - 1]
        out[~inside] = self.continuation.form.log_value(j[~inside]) + self.continuation.log_factor
        return out

    def log_decimal(self, d: int, j: int):
        if j > len(self.prefix):
            return self.continuation.form.log_decimal(j) + _decimal(self.continuation.log_factor)
        return _decimal(self.prefix[j - 1]).ln()


@dataclass(frozen=True)
class Expression(_Family):
    formula: str
    tree: exprdsl.Expr = field(init=False, compare=False)
    d_free: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "tree", exprdsl.parse(self.formula))
        object.__setattr__(self, "d_free", "d" not in exprdsl.variables_used(self.tree))

    def log_values(self, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
        return exprdsl.log_array(self.tree, d, j, "formula produced negative eigenvalue")

    def log_decimal(self, d: int, j: int):
        return exprdsl.log_decimal(self.tree, d, j)


def _decimal(x: float):
    """x as a Decimal; :mod:`decimal` is loaded only where a tie needs it."""
    from decimal import Decimal

    return Decimal(x)


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

    def log_value(self, j):
        return math.log(self.scale) - self.beta * np.log(np.asarray(j, dtype=float))

    def log_decimal(self, j: int):
        return _decimal(self.scale).ln() - _decimal(self.beta) * _decimal(j).ln()


@dataclass(frozen=True)
class GeometricTail:
    scale: float
    ratio: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.scale > 0 and 0 < self.ratio < 1):
            raise ValueError("Geometric tail requires scale > 0 and ratio in (0, 1)")

    def log_value(self, j):
        return math.log(self.scale) + np.asarray(j, dtype=float) * math.log(self.ratio)

    def log_decimal(self, j: int):
        return _decimal(self.scale).ln() + j * _decimal(self.ratio).ln()

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

    def log_value(self, j):
        with np.errstate(over="ignore"):
            return math.log(self.scale) - self.rate * np.asarray(j, dtype=float) ** self.power

    def log_decimal(self, j: int):
        return _decimal(self.scale).ln() - _decimal(self.rate) * _decimal(j) ** _decimal(self.power)

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
        if self.declared_tail is not None and self.family.rank is not None:
            raise ValueError("FiniteRank spectra are finite; a tail envelope is meaningless")
        if self.declared_tail is not None and self.family.envelope is not None:
            raise ValueError(f"{self.kind} has an envelope of its own; a declared tail would go unread")

    @property
    def kind(self) -> str:
        return type(self.family).__name__

    def log_d_scale(self, d: int | np.ndarray) -> float | np.ndarray:
        """ln c_d at an int d, or over an int array of d."""
        if self.d_scale is None:
            return 0.0
        return exprdsl.log_array(self.d_scale, d, 1, "d_scale produced a negative factor")


def eigenvalues(model: EigenModel, d: int | np.ndarray, j: np.ndarray) -> np.ndarray:
    """lambda(d, j) over an index array, each rounded to a double from its
    value at 40 digits.

    :func:`log_ratios` under ABS checks the indices and the domain.  The exp
    of its double logarithm can be several ulps off, enough to flip an exact
    tie such as sqrt(lambda(d, 3)) = r sqrt(lambda(d, 1)) on Geometric(a, r),
    so each value is read from the family's ``log_decimal`` instead.
    """
    log_ratios(model, d, j, ErrorCriterion.ABS)
    pairs = np.broadcast(np.asarray(d), np.asarray(j))
    values = np.empty(pairs.shape)
    with _digits40():
        values.flat = [float(_log_decimal(model, int(dd), int(jj), ErrorCriterion.ABS).exp()) for dd, jj in pairs]
    return values


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
    """lambda(d, j) / CRI_d over an index array: the exp of :func:`log_ratios`."""
    return np.exp(log_ratios(model, d, j, criterion))


def _ratios_d_free(model: EigenModel, criterion: ErrorCriterion) -> bool:
    """True when lambda(d, j)/CRI_d does not depend on d: the family ignores
    d, and a d-scale is absent or, under NOR, cancels against CRI_d."""
    return model.family.d_free and (model.d_scale is None or criterion is ErrorCriterion.NOR)


def ratio(model: EigenModel, d: int, j: int, criterion: ErrorCriterion) -> float:
    """One-element view of :func:`ratios`."""
    return float(ratios(model, d, np.array([j], dtype=np.int64), criterion)[0])


def log_ratios(model: EigenModel, d: int | np.ndarray, j: np.ndarray, criterion: ErrorCriterion) -> np.ndarray:
    """ln(lambda(d, j)/CRI_d) over an index array.

    Under NOR the per-dimension scale cancels algebraically, so it is left
    out of both numerator and denominator; the result is bit-identical for
    scaled and unscaled variants of the same family.
    """
    if criterion is ErrorCriterion.NOR:
        # One family call; the lead lambda(d, 1) goes last, so an invalid
        # index in j is still the one an error names.
        logs = model.family.log_values(d, np.append(j, 1))
        return logs[..., :-1] - logs[..., -1:]
    logs = model.family.log_values(d, np.asarray(j))
    if model.d_scale is not None:
        return logs + model.log_d_scale(d)
    return logs


def log_ratio(model: EigenModel, d: int, j: int, criterion: ErrorCriterion) -> float:
    """Scalar counterpart of :func:`log_ratios`."""
    return float(log_ratios(model, d, np.asarray([j], dtype=np.int64), criterion)[0])


def compare_ratios(model: EigenModel, d: int, j: np.ndarray, criterion: ErrorCriterion, t: float) -> np.ndarray:
    """The sign of lambda(d, j)/CRI_d - t over an index array, by :func:`_signs`
    from :func:`log_ratios` and the family's ``log_decimal``; every count reads it."""
    j = np.asarray(j)
    logs = log_ratios(model, d, j, criterion)

    def exact(pos: int):
        return _log_decimal(model, d, int(j[pos]), criterion)

    if criterion is ErrorCriterion.ABS or abs(t - 1.0) > 2 * _NEAR:
        return _signs(logs, t, exact)
    # Under NOR the ratio at j = 1 is 1 exactly, and only a t near 1 brings
    # its log, 0, near ln t: its sign is that of 1 - t, with no digits.
    lead = j == 1
    sign = _signs(np.where(lead, math.inf, logs), t, exact)
    sign[lead] = np.sign(1.0 - t)
    return sign


def _log_decimal(model: EigenModel, d: int, j: int, criterion: ErrorCriterion):
    """ln(lambda(d, j)/CRI_d) at the precision of the current decimal context."""
    log = model.family.log_decimal(d, j)
    if criterion is ErrorCriterion.NOR:
        return log - model.family.log_decimal(d, 1)
    return log if model.d_scale is None else log + exprdsl.log_decimal(model.d_scale, d, 1)


def _digits40():
    """A decimal context of 40 digits over the whole exponent range, for a with block."""
    import decimal

    return decimal.localcontext(decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN))


# The rounding of a logarithm here is a few ulps of its operands, which lie
# below 2**11 in magnitude wherever a value is near a double t (ln t, and ln
# of a double scale, lie within +-745): 1e-10 is far beyond that error.
_NEAR = 1e-10


def _signs(logs: np.ndarray, t: float, exact) -> np.ndarray:
    """The sign of e**logs - t, t >= 0 a double: 1 above, 0 at, -1 below.
    Within _NEAR of ln t it compares exact(pos), ln of the value at 40
    digits, with ln t at 40 digits, and a gap below 1e-30 is a tie: ties
    follow the real numbers whichever way the doubles round."""
    if not t > 0:
        return (logs > -math.inf).astype(np.int8)
    gap = logs - math.log(t)
    sign = np.sign(gap)
    near = np.flatnonzero(np.abs(gap) <= _NEAR)
    if near.size:
        import decimal

        with _digits40():
            log_t = decimal.Decimal(t).ln()
            for pos in near:
                gap40 = exact(pos) - log_t
                sign[pos] = 0 if abs(gap40) < decimal.Decimal("1e-30") else 1 if gap40 > 0 else -1
    return sign


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
        shift = float(model.log_d_scale(d))
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
    """Check that lambda(d, j) is in the double range, non-increasing and
    under its declared envelope, on the logarithms of one :func:`log_ratios`
    read per d: the probed indices, each one's successor and the envelope's
    grid.  An EvalDomainError in the read is an eval-domain violation.

    Closed forms are monotone analytically; the probe still runs so formula
    mistakes (Expression) and bad tables surface with a (d, j) witness.
    """
    if d_max < 1 or j_probe < 1:
        raise ValueError("d_max and j_probe must be >= 1")
    violations: list[Violation] = []
    idx = probe_indices(j_probe)
    fam = model.family
    indices = idx if fam.rank is None else idx[idx <= fam.rank]
    succ = indices + 1 if fam.rank is None else np.minimum(indices + 1, fam.rank)
    # A declared envelope must dominate the values it does not give itself:
    # an Expression's from its onset, a Tabulated prefix from the onset of
    # its continuation.  Its grid runs to ten times the onset.
    env = fam.continuation if isinstance(fam, Tabulated) else model.declared_tail
    grid = np.empty(0, dtype=np.int64)
    if env is not None:
        grid = probe_indices(10 * env.valid_from)
        grid = grid[grid >= env.valid_from]
        if isinstance(fam, Tabulated):
            grid = grid[grid <= len(fam.prefix)]
    read = np.sort(np.concatenate([indices, succ, grid]))
    read = read[np.append(True, read[1:] != read[:-1])]
    at, after, on_grid = (np.searchsorted(read, part) for part in (indices, succ, grid))
    for d in range(1, d_max + 1):
        try:
            logs = log_ratios(model, d, read, ErrorCriterion.ABS)
        except EvalDomainError as exc:
            violations.append(Violation("eval-domain", d, exc.j or 0, str(exc)))
            continue
        here, nxt, enveloped = logs[at], logs[after], logs[on_grid]
        for pos in np.flatnonzero(~(here <= exprdsl._LOG_DOUBLE_MAX)):
            detail = f"ln lambda={float(here[pos])!r} is not <= ln DBL_MAX={exprdsl._LOG_DOUBLE_MAX!r}"
            violations.append(Violation("nonfinite", d, int(indices[pos]), detail))
        for pos in np.flatnonzero(nxt > here):
            jj = int(indices[pos])
            detail = f"ln lambda(d,{jj + 1})={float(nxt[pos])!r} > ln lambda(d,{jj})={float(here[pos])!r}"
            violations.append(Violation("increase", d, jj + 1, detail))
        if grid.size:
            bounds = env.form.log_value(grid) + env.log_factor + model.log_d_scale(d)
            for pos in np.flatnonzero(enveloped > bounds + 1e-12):
                detail = f"ln lambda={float(enveloped[pos])!r} exceeds ln envelope {float(bounds[pos])!r}"
                violations.append(Violation("envelope", d, int(grid[pos]), detail))
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
