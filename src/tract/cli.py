"""Command-line front end.

Subcommands: validate, complexity, criterion, classify, exponent,
verify-bounds.  A JSON config file describes the model, the error
criterion, the evaluation limits, and the output target; analysis
parameters arrive as flags.  Results go to stdout or, with --out, to a
file written atomically next to a manifest that records the config hash,
limits, tool version and command parameters; JSON results embed the same
manifest.

Exit codes: 0 success, 1 validation or evaluation failure, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import typing
from dataclasses import asdict, dataclass

from . import __version__
from .boundcheck import _THEOREM_SUMS, BoundSpec, verify_domination
from .classifier import (
    Limits,
    Notion,
    classify_all,
    exponent_bracket,
)
from .complexity import ComplexityQuery, count_oracle, info_complexity
from .criteria import CriterionParams, evaluate_sum, sup_over_d, uwt_statistic
from .eigenmodel import EigenModel, ErrorCriterion, _cast, model_from_config, validate
from .errors import ConfigError, TractError, ValidationFailedError
from .summation import SumEvaluation, SumStatus

__all__ = ["main", "load_config", "RunConfig"]


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def _field_casts(cls) -> dict[str, type]:
    """Field name -> cast of a config dataclass, by annotation ("float | None" casts with float)."""
    return {name: (typing.get_args(hint) or (hint,))[0] for name, hint in typing.get_type_hints(cls).items()}


_LIMIT_CASTS = _field_casts(Limits)
_PARAM_CASTS = _field_casts(CriterionParams)
# analysis supplies defaults for the subcommand flags; flags win on conflict
_ANALYSIS_KEYS = (*_PARAM_CASTS, "sum", "n", "d", "eps", "notion", "theorem", "eps_grid", "d_grid")


@dataclass(frozen=True)
class RunConfig:
    model: EigenModel
    criterion: ErrorCriterion
    limits: Limits
    output_format: str
    output_path: str | None
    analysis: dict
    digest: str  # sha256 of the canonical config text


def _strict_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def parse_config(raw: dict, source: str = "<config>") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be an object")
    _strict_keys(raw, ("model", "criterion", "limits", "analysis", "output"), source)
    if "model" not in raw:
        raise ConfigError(f"{source}: missing 'model'")
    try:
        model = model_from_config(raw["model"])
    except (ValueError, TractError) as exc:
        raise ConfigError(f"{source}: model: {exc}") from exc
    try:
        criterion = ErrorCriterion.parse(raw.get("criterion", "ABS"))
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    limits_cfg = raw.get("limits", {})
    if not isinstance(limits_cfg, dict):
        raise ConfigError(f"{source}: limits must be an object")
    _strict_keys(limits_cfg, _LIMIT_CASTS, f"{source}: limits")
    try:
        limits = Limits(**{name: _cast(_LIMIT_CASTS[name], v, f"limits.{name}") for name, v in limits_cfg.items()})
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError(f"{source}: output must be an object")
    _strict_keys(output, ("format", "path"), f"{source}: output")
    fmt = output.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"{source}: output format must be json or csv")

    analysis = raw.get("analysis", {})
    if not isinstance(analysis, dict):
        raise ConfigError(f"{source}: analysis must be an object")
    _strict_keys(analysis, _ANALYSIS_KEYS, f"{source}: analysis")

    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return RunConfig(
        model=model,
        criterion=criterion,
        limits=limits,
        output_format=fmt,
        output_path=output.get("path"),
        analysis=analysis,
        digest=digest,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config(raw, source=path)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dump_json(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _manifest(cfg: RunConfig, command: str, params: dict) -> dict:
    return {
        "config_sha256": cfg.digest,
        "limits": cfg.limits.as_dict(),
        "version": __version__,
        "command": command,
        "parameters": _jsonable(params),
    }


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tract-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, command: str, params: dict, body: dict | str, path: str | None) -> None:
    """Write ``body`` to stdout, or to ``path`` next to ``path.manifest.json``.

    A dict body is JSON and embeds the manifest; a str body (CSV) is written
    as given.  Both manifests come from the same ``params``.
    """
    manifest = _manifest(cfg, command, params)
    text = _dump_json({**body, "manifest": manifest}) if isinstance(body, dict) else body
    if path is None:
        sys.stdout.write(text)
        return
    _atomic_write(path, text)
    _atomic_write(path + ".manifest.json", _dump_json(manifest))


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Grid parsing
# ---------------------------------------------------------------------------


def _parse_eps_grid(text: str) -> list[float]:
    """lo:hi:count, log-spaced inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("eps grid must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (lo > 0 and hi > 0 and count >= 1):
        raise ConfigError("eps grid needs positive endpoints and count")
    if count == 1:
        return [lo]
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(count)]


def _parse_d_grid(text: str) -> list[int]:
    """lo:hi inclusive integer range."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError("d grid must be lo:hi")
    lo, hi = int(parts[0]), int(parts[1])
    if not (1 <= lo <= hi):
        raise ConfigError("d grid needs 1 <= lo <= hi")
    return list(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(cfg: RunConfig, args) -> int:
    report = validate(cfg.model, d_max=args.d_max, j_probe=args.j_probe)
    payload = {
        "ok": report.ok,
        "d_max": report.d_max,
        "j_probe": report.j_probe,
        "violations": [asdict(v) for v in report.violations],
    }
    params = {"d_max": args.d_max, "j_probe": args.j_probe}
    _emit(cfg, "validate", params, payload, args.out or cfg.output_path)
    return 0 if report.ok else 1


def _cmd_complexity(cfg: RunConfig, args) -> int:
    eps = _setting(cfg, args, "eps", float)
    d = _setting(cfg, args, "d", int)
    if eps is not None and d is not None:
        query = ComplexityQuery(d, eps, cfg.criterion)
        params = {"d": d, "eps": eps}
        if args.oracle:
            params["oracle_j_max"] = args.oracle_j_max
            res = count_oracle(cfg.model, query, min(cfg.limits.j_max, args.oracle_j_max))
        else:
            res = info_complexity(cfg.model, query, cfg.limits.j_max)
        payload = {"d": d, "eps": eps, "criterion": cfg.criterion.value, **res.as_dict()}
        _emit(cfg, "complexity", params, payload, args.out or cfg.output_path)
        return 0
    eps_grid = _setting(cfg, args, "eps_grid", str)
    d_grid = _setting(cfg, args, "d_grid", str)
    if not eps_grid or not d_grid:
        raise ConfigError("complexity needs --eps/--d or --eps-grid/--d-grid")
    eps_values = _parse_eps_grid(eps_grid)
    d_values = _parse_d_grid(d_grid)
    points = [(d, eps) for d in d_values for eps in eps_values]

    def solve(point):
        d, eps = point
        res = info_complexity(cfg.model, ComplexityQuery(d, eps, cfg.criterion), cfg.limits.j_max)
        return [d, repr(eps), cfg.criterion.value, res.n, res.capped]

    rows = [solve(p) for p in points]
    text = _csv_text(["d", "eps", "criterion", "n", "capped"], rows)
    _emit(cfg, "complexity", {"eps_grid": eps_grid, "d_grid": d_grid},
          text, args.out or cfg.output_path)
    return 0


def _setting(cfg: RunConfig, args, name: str, cast=None):
    """Flag value if given, else the config's analysis default."""
    value = getattr(args, name, None)
    if value is None:
        value = cfg.analysis.get(name)
    if value is None or cast is None:
        return value
    return _cast(cast, value, f"analysis.{name}")


def _params_from_args(cfg: RunConfig, args) -> CriterionParams:
    return CriterionParams(**{name: _setting(cfg, args, name, cast) for name, cast in _PARAM_CASTS.items()})


def _cmd_criterion(cfg: RunConfig, args) -> int:
    params = _params_from_args(cfg, args)
    sum_kind = _setting(cfg, args, "sum", str)
    if sum_kind is None:
        raise ConfigError("criterion needs --sum (or analysis.sum in the config)")
    run_params = {"sum": sum_kind, **params.as_dict()}
    path = args.out or cfg.output_path
    if sum_kind in ("uwt-alg", "uwt-exp"):
        n = _setting(cfg, args, "n", int)
        if n is None:
            raise ConfigError("uwt statistics need --n")
        run_params["n"] = n
        case = "ALG" if sum_kind == "uwt-alg" else "EXP"
        value = uwt_statistic(cfg.model, n, params.k or 1, case, cfg.criterion)
        payload = {"statistic": value, "n": n, "k": params.k or 1, "case": case}
        _emit(cfg, "criterion", run_params, payload, path)
        return 0
    if args.sup:
        d_max = args.d_max or cfg.limits.d_max
        run_params.update(sup=True, d_max=d_max)
        sweep = sup_over_d(cfg.model, sum_kind, params, cfg.criterion, d_max, tol=cfg.limits.tol)
        rows = [[d + 1, repr(v)] for d, v in enumerate(sweep.values)]
        _emit(cfg, "criterion", run_params, _csv_text(["d", "value"], rows), path)
        sys.stderr.write(
            f"sup_observed={sweep.sup_observed!r} trend={sweep.trend} status={sweep.status.value}\n"
        )
        return 0
    d = _setting(cfg, args, "d", int)
    d = 1 if d is None else d
    run_params["d"] = d
    ev = evaluate_sum(cfg.model, sum_kind, d, params, cfg.criterion, tol=cfg.limits.tol)
    _emit(cfg, "criterion", run_params, {**ev.as_dict(), "d": d, "sum": sum_kind}, path)
    return 0


def _cmd_classify(cfg: RunConfig, args) -> int:
    report = classify_all(cfg.model, cfg.criterion, cfg.limits)
    payload = {**report, "criterion": cfg.criterion.value}
    _emit(cfg, "classify", {}, payload, args.out or cfg.output_path)
    return 0


_NOTION_FLAGS = {
    "alg-spt": ("SPT", "ALG"),
    "exp-spt": ("SPT", "EXP"),
    "alg-qpt": ("QPT", "ALG"),
    "exp-qpt": ("QPT", "EXP"),
}


def _cmd_exponent(cfg: RunConfig, args) -> int:
    notion_name = _setting(cfg, args, "notion", str)
    if notion_name not in _NOTION_FLAGS:
        raise ConfigError(f"exponent needs --notion from {sorted(_NOTION_FLAGS)}")
    kind, case = _NOTION_FLAGS[notion_name]
    notion = Notion(kind, case, cfg.criterion)
    bracket = exponent_bracket(cfg.model, notion, cfg.limits)
    payload = {"notion": notion.name, **bracket.as_dict()}
    _emit(cfg, "exponent", {"notion": notion_name}, payload, args.out or cfg.output_path)
    return 0


def _cmd_verify_bounds(cfg: RunConfig, args) -> int:
    theorem_name = _setting(cfg, args, "theorem", str)
    if theorem_name is None:
        raise ConfigError("verify-bounds needs --theorem")
    theorem = theorem_name.upper()
    if theorem not in _THEOREM_SUMS:
        raise ConfigError(f"unknown theorem {theorem_name!r}")
    params = _params_from_args(cfg, args)
    sum_kind = _THEOREM_SUMS[theorem]
    sweep = sup_over_d(
        cfg.model, sum_kind, params, cfg.criterion, min(cfg.limits.d_max, 32),
        tol=cfg.limits.tol,
    )
    if sweep.status is not SumStatus.CERTIFIED:
        sys.stderr.write(
            f"cannot certify the bound constant: sweep status {sweep.status.value}\n"
        )
        return 1
    if not cfg.model.d_independent:
        sys.stderr.write(
            f"note: the constant is a finite supremum over d <= {sweep.d_max}; "
            "for d-dependent models treat the bound as evidence, not proof\n"
        )
    constant = SumEvaluation(
        value=sweep.upper,
        terms_used=0,
        remainder_bound=0.0,
        status=SumStatus.CERTIFIED,
        note=f"certified upper bound on the sup over d<=d_max of {sum_kind}",
    )
    spec = BoundSpec(theorem=theorem, params=params, constant=constant, criterion=cfg.criterion)
    eps_grid = _setting(cfg, args, "eps_grid", str) or "1e-6:1e-1:25"
    d_grid = _setting(cfg, args, "d_grid", str) or "1:16"
    eps_values = _parse_eps_grid(eps_grid)
    d_values = _parse_d_grid(d_grid)
    report = verify_domination(cfg.model, spec, eps_values, d_values, cfg.limits.j_max)
    rows = [[r.d, repr(r.eps), r.oracle_n, r.bound, r.ok] for r in report.rows]
    text = _csv_text(["d", "eps", "oracle_n", "bound", "ok"], rows)
    run_params = {"theorem": theorem, "eps_grid": eps_grid, "d_grid": d_grid, **params.as_dict()}
    path = args.out or cfg.output_path
    if path:
        _emit(cfg, "verify-bounds", run_params, text, path)
    # The summary always goes to stdout, with the same manifest as the file.
    _emit(cfg, "verify-bounds", run_params, {**report.summary(), "constant": sweep.sup_observed}, None)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tract",
        description="Tractability analysis for eigenvalue sequence models",
    )
    parser.add_argument("--version", action="version", version=f"tract {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def param_flags(p):
        for name, cast in _PARAM_CASTS.items():
            p.add_argument(f"--{name.replace('_', '-')}", type=cast, default=None)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output file (atomic write + manifest)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: evaluation is sequential, so N "
                            "changes neither the output bytes nor the speed")

    p = sub.add_parser("validate", help="check positivity/monotonicity/envelopes")
    common(p)
    p.add_argument("--d-max", type=int, default=8)
    p.add_argument("--j-probe", type=int, default=10_000)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("complexity", help="information complexity n(eps, d)")
    common(p)
    p.add_argument("--eps", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--eps-grid", help="lo:hi:count (log spaced)")
    p.add_argument("--d-grid", help="lo:hi")
    p.add_argument("--oracle", action="store_true", help="use the counting oracle")
    p.add_argument("--oracle-j-max", type=int, default=100_000)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("criterion", help="evaluate one criterion sum or statistic")
    common(p)
    p.add_argument("--sum",
                   help="spt-alg|spt-exp|pt-alg|pt-exp|qpt-alg|qpt-exp|wt-alg|wt-exp|uwt-alg|uwt-exp")
    p.add_argument("--d", type=int)
    p.add_argument("--sup", action="store_true", help="sweep d = 1..d_max (CSV)")
    p.add_argument("--d-max", type=int)
    param_flags(p)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_criterion)

    p = sub.add_parser("classify", help="decide every tractability notion")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("exponent", help="bracket a tractability exponent")
    common(p)
    p.add_argument("--notion", choices=sorted(_NOTION_FLAGS))
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("verify-bounds", help="check explicit bounds against the oracle")
    common(p)
    p.add_argument("--theorem", choices=["t1", "t2", "t3", "T1", "T2", "T3"])
    p.add_argument("--eps-grid")
    p.add_argument("--d-grid")
    param_flags(p)
    p.set_defaults(func=_cmd_verify_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    try:
        return args.func(cfg, args)
    except (ConfigError, ValueError) as exc:  # bad analysis parameters surface like config errors
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except ValidationFailedError as exc:
        sys.stderr.write(f"validation failed: {exc}\n")
        return 1
    except TractError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
