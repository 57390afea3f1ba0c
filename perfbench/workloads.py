"""Seeded op sets for the three workloads, with the checks each op must pass.

Every workload is a list of slots.  A slot has ``VARIANTS`` fixed variants
(parameters drawn from a generator seeded by the slot and variant index), and
the workload seed picks one variant per slot and shuffles the op order.  So
the same seed gives the same inputs, another seed gives other inputs of the
same shape and similar cost, and the pool of every op any seed can produce is
finite: ``perfbench/digests.json`` holds the recorded output digest of each.

cli-mix         one fresh ``tract`` process per op (start-up, import, CLI glue).
oracle-grid     in-process complexity queries answered by both routes.
certified-sums  in-process criterion sums at tight tolerance, deep ones included.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

VARIANTS = 4
WORKLOADS = ("cli-mix", "oracle-grid", "certified-sums")
SUM_TOL = 1e-10  # tight: the certified-sums ops run at the library default
EXTENSION_SLACK = 1e-12  # relative float-rounding allowance, as in acceptance c6

HERE = os.path.dirname(os.path.abspath(__file__))
BOOTSTRAP = os.path.join(HERE, "tract_main.py")


@dataclass
class Op:
    """One unit of measured work.

    ``run`` returns the raw result, ``key`` maps it to the tuple (or bytes)
    whose digest is recorded, and ``check`` returns an error message or None.
    """

    name: str
    run: Callable[[], object]
    key: Callable[[object], object]
    check: Callable[[object], str | None] = lambda result: None
    group: str = ""  # ops sharing a group must produce identical keys


def digest(key: object) -> str:
    data = key if isinstance(key, bytes) else repr(key).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(list(parts))


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def _pick(seed: int | None, slots: list[Callable[[int], list[Op]]]) -> list[Op]:
    """One variant per slot (every variant when seed is None), shuffled by seed."""
    if seed is None:
        return [op for slot in slots for v in range(VARIANTS) for op in slot(v)]
    rng = np.random.default_rng(seed)
    ops = [op for slot in slots for op in slot(int(rng.integers(VARIANTS)))]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def build(workload: str, seed: int | None, workdir: str) -> list[Op]:
    """The op set for a seed; seed None gives every variant (the digest pool)."""
    if workload == "cli-mix":
        return _pick(seed, _cli_slots(workdir))
    if workload == "oracle-grid":
        return _pick(seed, _oracle_slots())
    if workload == "certified-sums":
        return _pick(seed, _sum_slots())
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

CLASSIFY_LIMITS = {"d_max": 8, "n_max": 10000}
CLI_TIMEOUT_S = 120


def _sorted_desc(rng, lo, hi, size) -> list[float]:
    return [round(float(v), 6) for v in np.sort(rng.uniform(lo, hi, size=size))[::-1]]


def _tabulated(rng, size) -> dict:
    """A Tabulated model config: a prefix continued by a steep power-law tail below it."""
    prefix = _sorted_desc(rng, 0.1, 1.0, size)
    beta = 8.0
    scale = prefix[-1] * 0.9 * (size + 1) ** beta
    return {"kind": "Tabulated", "params": {"prefix": prefix},
            "tail": {"form": "PowerLaw", "A": scale, "beta": beta, "valid_from": size + 1}}


# Parameters of the costly configs (Expression, d_scale, fast decay) vary in
# narrow ranges so that one seed's op set costs about what another's does.
CORPUS: dict[str, Callable] = {
    "poly-slow": lambda r: {"kind": "PolyDecay", "params": {"a": 1.0, "alpha": _u(r, 0.5, 0.9)}},
    "poly-fast": lambda r: {"kind": "PolyDecay", "params": {"a": _u(r, 0.5, 2.0), "alpha": _u(r, 2.0, 2.5)}},
    "exp-stretched": lambda r: {"kind": "ExpDecay",
                                "params": {"a": 1.0, "b": _u(r, 0.5, 2.0), "gamma": _u(r, 0.5, 0.6)}},
    "geometric": lambda r: {"kind": "Geometric", "params": {"a": _u(r, 0.5, 2.0), "r": _u(r, 0.2, 0.8)}},
    "finite-rank": lambda r: {"kind": "FiniteRank",
                              "params": {"values": _sorted_desc(r, 0.01, 1.0, int(r.integers(4, 33)))}},
    "tabulated": lambda r: _tabulated(r, 32),
    "expr-d": lambda r: {"kind": "Expression", "params": {"formula": f"exp(0-{_u(r, 1.0, 1.1)}*j/d)"}},
    "expr": lambda r: {"kind": "Expression", "params": {"formula": f"j^(0-{_u(r, 2.0, 2.2)})"}},
    "d-scaled": lambda r: {"kind": "PolyDecay", "params": {"a": 1.0, "alpha": _u(r, 2.0, 2.5)},
                           "d_scale": f"d^(0-{_u(r, 0.9, 1.1)})"},
}


def _write_config(workdir: str, name: str, config: dict) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, sort_keys=True)
    return path


def run_cli(argv: list[str], spans_path: str | None = None) -> tuple[int, bytes, bytes]:
    """Run one ``tract`` command through the benchmark's bootstrap."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(HERE), "src")
    env.pop("PERFBENCH_SPANS", None)
    if spans_path:
        env["PERFBENCH_SPANS"] = spans_path
    proc = subprocess.run([sys.executable, BOOTSTRAP, *argv], capture_output=True, env=env,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def _cli_op(name: str, argv: list[str], check: Callable[[bytes], str | None], group: str = "") -> Op:
    def verdict(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.decode(errors='replace').strip()[-300:]}"
        try:
            return check(out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc}"

    # Unlike in-process ops, ``run`` takes the span file of a traced run.
    return Op(name, lambda spans_path=None: run_cli(argv, spans_path), lambda r: r[1], verdict, group)


def _json_check(predicate: Callable[[dict], str | None]) -> Callable[[bytes], str | None]:
    return lambda out: predicate(json.loads(out))


def _classify_ok(report: dict) -> str | None:
    if report["inconsistencies"] != []:
        return f"inconsistencies {report['inconsistencies']}"
    if len(report["verdicts"]) != 12:
        return f"{len(report['verdicts'])} verdicts, expected 12"
    return None


def _csv_rows_check(header: list[str], rows: int) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        table = list(csv.reader(io.StringIO(out.decode())))
        if table[0] != header or len(table) != rows + 1:
            return f"expected {rows} rows under {header}, got {len(table) - 1}"
        return None

    return check


def _sup_check(d_max: int) -> Callable[[bytes], str | None]:
    rows_ok = _csv_rows_check(["d", "value"], d_max)

    def check(out: bytes) -> str | None:
        bad = rows_ok(out)
        if bad:
            return bad
        values = [float(row[1]) for row in list(csv.reader(io.StringIO(out.decode())))[1:]]
        return None if all(math.isfinite(v) and v > 0 for v in values) else "non-finite sup value"

    return check


def _bracket_ok(payload: dict) -> str | None:
    return None if 0.0 <= payload["lo"] <= payload["hi"] else f"bracket {payload['lo']}..{payload['hi']}"


def _bounds_ok(payload: dict) -> str | None:
    if payload.get("ok") is not True:
        return f"verify-bounds reported ok={payload.get('ok')} with {payload.get('violations')}"
    return None


def _cli_slots(workdir: str) -> list[Callable[[int], list[Op]]]:
    slots = []

    def classify_slot(index: int, family: str, criterion: str):
        def slot(v: int) -> list[Op]:
            model = CORPUS[family](_rng(1, index, v))
            cfg = _write_config(workdir, f"{family}.v{v}.{criterion}",
                                {"model": model, "criterion": criterion, "limits": CLASSIFY_LIMITS})
            base = f"classify/{family}.v{v}/{criterion}"
            return [
                _cli_op(f"{base}/t{threads}", ["classify", "--config", cfg, "--threads", str(threads)],
                        _json_check(_classify_ok), group=base)
                for threads in (1, 2)
            ]
        return slot

    for index, family in enumerate(CORPUS):
        for criterion in ("ABS", "NOR"):
            slots.append(classify_slot(index, family, criterion))

    def grid_slot(index: int, family: str, criterion: str, eps_lo: str):
        def slot(v: int) -> list[Op]:
            model = CORPUS[family](_rng(2, index, v))
            cfg = _write_config(workdir, f"grid-{family}.v{v}", {"model": model, "criterion": criterion})
            count = 20 + 2 * v
            return [_cli_op(f"complexity/{family}.v{v}/{criterion}",
                            ["complexity", "--config", cfg, "--eps-grid", f"{eps_lo}:1e-1:{count}",
                             "--d-grid", "1:16"],
                            _csv_rows_check(["d", "eps", "criterion", "n", "capped"], 16 * count))]
        return slot

    slots.append(grid_slot(0, "tabulated", "ABS", "1e-6"))
    slots.append(grid_slot(1, "expr-d", "NOR", "1e-3"))

    geo = {"kind": "Geometric", "params": {"a": 1.0, "r": 0.5}}
    exp = {"kind": "ExpDecay", "params": {"a": 1.0, "b": 2.0, "gamma": 1.0}}
    theorems = (
        ("t1", geo, lambda v: ["--tau2", "0.5", "--c-tilde", "1", "--tau1", "0", "--tau3", "0"]),
        ("t2", exp, lambda v: ["--tau", ("3", "3.5", "4", "5")[v]]),
        ("t3", exp, lambda v: ["--c", "1", "--s", ("1", "1.5", "2", "1")[v], "--t", ("1", "1", "1", "2")[v]]),
    )

    def bounds_slot(theorem: str, model: dict, flags: Callable[[int], list[str]]):
        def slot(v: int) -> list[Op]:
            cfg = _write_config(workdir, f"bounds-{theorem}", {"model": model, "limits": {"d_max": 16}})
            eps_lo = ("1e-6", "1e-5", "1e-7", "3e-6")[v]
            return [_cli_op(f"verify-bounds/{theorem}.v{v}",
                            ["verify-bounds", "--config", cfg, "--theorem", theorem, *flags(v),
                             "--eps-grid", f"{eps_lo}:1e-1:25", "--d-grid", "1:16"],
                            _json_check(_bounds_ok))]
        return slot

    for theorem, model, flags in theorems:
        slots.append(bounds_slot(theorem, model, flags))

    def sup_slot(index: int, family: str, sum_flags: list[str]):
        def slot(v: int) -> list[Op]:
            cfg = _write_config(workdir, f"sup-{family}.v{v}", {"model": CORPUS[family](_rng(3, index, v))})
            return [_cli_op(f"criterion-sup/{family}.v{v}",
                            ["criterion", "--config", cfg, *sum_flags, "--sup", "--d-max", "16"],
                            _sup_check(16))]
        return slot

    slots.append(sup_slot(0, "poly-fast", ["--sum", "spt-alg", "--tau", "1"]))
    slots.append(sup_slot(1, "exp-stretched", ["--sum", "wt-exp", "--c", "1", "--s", "1", "--t", "1"]))

    def exponent_slot(index: int, family: str, notion: str):
        def slot(v: int) -> list[Op]:
            cfg = _write_config(workdir, f"exponent-{family}.v{v}",
                                {"model": CORPUS[family](_rng(4, index, v))})
            return [_cli_op(f"exponent/{family}.v{v}/{notion}",
                            ["exponent", "--config", cfg, "--notion", notion], _json_check(_bracket_ok))]
        return slot

    slots.append(exponent_slot(0, "poly-fast", "alg-spt"))
    slots.append(exponent_slot(1, "exp-stretched", "exp-qpt"))
    return slots


# ---------------------------------------------------------------------------
# oracle-grid
# ---------------------------------------------------------------------------

QUERIES_PER_MODEL = 24


def _oracle_slots() -> list[Callable[[int], list[Op]]]:
    import tract
    from tract import (ComplexityQuery, EigenModel, ErrorCriterion, ExpDecay, Expression, FiniteRank,
                       Geometric, PolyDecay, PowerLawTail, Tabulated, TailEnvelope)
    from tract.exprdsl import parse

    def tabulated(rng, size):
        spec = _tabulated(rng, size)
        tail = spec["tail"]
        envelope = TailEnvelope(PowerLawTail(tail["A"], tail["beta"]), valid_from=tail["valid_from"])
        return EigenModel(Tabulated(tuple(spec["params"]["prefix"]), envelope)), 4 * size + 100

    # name -> rng -> (model, j_max for the counting route, (eps_lo, eps_hi)).
    # Sizes and j_max are fixed per slot, so the cost of a slot hardly
    # depends on the variant a seed picks.
    models = {
        "geometric": lambda r: (EigenModel(Geometric(_u(r, 0.5, 2.0), _u(r, 0.2, 0.9))), 4000, (0.01, 2.0)),
        "poly": lambda r: (EigenModel(PolyDecay(_u(r, 0.5, 2.0), _u(r, 1.0, 3.0))), 5000, (0.05, 2.0)),
        "exp": lambda r: (EigenModel(ExpDecay(_u(r, 0.5, 2.0), _u(r, 0.5, 2.0), _u(r, 0.5, 1.5))),
                          4000, (0.02, 2.0)),
        "finite-rank": lambda r: (EigenModel(FiniteRank(tuple(_sorted_desc(r, 0.01, 2.0, 32)))), 32,
                                  (0.005, 2.0)),
        "tabulated-tens": lambda r: (*tabulated(r, 40), (0.01, 2.0)),
        "tabulated-hundreds": lambda r: (*tabulated(r, 400), (0.01, 2.0)),
        "tabulated-thousands": lambda r: (*tabulated(r, 4000), (0.01, 2.0)),
        "expr-d": lambda r: (EigenModel(Expression(f"exp(0-{_u(r, 0.5, 2.0)}*j/d)")), 4000, (0.05, 2.0)),
        "expr": lambda r: (EigenModel(Expression(f"j^(0-{_u(r, 1.2, 2.5)})")), 5000, (0.05, 2.0)),
        "d-scaled": lambda r: (EigenModel(PolyDecay(1.0, _u(r, 1.0, 3.0)), d_scale=parse("1/d")),
                               5000, (0.05, 2.0)),
    }

    def query_op(label, model, j_max, d, eps, criterion):
        query = ComplexityQuery(d, eps, criterion)

        def both():
            # Called through the package so a traced run sees the calls.
            return tract.info_complexity(model, query), tract.count_oracle(model, query, j_max)

        def agree(result):
            search, count = result
            if (search.n, search.capped) != (count.n, count.capped):
                return f"search n={search.n} capped={search.capped}, count n={count.n} capped={count.capped}"
            return None

        return Op(f"query/{label}/d{d}/eps{eps!r}/{criterion.value}", both,
                  lambda r: (r[0].n, r[0].capped), agree)

    def validate_op(label, model):
        return Op(f"validate/{label}", lambda: tract.validate(model, d_max=8, j_probe=2048),
                  lambda r: (r.ok, len(r.violations)),
                  lambda r: None if r.ok else r.summary())

    def slot_for(index: int, name: str):
        def slot(v: int) -> list[Op]:
            rng = _rng(5, index, v)
            model, j_max, (lo, hi) = models[name](rng)
            label = f"{name}.v{v}"
            ops = [validate_op(label, model)]
            for q in range(QUERIES_PER_MODEL):
                d = int(rng.integers(1, 33))
                eps = float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
                criterion = ErrorCriterion.ABS if q % 2 == 0 else ErrorCriterion.NOR
                # Counting ranges of 1x..3x the slot's j_max spread the op
                # costs, so the latency quantiles do not sit between clusters.
                scan = j_max if name == "finite-rank" else j_max + 2 * j_max * q // (QUERIES_PER_MODEL - 1)
                ops.append(query_op(label, model, scan, d, eps, criterion))
            return ops
        return slot

    return [slot_for(i, name) for i, name in enumerate(models)]


# ---------------------------------------------------------------------------
# certified-sums
# ---------------------------------------------------------------------------


def _sum_slots() -> list[Callable[[int], list[Op]]]:
    import mpmath

    import tract
    from tract import (CriterionParams, EigenModel, ErrorCriterion, ExpDecay, Expression, FiniteRank,
                       Geometric, GeometricTail, PolyDecay, PowerLawTail, Tabulated, TailEnvelope)

    def tabulated(r):
        a, size = _u(r, 0.5, 2.0), int(r.integers(100, 401))
        prefix = tuple(a / (j * j) for j in range(1, size + 1))
        return EigenModel(Tabulated(prefix, TailEnvelope(PowerLawTail(a, 2.0), valid_from=size + 1)))

    def expr_tail(r):
        a, c = _u(r, 0.5, 2.0), _u(r, 0.3, 0.35)
        tail = TailEnvelope(GeometricTail(a, math.exp(-c)), valid_from=1)
        return EigenModel(Expression(f"{a}*exp(0-{c}*j)"), declared_tail=tail)

    # ExpDecay(gamma=1/2) carries the deep sums: about 7e5 terms for spt-exp
    # and pt-exp, and the 2e6-term budget for qpt-exp, where the chunk
    # combine dominates.  Parameters that set a sum's depth vary in narrow
    # ranges, so that one seed's op set costs about what another's does.
    # Ops of 5 ms and more are kept near 6% of the set, so that the 90th
    # percentile sits among the light ops and not on the edge of that tail.
    families = {
        "geometric": lambda r: EigenModel(Geometric(_u(r, 0.5, 2.0), _u(r, 0.25, 0.75))),
        "poly": lambda r: EigenModel(PolyDecay(_u(r, 0.5, 2.0), _u(r, 2.0, 3.0))),
        "poly-steep": lambda r: EigenModel(PolyDecay(_u(r, 0.5, 2.0), _u(r, 4.0, 5.0))),
        "exp": lambda r: EigenModel(ExpDecay(_u(r, 0.5, 2.0), _u(r, 1.0, 2.0), 1.0)),
        "exp-squared": lambda r: EigenModel(ExpDecay(_u(r, 0.5, 2.0), _u(r, 0.5, 1.0), 2.0)),
        "exp-stretched": lambda r: EigenModel(ExpDecay(1.0, _u(r, 1.1, 1.12), 0.5)),
        "tabulated": tabulated,
        "finite-rank": lambda r: EigenModel(FiniteRank(tuple(
            _u(r, 0.5, 2.0) / j ** 1.5 for j in range(1, 2001)))),
        "expr-tail": expr_tail,
        "expr-d": lambda r: EigenModel(Expression(f"exp(0-{_u(r, 0.9, 1.0)}*j/d)")),
    }
    ABS, NOR = ErrorCriterion.ABS, ErrorCriterion.NOR
    pt = CriterionParams(tau1=1.0, tau2=1.5, tau3=1.0, c_tilde=1.0)
    pt_exp = CriterionParams(tau1=1.0, tau2=0.25, tau3=1.0, c_tilde=1.0)
    qpt = CriterionParams(tau1=0.0, tau2=1.0, c_tilde=1.0)
    wt = CriterionParams(c=1.0, s=1.0, t=1.0)
    # (kind, params, d, criterion): every kind under ABS and NOR, d = 1..3.
    # qpt-exp at tau = 3 runs into the 2e6-term budget on ExpDecay(gamma=1/2),
    # as in acceptance c6; only the NOR op uses it, so one such sum (and one
    # 2e7-term extension check) is in each op set.
    rows = (
        ("spt-alg", CriterionParams(tau=1.0), 1, ABS), ("spt-alg", CriterionParams(tau=1.0), 2, NOR),
        ("spt-exp", CriterionParams(tau=0.25), 2, ABS), ("spt-exp", CriterionParams(tau=0.25), 3, NOR),
        ("pt-alg", pt, 3, ABS), ("pt-alg", pt, 1, NOR),
        ("pt-exp", pt_exp, 1, ABS), ("pt-exp", pt_exp, 2, NOR),
        ("qpt-alg", qpt, 2, ABS), ("qpt-alg", qpt, 3, NOR),
        ("qpt-exp", CriterionParams(tau=6.0), 3, ABS), ("qpt-exp", CriterionParams(tau=3.0), 1, NOR),
        ("wt-alg", wt, 1, ABS), ("wt-alg", wt, 2, NOR),
        ("wt-exp", wt, 2, ABS), ("wt-exp", wt, 3, NOR),
    )

    def closed_form(model, criterion) -> float | None:
        """spt-alg at tau = 1 from start 1, in closed form (mpmath, not tract)."""
        fam = model.family
        with mpmath.workdps(40):
            if isinstance(fam, Geometric):
                a, r = mpmath.mpf(fam.a), mpmath.mpf(fam.r)
                return float(a * r / (1 - r) if criterion is ABS else 1 / (1 - r))
            if isinstance(fam, PolyDecay):
                zeta = mpmath.zeta(mpmath.mpf(fam.alpha))
                return float(fam.a * zeta if criterion is ABS else zeta)
        return None

    def sum_op(label, model, kind, params, d, criterion):
        def evaluate(min_terms=0):
            return tract.evaluate_sum(model, kind, d, params, criterion, tol=SUM_TOL, min_terms=min_terms)

        def sound(ev):
            if not math.isfinite(ev.value) and not ev.divergent:
                return f"non-finite value {ev.value!r} with status {ev.status.value}"
            if not ev.certified:
                return None
            slack = ev.remainder_bound + EXTENSION_SLACK * abs(ev.value)
            extended = evaluate(min_terms=10 * ev.terms_used)
            if abs(extended.value - ev.value) > slack:
                return f"10x extension {extended.value!r} outside {ev.value!r} +- {ev.remainder_bound!r}"
            truth = closed_form(model, criterion) if kind == "spt-alg" else None
            if truth is not None and abs(truth - ev.value) > slack:
                return f"closed form {truth!r} outside {ev.value!r} +- {ev.remainder_bound!r}"
            return None

        return Op(f"sum/{label}/{kind}/d{d}/{criterion.value}", evaluate,
                  lambda ev: (ev.value, ev.terms_used, ev.remainder_bound, ev.status.value), sound)

    def slot_for(index: int, name: str):
        def slot(v: int) -> list[Op]:
            model = families[name](_rng(6, index, v))
            label = f"{name}.v{v}"
            return [sum_op(label, model, kind, params, d, criterion) for kind, params, d, criterion in rows]
        return slot

    return [slot_for(i, name) for i, name in enumerate(families)]
