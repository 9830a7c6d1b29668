"""Command-line surface.

    coxpres present --c 3 --d 3 [--format text|json|cas-export] [--out FILE]
    coxpres verify  --c 3 --d 3 [--checks csv] [--budget N] [--strict]
    coxpres cones   --c 3 --d 4
    coxpres gitfan  --c 3 --d 3

Exit codes: 0 success, 1 check failure, 2 usage error; c + d above
MAX_C_PLUS_D is a usage error. The environment variable COXPRES_BUDGET
overrides the default Groebner pair budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import checks as checks_mod
from . import collineation as col
from . import geometry as geo
from . import serialize as ser
from .groebner import DEFAULT_PAIR_BUDGET
from .intlinalg import Frozen

# cox_presentation builds all C(c+d, 4) relations at once: 4,845 at the cap
MAX_C_PLUS_D = 20


class Config(Frozen):
    __slots__ = ("c", "d", "checks", "budget", "fmt", "out", "strict")

    def __init__(self, c: int, d: int, checks: Optional[list[str]] = None,
                 budget: int = DEFAULT_PAIR_BUDGET, fmt: str = "text",
                 out: Optional[str] = None, strict: bool = False):
        if budget <= 0:
            raise UsageError("budget must be positive")
        if checks == []:
            raise UsageError("--checks names no check")
        self._init(c, d, checks, budget, fmt, out, strict)


class UsageError(Exception):
    pass


def _params(cfg: Config) -> col.Params:
    if cfg.c + cfg.d > MAX_C_PLUS_D:
        raise ValueError(f"c + d must be at most {MAX_C_PLUS_D}, "
                         f"got {cfg.c + cfg.d}")
    return col.Params(cfg.c, cfg.d)


def _emit(cfg: Config, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_present(cfg: Config) -> int:
    pres = col.cox_presentation(_params(cfg))
    if cfg.fmt == "json":
        _emit(cfg, json.dumps(ser.presentation_to_obj(pres), indent=2))
    elif cfg.fmt == "cas-export":
        _emit(cfg, ser.cas_export(pres))
    else:
        lines = [f"Cox ring presentation for (c, d) = ({cfg.c}, {cfg.d})"
                 f"   [regime {pres.regime}]",
                 f"class group rank: {pres.class_group_rank}",
                 f"{len(pres.variables)} variables:"]
        lines.append("  " + " ".join(pres.variables))
        lines.append(f"{len(pres.relations)} relations:")
        for r in pres.relations:
            lines.append(f"  {r}")
        lines.append("degrees:")
        for i, name in enumerate(pres.variables):
            lines.append(f"  deg {name} = {tuple(pres.grading.matrix.col(i))}")
        _emit(cfg, "\n".join(lines))
    return 0


def cmd_verify(cfg: Config) -> int:
    report = checks_mod.run_checks(_params(cfg), cfg.checks, cfg.budget)
    if cfg.fmt == "json":
        _emit(cfg, json.dumps(checks_mod.report_to_obj(report), indent=2))
    else:
        lines = [f"verification for (c, d) = ({cfg.c}, {cfg.d})"]
        for r in report.results:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r.status]
            lines.append(f"  {mark}  {r.check_id:<13} ({r.seconds:.3f}s)")
            if r.status == "fail":
                lines.append(f"        expected: {r.expected}")
                lines.append(f"        actual:   {r.actual}")
            elif r.status == "skipped":
                lines.append(f"        reason: {r.actual}")
        n_pass = sum(1 for r in report.results if r.status == "pass")
        lines.append(f"{n_pass}/{len(report.results)} passed, "
                     f"{len(report.failed)} failed, {len(report.skipped)} skipped")
        _emit(cfg, "\n".join(lines))
    return report.exit_code(cfg.strict)


def cmd_cones(cfg: Config) -> int:
    p = _params(cfg)
    if p.regime != "general":
        raise UsageError("the effective/movable cone description applies "
                         "only for c > 2 and d > 2")
    _, qinf = col.weight_matrices(p)
    eff, mov = geo.mori_cones(qinf.columns())
    note = ("semiample cone equals the movable cone for these spaces "
            "(asserted, not recomputed)")
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({
            "c": p.c, "d": p.d,
            "effective": ser.cone_to_obj(eff),
            "movable": ser.cone_to_obj(mov),
            "semiample": "movable",
            "note": note,
        }, indent=2))
    else:
        lines = [f"divisor class cones for (c, d) = ({p.c}, {p.d})",
                 "effective cone rays:"]
        lines += [f"  {g}" for g in eff.generators]
        lines.append("movable cone rays:")
        lines += [f"  {g}" for g in mov.generators]
        lines.append(note)
        _emit(cfg, "\n".join(lines))
    return 0


def cmd_gitfan(cfg: Config) -> int:
    p = _params(cfg)
    q, _ = col.weight_matrices(p)
    fan = geo.git_fan(q)
    witnesses = []
    for x, res in col.witness_residuals(p):
        witnesses.append({
            "coordinates": {col.pair_name(i, j): str(v) for (i, j), v in x.coords},
            "residuals_all_zero": all(r == 0 for r in res),
            "orbit_cone": ser.cone_to_obj(col.orbit_cone(p, x)),
        })
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({
            "c": p.c, "d": p.d,
            "fan": ser.fan_to_obj(fan),
            "witnesses": witnesses,
        }, indent=2))
    else:
        lines = [f"chamber fan of the weight matrix for (c, d) = ({p.c}, {p.d})",
                 f"rays: {list(fan.rays)}"]
        for mc in fan.maximal_cones:
            lines.append(f"  chamber: cone{tuple(fan.rays[i] for i in mc)}")
        for k, w in enumerate(witnesses, 1):
            lines.append(f"witness {k}: {w['coordinates']}  "
                         f"residuals zero: {w['residuals_all_zero']}  "
                         f"orbit cone rays: {w['orbit_cone']['generators']}")
        _emit(cfg, "\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxpres",
        description="Cox-ring presentations, GIT fans and Mori cones for "
                    "spaces of complete rank-2 collineations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_checks=False, formats=("text", "json")):
        sp.add_argument("--c", type=int, required=True, help="dimension c >= 2")
        sp.add_argument("--d", type=int, required=True, help="dimension d >= 2")
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--out", help="write output to this UTF-8 file")
        if with_checks:
            sp.add_argument("--checks", help="comma-separated check ids "
                            f"(available: {', '.join(sorted(checks_mod.CHECKS))})")
            sp.add_argument("--budget", type=int,
                            default=None, help="Groebner pair budget")
            sp.add_argument("--strict", action="store_true",
                            help="treat skipped checks as failures")

    common(sub.add_parser("present", help="emit the Cox ring presentation"),
           formats=("text", "json", "cas-export"))
    common(sub.add_parser("verify", help="run verification checks"),
           with_checks=True)
    common(sub.add_parser("cones", help="effective and movable cones"))
    common(sub.add_parser("gitfan", help="chamber fan and witness points"))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    budget = getattr(args, "budget", None)
    if budget is None:
        env_budget = os.environ.get("COXPRES_BUDGET", str(DEFAULT_PAIR_BUDGET))
        try:
            budget = int(env_budget)
        except ValueError:
            print(f"error: COXPRES_BUDGET must be an integer, got {env_budget!r}",
                  file=sys.stderr)
            return 2
    checks = None
    if getattr(args, "checks", None) is not None:
        checks = [s.strip() for s in args.checks.split(",") if s.strip()]
    try:
        cfg = Config(c=args.c, d=args.d, checks=checks, budget=budget,
                     fmt=args.format, out=args.out,
                     strict=getattr(args, "strict", False))
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        handler = {"present": cmd_present, "verify": cmd_verify,
                   "cones": cmd_cones, "gitfan": cmd_gitfan}[args.command]
        return handler(cfg)
    except (UsageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
