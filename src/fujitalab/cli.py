"""Command-line front end.

Four subcommands: ``exponents`` (regime report for one parameter point),
``simulate`` (one time integration, trajectory to CSV/JSON), ``sweep``
(parameter grid with predicted-vs-observed agreement, optionally parallel),
``verify`` (the analytic lemma suite with pass/fail lines).

Exit codes: 0 success, 1 malformed input or a failed verification, 2 for
parameter sets rejected by base validation.  Artifacts land under the
directory named by FUJITA_LAB_OUT when relative paths are given; trajectory
and sweep payloads are byte-deterministic, while wall-clock metadata goes to
separate ``*.meta.json`` files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .exponents import (
    Regime,
    classify,
    exponent_report,
    gep_exponents,
)
from .field import BoxGeometry, lq_norm, sample
from .oracles import LEMMAS
from .problem import (
    InadmissibleError,
    ProblemSpec,
    SpecFieldError,
    scale_profile,
    validate,
)
from .solver import SolverConfig, run

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # inadmissible parameters, so route usage problems through exit 1.
    def error(self, message):
        raise _UsageError(message)


def _resolve_out(path_str: str) -> Path:
    p = Path(path_str)
    if not p.is_absolute():
        p = Path(os.environ.get("FUJITA_LAB_OUT", ".")) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _load_spec(path: str) -> ProblemSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read spec file {path!r}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFieldError("<document>", f"invalid JSON: {exc}") from exc
    return ProblemSpec.from_json_dict(payload)


def _run_setup(args, dim: int, **config) -> tuple[SolverConfig, BoxGeometry]:
    """Solver config and box from the shared options, checked before any run."""
    try:
        geometry = BoxGeometry(half_width=args.half_width, points_per_axis=args.points)
        geometry.resolve(dim)
        return SolverConfig(dt0=args.dt0, t_end=args.t_end,
                            blowup_threshold=args.threshold, **config), geometry
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _write_meta(prefix: Path, extra: dict) -> None:
    meta = {"created_unix": time.time()}
    meta.update(extra)
    Path(str(prefix) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


# ---------------------------------------------------------------------------
# exponents

def cmd_exponents(args) -> int:
    spec = _load_spec(args.spec)
    validation = validate(spec)
    if not validation.base_ok:
        for name in validation.failed():
            print(f"inadmissible: {name}", file=sys.stderr)
        return 2
    rep = exponent_report(spec)
    if args.format == "json":
        text = json.dumps(rep.to_json_dict(), indent=2)
    else:
        text = rep.table()
    print(text)
    if args.out:
        out = _resolve_out(args.out)
        out.write_text(json.dumps(rep.to_json_dict(), indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    validation = validate(spec)
    if not validation.base_ok:
        for name in validation.failed():
            print(f"inadmissible: {name}", file=sys.stderr)
        return 2
    if not validation.lwp_ok:
        print("note: outside the well-posedness range; integrating anyway",
              file=sys.stderr)
    config, geometry = _run_setup(args, spec.dim, adapt=not args.no_adapt)
    record = run(spec, config, geometry)
    print(f"verdict: {record.verdict.value}")
    print(f"t_final: {record.times[-1]!r}")
    print(f"q_norm_final: {record.q_norms[-1]!r}")
    print(f"sup_norm_final: {record.sup_norms[-1]!r}")
    if record.blowup_time_estimate is not None:
        print(f"blowup_time_estimate: {record.blowup_time_estimate!r}")
    if args.out_prefix:
        prefix = _resolve_out(args.out_prefix)
        Path(str(prefix) + ".csv").write_text(record.csv_text())
        Path(str(prefix) + ".json").write_text(
            json.dumps(record.to_json_dict(), indent=2) + "\n")
        _write_meta(prefix, {"command": "simulate"})
        print(f"wrote {prefix}.csv {prefix}.json", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# sweep

_SWEEP_COLUMNS = (
    "index", "p", "q", "alpha", "rho",
    "predicted", "verdict", "agreement",
    "t_final", "sup_final", "blowup_time",
)


def _sweep_point(payload) -> tuple:
    """Worker for one grid point; must stay module-level for process pools."""
    idx, base_json, assignment, amplitude, epsilon, config, geometry = payload
    doc = dict(base_json)
    doc.update(assignment)
    try:
        spec = ProblemSpec.from_json_dict(doc)
    except (SpecFieldError, InadmissibleError):
        row = {k: assignment.get(k, base_json[k]) for k in ("p", "q", "alpha", "rho")}
        row.update(index=idx, predicted="inadmissible", verdict="skipped",
                   agreement="not_applicable", t_final="", sup_final="",
                   blowup_time="")
        return idx, row
    regime = classify(spec)
    u0 = scale_profile(spec.u0, amplitude)
    w = spec.w
    if regime is Regime.GLOBAL_SMALL_DATA:
        # rescale data and forcing so the norms the small-data theory sees
        # sit at epsilon; the grid plays the role of the function space here
        gep = gep_exponents(spec.dim, spec.p, spec.q, spec.alpha, spec.rho)
        L, M = geometry.resolve(spec.dim)
        f = sample(u0, spec.dim, L, M)
        biggest = max(lq_norm(f, gep.p_c), lq_norm(f, gep.ell))
        if biggest > 0:
            s = epsilon / biggest
            u0 = scale_profile(u0, s)
            w = scale_profile(w, s)
    sim_spec = dataclasses.replace(spec, u0=u0, w=w)
    record = run(sim_spec, config, geometry)
    verdict = record.verdict.value
    if regime is Regime.BLOWUP:
        agreement = "match" if verdict == "blowup_detected" else "mismatch"
    elif regime is Regime.GLOBAL_SMALL_DATA:
        agreement = "match" if verdict == "completed" else "mismatch"
    else:
        agreement = "not_applicable"
    row = {
        "index": idx,
        "p": float(spec.p), "q": float(spec.q),
        "alpha": float(spec.alpha), "rho": float(spec.rho),
        "predicted": regime.value,
        "verdict": verdict,
        "agreement": agreement,
        "t_final": repr(record.times[-1]),
        "sup_final": repr(record.sup_norms[-1]),
        "blowup_time": "" if record.blowup_time_estimate is None
        else repr(record.blowup_time_estimate),
    }
    return idx, row


def _parse_axis(text: str):
    try:
        name, rng = text.split("=", 1)
        start, stop, count = rng.split(":")
        name = name.strip()
        if name not in ("p", "q", "alpha", "rho"):
            raise ValueError(f"axis must be one of p,q,alpha,rho, got {name!r}")
        count = int(count)
        if count < 1:
            raise ValueError("axis count must be >= 1")
        values = np.linspace(float(start), float(stop), count)
        return name, [float(v) for v in values]
    except ValueError as exc:
        raise _UsageError(f"bad --axis {text!r}: {exc}") from exc


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    if not validate(spec).base_ok:
        print("inadmissible baseline spec", file=sys.stderr)
        return 2
    axes = [_parse_axis(a) for a in args.axis]
    if not axes:
        raise _UsageError("need at least one --axis")
    if len(axes) > 2:
        raise _UsageError("at most two --axis arguments")
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    config, geometry = _run_setup(args, spec.dim)
    base_json = spec.to_json_dict()

    assignments = []
    if len(axes) == 1:
        name0, vals0 = axes[0]
        for v in vals0:
            assignments.append({name0: v})
    else:
        (name0, vals0), (name1, vals1) = axes
        for v0 in vals0:
            for v1 in vals1:
                assignments.append({name0: v0, name1: v1})

    payloads = [
        (idx, base_json, asg, args.amplitude, args.epsilon, config, geometry)
        for idx, asg in enumerate(assignments)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p) for p in payloads]
    results.sort(key=lambda pair: pair[0])
    rows = [row for _, row in results]

    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in _SWEEP_COLUMNS))
    csv_text = "\n".join(lines) + "\n"

    counts = {}
    for row in rows:
        counts[row["agreement"]] = counts.get(row["agreement"], 0) + 1
    print(f"points: {len(rows)}")
    for key in ("match", "mismatch", "not_applicable"):
        if key in counts:
            print(f"{key}: {counts[key]}")

    if args.out_prefix:
        prefix = _resolve_out(args.out_prefix)
        Path(str(prefix) + ".csv").write_text(csv_text)
        _write_meta(prefix, {"command": "sweep", "jobs": args.jobs,
                             "axes": [a for a in args.axis]})
        print(f"wrote {prefix}.csv", file=sys.stderr)
    else:
        sys.stdout.write(csv_text)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    names = [args.lemma] if args.lemma else list(LEMMAS)
    verdicts = {}
    all_ok = True
    for name in names:
        passed, detail = LEMMAS[name](args.tolerance_scale)
        verdicts[name] = {"passed": passed, "detail": detail}
        all_ok = all_ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    if args.out:
        out = _resolve_out(args.out)
        out.write_text(json.dumps(
            {"lemmas": verdicts, "all_passed": all_ok}, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="fujita-lab",
                     description="semilinear heat blow-up laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="critical exponent report")
    p_exp.add_argument("--spec", required=True, help="problem JSON file")
    p_exp.add_argument("--format", choices=("table", "json"), default="table")
    p_exp.add_argument("--out", help="also write the JSON report here")
    p_exp.set_defaults(func=cmd_exponents)

    p_sim = sub.add_parser("simulate", help="integrate one problem")
    p_sim.add_argument("--spec", required=True)
    p_sim.add_argument("--t-end", type=float, default=10.0)
    p_sim.add_argument("--dt0", type=float, default=1e-2)
    p_sim.add_argument("--threshold", type=float, default=1e8)
    p_sim.add_argument("--half-width", type=float, default=16.0)
    p_sim.add_argument("--points", type=int, default=None)
    p_sim.add_argument("--no-adapt", action="store_true")
    p_sim.add_argument("--out-prefix")
    p_sim.set_defaults(func=cmd_simulate)

    p_swp = sub.add_parser("sweep", help="grid of simulations vs predictions")
    p_swp.add_argument("--spec", required=True)
    p_swp.add_argument("--axis", action="append", default=[],
                       metavar="NAME=START:STOP:COUNT",
                       help="vary p,q,alpha or rho (max two axes)")
    p_swp.add_argument("--amplitude", type=float, default=1.0,
                       help="scale factor applied to the initial profile")
    p_swp.add_argument("--epsilon", type=float, default=1e-2,
                       help="target norm for small-data rescaling")
    p_swp.add_argument("--t-end", type=float, default=10.0)
    p_swp.add_argument("--dt0", type=float, default=1e-2)
    p_swp.add_argument("--threshold", type=float, default=1e8)
    p_swp.add_argument("--half-width", type=float, default=16.0)
    p_swp.add_argument("--points", type=int, default=None)
    p_swp.add_argument("--jobs", type=int, default=1)
    p_swp.add_argument("--out-prefix")
    p_swp.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run the analytic lemma checks")
    p_ver.add_argument("--lemma", choices=sorted(LEMMAS))
    p_ver.add_argument("--tolerance-scale", type=float, default=1.0,
                       help="multiply tolerances (test hook; <1 tightens)")
    p_ver.add_argument("--out", help="write JSON verdicts here")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SpecFieldError as exc:
        print(f"error: field {exc.field_name!r}: {exc.reason}", file=sys.stderr)
        return 1
    except InadmissibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
