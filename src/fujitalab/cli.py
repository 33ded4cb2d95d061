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
import functools
import itertools
import json
import math
import os
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from .problem import (
    InadmissibleError,
    ProblemSpec,
    SpecFieldError,
    scale_profile,
    validate,
)

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
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read spec file {path!r}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFieldError("<document>", f"invalid JSON: {exc}") from exc
    return ProblemSpec.from_json_dict(payload)


def _given(args, **options) -> dict:
    """The keywords whose options were given on the command line."""
    return {key: getattr(args, dest) for key, dest in options.items()
            if getattr(args, dest) is not None}


def _run_setup(args, dim: int, **config):
    """Solver config and box from the shared options, checked before any run.

    An option left out is left to the library's own default.
    """
    from .field import BoxGeometry
    from .solver import SolverConfig

    try:
        geometry = BoxGeometry(**_given(args, half_width="half_width",
                                        points_per_axis="points"))
        geometry.resolve(dim)
        return SolverConfig(**_given(args, dt0="dt0", t_end="t_end",
                                     blowup_threshold="threshold"), **config), geometry
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _add_run_options(parser) -> None:
    """The run options simulate and sweep share.

    None of them has an argparse default: ``_run_setup`` passes on only
    the options given, so ``SolverConfig`` and ``BoxGeometry`` hold the one
    set of defaults and building the parser loads no solver.
    """
    parser.add_argument("--t-end", type=float)
    parser.add_argument("--dt0", type=float)
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--half-width", type=float)
    parser.add_argument("--points", type=int)


def _write_meta(prefix: Path, extra: dict) -> None:
    meta = {"created_unix": time.time()}
    meta.update(extra)
    Path(str(prefix) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


# ---------------------------------------------------------------------------
# exponents

def cmd_exponents(args) -> int:
    from .exponents import exponent_report

    spec = _load_spec(args.spec)
    rep = exponent_report(spec)
    text = json.dumps(rep.to_json_dict(), indent=2)
    print(text if args.format == "json" else rep.table())
    if args.out:
        out = _resolve_out(args.out)
        out.write_text(text + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    from .solver import run

    spec = _load_spec(args.spec)
    if not validate(spec).lwp_ok:
        print("note: outside the well-posedness range; integrating anyway",
              file=sys.stderr)
    config, geometry = _run_setup(args, spec.dim, adapt=not args.no_adapt)
    start = time.perf_counter()
    record = run(spec, config, geometry)
    seconds = time.perf_counter() - start
    print(f"verdict: {record.verdict.value}")
    print(f"t_final: {record.times[-1]!r}")
    print(f"q_norm_final: {record.q_norms[-1]!r}")
    print(f"sup_norm_final: {record.sup_norms[-1]!r}")
    if record.blowup_time_estimate is not None:
        print(f"blowup_time_estimate: {record.blowup_time_estimate!r}")
        print(f"blowup_by: {record.metadata['blowup_by']}")
    for key in ("rejections", "counts"):
        print(f"{key}: " + " ".join(f"{k}={v}" for k, v in record.metadata[key].items()))
    if args.out_prefix:
        prefix = _resolve_out(args.out_prefix)
        Path(str(prefix) + ".csv").write_text(record.csv_text())
        Path(str(prefix) + ".json").write_text(
            json.dumps(record.to_json_dict(), indent=2) + "\n")
        _write_meta(prefix, {"command": "simulate", "seconds": seconds})
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
    """Worker for one grid point, (row, seconds); must stay module-level
    for process pools.

    A point whose integration raises becomes an ``error:<ExceptionClass>``
    row with empty result columns, and the traceback goes to stderr, so
    the other points of the sweep still run.
    """
    start = time.perf_counter()
    idx, base_json, assignment, amplitude, epsilon, config, geometry = payload
    doc = dict(base_json)
    doc.update(assignment)
    from .exponents import Regime, classify

    row = {"index": idx, **{k: doc[k] for k in ("p", "q", "alpha", "rho")}}
    try:
        spec = ProblemSpec.from_json_dict(doc)
    except (SpecFieldError, InadmissibleError):
        row.update(predicted="inadmissible", verdict="skipped", agreement="not_applicable")
        return row, time.perf_counter() - start
    regime = classify(spec)
    row["predicted"] = regime.value
    try:
        record = _simulate_point(spec, regime, amplitude, epsilon, config, geometry)
    except Exception as exc:
        print(f"sweep point {idx} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        row.update(verdict=f"error:{type(exc).__name__}", agreement="inconclusive")
        return row, time.perf_counter() - start
    verdict = record.verdict.value
    # The theorem bounds no T*, so a predicted blow-up still running at t_end
    # is inconclusive, as is a run that ended budget_exhausted; only a
    # blow-up of small data contradicts the prediction.
    if regime is Regime.BLOWUP:
        agreement = "match" if verdict == "blowup_detected" else "inconclusive"
    elif regime is Regime.GLOBAL_SMALL_DATA:
        agreement = {"completed": "match", "blowup_detected": "mismatch"}.get(
            verdict, "inconclusive")
    else:
        agreement = "not_applicable"
    row.update(
        verdict=verdict,
        agreement=agreement,
        t_final=repr(record.times[-1]),
        sup_final=repr(record.sup_norms[-1]),
        blowup_time="" if record.blowup_time_estimate is None
        else repr(record.blowup_time_estimate),
    )
    return row, time.perf_counter() - start


def _simulate_point(spec, regime, amplitude, epsilon, config, geometry):
    """The sweep's run of one admissible point, small data rescaled to epsilon."""
    from .exponents import Regime, gep_exponents
    from .field import lq_norm, sample
    from .solver import run

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
    return run(dataclasses.replace(spec, u0=u0, w=w), config, geometry)


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
        start, stop = float(start), float(stop)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("axis START and STOP must be finite")
        values = np.linspace(start, stop, count)
        return name, [float(v) for v in values]
    except ValueError as exc:
        raise _UsageError(f"bad --axis {text!r}: {exc}") from exc


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    axes = [_parse_axis(a) for a in args.axis]
    if not axes:
        raise _UsageError("need at least one --axis")
    if len(axes) > 2:
        raise _UsageError("at most two --axis arguments")
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise _UsageError(f"--axis {axes[0][0]} given twice")
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    if not math.isfinite(args.amplitude):
        raise _UsageError("--amplitude must be finite")
    if not 0 < args.epsilon < math.inf:
        raise _UsageError("--epsilon must be positive and finite")
    config, geometry = _run_setup(args, spec.dim)
    base_json = spec.to_json_dict()

    names = [name for name, _ in axes]
    grid = itertools.product(*(values for _, values in axes))
    payloads = [
        (idx, base_json, dict(zip(names, point)), args.amplitude, args.epsilon,
         config, geometry)
        for idx, point in enumerate(grid)
    ]
    start = time.perf_counter()
    # a fork pool starts all max_workers at once, so start no idle ones
    workers = min(args.jobs, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p) for p in payloads]
    seconds = time.perf_counter() - start
    rows = [row for row, _ in results]

    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in _SWEEP_COLUMNS))
    csv_text = "\n".join(lines) + "\n"

    counts = Counter(row["agreement"] for row in rows)
    errors = sum(row["verdict"].startswith("error:") for row in rows)
    if errors:
        counts["error"] = errors
    print(f"points: {len(rows)}")
    for key in ("match", "mismatch", "inconclusive", "not_applicable", "error"):
        if key in counts:
            print(f"{key}: {counts[key]}")

    if args.out_prefix:
        prefix = _resolve_out(args.out_prefix)
        Path(str(prefix) + ".csv").write_text(csv_text)
        _write_meta(prefix, {"command": "sweep", "jobs": args.jobs,
                             "axes": [a for a in args.axis], "seconds": seconds,
                             "point_seconds": [s for _, s in results]})
        print(f"wrote {prefix}.csv", file=sys.stderr)
    else:
        sys.stdout.write(csv_text)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    from .oracles import LEMMAS

    if args.lemma is not None and args.lemma not in LEMMAS:
        raise _UsageError(f"argument --lemma: invalid choice: {args.lemma!r} "
                          f"(choose from {', '.join(map(repr, sorted(LEMMAS)))})")
    names = [args.lemma] if args.lemma else list(LEMMAS)
    verdicts = {}
    all_ok = True
    for name in names:
        start = time.perf_counter()
        passed, detail = LEMMAS[name]()
        verdicts[name] = {"passed": passed, "detail": detail,
                          "seconds": time.perf_counter() - start}
        all_ok = all_ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    if args.out:
        out = _resolve_out(args.out)
        out.write_text(json.dumps(
            {"lemmas": verdicts, "all_passed": all_ok}, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process: parse_args leaves it unchanged."""
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
    _add_run_options(p_sim)
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
    _add_run_options(p_swp)
    p_swp.add_argument("--jobs", type=int, default=1)
    p_swp.add_argument("--out-prefix")
    p_swp.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run the analytic lemma checks")
    p_ver.add_argument("--lemma", metavar="NAME",
                       help="run this lemma only (an unknown name lists them)")
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
