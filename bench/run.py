"""fujita-lab benchmark: time to a checked verdict, and per-layer costs.

    python3 bench/run.py --workload solver_runs --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 60

Each workload runs in a fresh single-threaded process (``workloads.py``),
which starts its set-up probes one at a time.  Workloads run one after
another, so at most one process computes at any moment.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones from a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unit(metric: str) -> str:
    if metric.endswith(("_us", ".us_per_call")):
        return "us"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_per_step"):
        return "count/step"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh single-threaded process; return its JSON."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    # A session of its own, so a timeout also stops a running set-up probe.
    with subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"workloads.py {' '.join(args)} exited "
                           f"{proc.returncode}: {err.strip()}")
    res = json.loads(out.strip().splitlines()[-1])
    if trace:
        values = res["layers"]
    else:
        values = {
            "wall_s": res["wall_s"],
            "setup_s": res["setup_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    res["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
    return res


def report(res: dict) -> None:
    env = res["environment"]
    print(f"# {res['workload']} seed={res['seed']} machine={env['processor']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if "setup_s" in m:
        print(f"{res['workload']}: wall_s={m['wall_s']:.4f} s (median of {res['passes']} "
              f"passes, per task)  setup_s={m['setup_s']:.4f} s (median of "
              f"{len(res['setups'])})  peak_rss_mb={m['peak_rss_mb']:.1f} MB"
              f"  fail_ratio={res['failed'] / res['attempted']:.3f}"
              f" ({res['failed']}/{res['attempted']})")
        print(f"{res['workload']}: unscaled, at this run's own speed: "
              f"wall {res['raw_wall_s']:.4f} s, set-up {res['raw_setup_s']:.4f} s")
    else:
        for key, value in m.items():
            print(f"{res['workload']}: {key} = {value:.6g} {unit(key)}")
        print(f"{res['workload']}: spans in {res['trace_file']}")
    for failure in res["failures"]:
        print(f"FAILED {res['workload']}: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fujitalab" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no fujitalab sources (src/fujitalab)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for res in results:
        report(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
