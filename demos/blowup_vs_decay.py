"""Two forced runs in dimension 3, one each side of the blow-up threshold.

With zero initial data and a fixed positive Gaussian source, the exponent
p decides the outcome: at p=2 the forced solution feeds on itself and the
sup norm leaves through the ceiling, at p=4 the same source settles into a
bounded profile.  The script integrates both and prints the histories.
"""

import fujitalab as fl

GEOMETRY = fl.BoxGeometry(16.0, 32)
W = fl.ProfileSpec.gaussian(0.5, 1.0, (0.0, 0.0, 0.0))
ZERO = fl.ProfileSpec.zero()


def history(rec, count=8):
    # (t, sup) pairs nearest to evenly spaced times plus the final entry;
    # thinning by step index would crowd near t=0 where dt is tiny
    t_final = rec.times[-1]
    targets = [t_final * k / count for k in range(count + 1)]
    idx = sorted({min(range(len(rec.times)),
                      key=lambda i, tt=tt: abs(rec.times[i] - tt))
                  for tt in targets})
    return [(rec.times[i], rec.sup_norms[i]) for i in idx]


def run_one(p, t_end):
    spec = fl.ProblemSpec(3, p, 2.0, 0.0, 0.0, ZERO, W)
    rec = fl.run(spec, fl.SolverConfig(dt0=0.25, t_end=t_end), GEOMETRY)
    print(f"p = {p}:  verdict {rec.verdict.value}  "
          f"({len(rec.times) - 1} accepted steps)")
    for t, s in history(rec):
        print(f"    t = {t:8.2f}   sup = {s:.6e}")
    if rec.verdict is fl.Verdict.BLOWUP_DETECTED:
        print(f"    blow-up time estimate: {rec.blowup_time_estimate:.2f}")
    print()
    return rec


def main():
    crit = fl.blowup_criterion(3, 2.0, 2.0, 0.0, 0.0)
    print("criterion at (N,p,q,alpha,rho) = (3,2,2,0,0):",
          "holds" if crit.holds else "does not hold")
    crit4 = fl.blowup_criterion(3, 4.0, 2.0, 0.0, 0.0)
    print("criterion at p = 4:            ",
          "holds" if crit4.holds else "does not hold")
    print()
    run_one(2.0, t_end=120.0)
    run_one(4.0, t_end=20.0)


if __name__ == "__main__":
    main()
