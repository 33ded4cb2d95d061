"""Predicted regime map in the (p, rho) plane, then one simulated transect.

Part one evaluates the classifier on a grid: B marks points where the
blow-up certificate applies (every nontrivial solution explodes in finite
time), G marks points whose exponents admit the small-data global fixed
point.  Part two fixes rho = -1/2, integrates the forced problem at five
values of p in dimension 3, and compares verdicts against the map column.

The observed transition tracks the predicted threshold p = 2 because the
runs start from zero data: the forcing level stays in the small-data basin
once p clears the threshold.  Cells marked ? carry no certificate either
way (at this q the fixed-point window closes as p grows); a bounded run
there is consistent, just not predicted.
"""

import fujitalab as fl

Q = 2.0
ALPHA = 0.0
U0 = fl.ProfileSpec.zero()
W = fl.ProfileSpec.gaussian(1.0, 1.0, (0.0, 0.0, 0.0))

P_GRID = (1.5, 1.75, 2.0, 2.5, 3.0, 4.0)
RHO_GRID = (-0.75, -0.5, -0.25, 0.0)

LETTER = {"blowup": "B", "global_small_data": "G", "gap": "?"}


def prediction_map():
    print("predicted regime, N=3, q=2, alpha=0:")
    print("  B blow-up certified, G small-data global certified,")
    print("  ? neither certificate applies at this q")
    print("            p: " + "".join(f"{p:>7}" for p in P_GRID))
    for rho in RHO_GRID:
        cells = []
        for p in P_GRID:
            spec = fl.ProblemSpec(3, p, Q, ALPHA, rho, U0, W)
            cells.append(LETTER[fl.classify(spec).value])
        thr = fl.gep_exponents(3, 10.0, Q, ALPHA, rho).threshold
        print(f"  rho = {rho:5} :" + "".join(f"{c:>7}" for c in cells)
              + f"    threshold p = {float(thr):.4g}")
    print()


def transect(rho=-0.5, t_end=30.0):
    print(f"simulated transect at rho = {rho} (32^3 grid, zero data):")
    for p in (1.5, 1.75, 2.5, 3.0, 4.0):
        spec = fl.ProblemSpec(3, p, Q, ALPHA, rho, U0, W)
        predicted = fl.classify(spec).value
        rec = fl.run(spec, fl.SolverConfig(dt0=0.25, t_end=t_end),
                     fl.BoxGeometry(16.0, 32))
        if rec.verdict is fl.Verdict.BLOWUP_DETECTED:
            observed = f"blow-up at t ~ {rec.blowup_time_estimate:.1f}"
        else:
            observed = f"bounded through t = {rec.times[-1]:.0f}"
        print(f"  p = {p:<5} predicted {predicted:<18} observed {observed}")


if __name__ == "__main__":
    prediction_map()
    transect()
