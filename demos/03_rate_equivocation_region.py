"""Rate-equivocation region: corner points, delta_max, and witness search.

For any auxiliary W the extreme achievable tuple is

    (I(X-bar; W), {H(X_k | W)}, sum_k H(X-bar | W, X_k)).

The constant channel spends zero common rate and attains the maximum total
equivocation delta_max; the copy channel discloses everything.  Between the
extremes, the sweep's witnesses show how much common rate can be carried
while keeping total equivocation at delta_max: exactly up to the common
information C, realized by the component witness.
"""

from itertools import product as iproduct

import numpy as np

import graywyner as gw


def shared_triple():
    probs = np.zeros((4, 4, 4))
    for x0 in (0, 1):
        for a, b, c in iproduct((0, 1), repeat=3):
            probs[2 * x0 + a, 2 * x0 + b, 2 * x0 + c] = 1 / 16
    return gw.JointPmf(("X1", "X2", "X3"), (4, 4, 4), probs)


def show_corner(label, pmf, w):
    corner = gw.corner_point(pmf, w)
    print(f"{label:<22} r0={corner.r0:.4f}  rk={tuple(round(r, 4) for r in corner.rk)}"
          f"  delta={corner.delta:.4f}")
    return corner


def main():
    pmf = shared_triple()
    print(f"delta_max = {gw.delta_max(pmf):.4f} bits "
          "(total equivocation when messages leak nothing extra)")
    print()
    show_corner("constant W:", pmf, gw.constant_channel(pmf))
    show_corner("copy W (disclose all):", pmf, gw.copy_channel(pmf))
    w_shared = gw.deterministic_channel(pmf, pmf.digits(0) // 2, 2)
    corner = show_corner("W = shared component:", pmf, w_shared)
    print()
    print("The shared-component corner keeps delta at delta_max while")
    print(f"carrying r0 = {corner.r0:.4f} = C on the public link.")

    print()
    print("== searched best delta across r0 budgets ==")
    sweep = gw.sweep_max_delta(pmf, [0.0, 0.5, 1.0, 2.0])
    print("r0_budget  delta    I(X-bar;W) of witness")
    for point in sweep.points:
        used = gw.corner_point(pmf, point.witness).r0
        print(f"{point.r0_budget:9.2f}  {point.delta:.4f}  {used:.4f}")
    print("(delta stays at delta_max; the witness uses the budget only up")
    print(" to C = 1 bit, the most that can be shared without losing privacy)")

    print()
    print("== membership tests ==")
    for r0, rk, delta in [
        (1.0, (1.0, 1.0, 1.0), 6.0),
        (0.0, (2.0, 2.0, 2.0), 6.0),
        (0.0, (0.0, 0.0, 0.0), 0.1),
    ]:
        t = gw.RateEquivocationTuple(r0, rk, delta)
        result = gw.is_achievable(pmf, t, restarts=2, seed=3)
        print(f"(r0={r0}, rk={rk}, delta={delta}) -> {result.verdict}")
    print("('unknown' never claims non-membership; the witness search is")
    print(" heuristic and certification is one-sided)")


if __name__ == "__main__":
    main()
