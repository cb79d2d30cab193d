"""Joint distributions, conditioning, and information measures.

Builds the two recurring source families used throughout these demos:

* a doubly symmetric binary source pair (X2 = X1 xor Ber(delta)) with an
  independent third bit, and
* three sources sharing a common component, X_k = (X0, X_kp) with all
  components independent fair bits,

then walks through marginalization, conditioning, document round-trips,
and the basic Shannon measures.
"""

import tempfile
from itertools import product as iproduct
from pathlib import Path

import numpy as np

import graywyner as gw


def dsbs(delta):
    return gw.JointPmf(
        ("X1", "X2"), (2, 2),
        [(1 - delta) / 2, delta / 2, delta / 2, (1 - delta) / 2],
    )


def shared_component_triple():
    probs = np.zeros((4, 4, 4))
    for x0 in (0, 1):
        for a, b, c in iproduct((0, 1), repeat=3):
            probs[2 * x0 + a, 2 * x0 + b, 2 * x0 + c] = 1 / 16
    return gw.JointPmf(("X1", "X2", "X3"), (4, 4, 4), probs)


def main():
    delta = 0.11
    pair = dsbs(delta)
    noisy_triple = gw.product(pair, gw.JointPmf(("X3",), (2,), [0.5, 0.5]))
    shared = shared_component_triple()

    print("== marginals and conditionals ==")
    print("P(X2) of the DSBS pair:", gw.marginalize(pair, [1]).flat)
    print("P(X2 | X1=0):", gw.condition(pair, 0, 0).flat)
    print("P(X1, X2) of the shared triple keeps the common bit aligned:")
    print(gw.marginalize(shared, [0, 1]).probabilities)

    print()
    print("== entropies and mutual information (bits) ==")
    print(f"H(X1, X2)            = {gw.entropy(pair):.6f}")
    print(f"H(X2 | X1)           = {gw.conditional_entropy(pair, [1], [0]):.6f}"
          f"   (binary entropy h({delta}) = {gw.binary_entropy(delta):.6f})")
    print(f"I(X1; X2)            = {gw.mutual_information(pair, [0], [1]):.6f}"
          f"   (1 - h({delta}))")
    print(f"Shared triple H(X_k) = {gw.entropy(shared, [0]):.6f}")
    print(f"Shared triple I(X1; X2) = {gw.mutual_information(shared, [0], [1]):.6f}")

    print()
    print("== auxiliary variables ==")
    w_shared = gw.deterministic_channel(shared, shared.digits(0) // 2, 2)
    joint = gw.join_with_aux(shared, w_shared)
    print("W = shared component: I(X1,X2,X3; W) =",
          gw.mutual_information(joint, [0, 1, 2], [3]))
    print("Markov slack I(rest; W | X_k) per decoder:",
          [round(gw.markov_slack(joint, k), 12) for k in range(3)])

    print()
    print("== document round-trip ==")
    with tempfile.TemporaryDirectory(prefix="graywyner_demo_") as outdir:
        pmf_path = Path(outdir) / "noisy_triple.pmf.json"
        gw.save_pmf(noisy_triple, str(pmf_path))
        again = gw.load_pmf(str(pmf_path))
        print("wrote", pmf_path.name)
    print("round-trip bit-exact:", np.array_equal(again.flat, noisy_triple.flat))


if __name__ == "__main__":
    main()
