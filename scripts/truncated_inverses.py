"""Time ``algebra.invert`` on truncated units, which take the solve over F.

Each input is a unit of a cyclic algebra over F_p((t)): its first coordinate
is 1 + 3t, every other coordinate a seeded 3-term polynomial of degree at
most 5, and every coordinate carries O(t^prec).  No benchmark workload
inverts such inputs; this script times them at several precisions and
prints one JSON line per (q, prec): the fastest of ``--repeat`` calls.

    PYTHONPATH=src python scripts/truncated_inverses.py --repeat 5
"""

import argparse
import hashlib
import json
import random
import time

from cycdiv import CyclicAlgebra, laurent_context
from cycdiv.algebra import invert

CASES = ((7, 3, 3), (11, 5, 3))  # (p, q, alpha)


def unit(D, prec, rng):
    F = D.F
    coords = ["1 + 3*t"]
    for _ in range(D.n - 1):
        exps = sorted(rng.sample(range(6), 3))
        coords.append(" + ".join(f"{rng.randrange(1, F.coeff.p)}*t^{e}" for e in exps))
    return D.element([F.parse(f"{c} + O(t^{prec})") for c in coords])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--precisions", type=int, nargs="+", default=[20, 100, 400])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for p, q, alpha in CASES:
        for prec in args.precisions:
            ctx = laurent_context(p, q, precision=prec)
            D = CyclicAlgebra(ctx, ctx.F.from_int(alpha))
            d = unit(D, prec, random.Random(args.seed))
            best = None
            for _ in range(args.repeat):
                start = time.perf_counter()
                x = invert(d)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            print(json.dumps({"p": p, "q": q, "prec": prec, "best_s": round(best, 4),
                              "sha256": hashlib.sha256(str(x).encode()).hexdigest()[:16]}))


if __name__ == "__main__":
    main()
