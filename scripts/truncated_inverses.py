"""Time ``algebra.invert`` on units, truncated (the solve over F) and exact
(the solve over K).

Each input is a unit of a cyclic algebra over F_p((t)): its first coordinate
is 1 + 3t, every other coordinate a seeded 3-term polynomial of degree at
most 5.  With every coordinate carrying O(t^prec) it takes the truncated
solve over F, which no benchmark workload runs; without the O-terms it takes
the exact solve over K = F_p((u)).  This script times both at several
precisions and prints one JSON line per (q, prec, route): the fastest of
``--repeat`` calls.

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


def unit_coords(D, rng):
    coords = ["1 + 3*t"]
    for _ in range(D.n - 1):
        exps = sorted(rng.sample(range(6), 3))
        coords.append(" + ".join(f"{rng.randrange(1, D.F.coeff.p)}*t^{e}" for e in exps))
    return coords


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
            coords = unit_coords(D, random.Random(args.seed))
            for route, tail in (("F", f" + O(t^{prec})"), ("K", "")):
                d = D.element([D.F.parse(c + tail) for c in coords])
                best = None
                for _ in range(args.repeat):
                    start = time.perf_counter()
                    x = invert(d)
                    elapsed = time.perf_counter() - start
                    best = elapsed if best is None else min(best, elapsed)
                print(json.dumps({"p": p, "q": q, "prec": prec, "route": route,
                                  "best_s": round(best, 4),
                                  "sha256": hashlib.sha256(str(x).encode()).hexdigest()[:16]}))


if __name__ == "__main__":
    main()
