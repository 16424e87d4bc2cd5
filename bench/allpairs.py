"""All-pairs Monte Carlo study of the README Beta example 1.

For each of `--seeds` seeds derived from `--seed`, draws `--units` units
from the Beta(0.5, 0.5)-mixed population and scores every one of their
pairs with `cfb_monte_carlo(..., all_pairs=True)`.  Prints one
`seed,estimate,std_error` line per seed under a header line.

Needs the repository's `src` directory on PYTHONPATH:

    PYTHONPATH=src python3 bench/allpairs.py --seed 20230516
"""

import argparse
import random

from cfb import BetaXPopulation, ProbTriple, cfb_monte_carlo

POPULATION = BetaXPopulation(0.5, 0.5, ProbTriple(0.08, 0.0, 0.92), ProbTriple(0.0, 0.15, 0.85))


def derived_seeds(seed, count):
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(count)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seeds", type=int, default=40)
    ap.add_argument("--units", type=int, default=2000)
    args = ap.parse_args(argv)
    lines = ["seed,estimate,std_error"]
    for s in derived_seeds(args.seed, args.seeds):
        est, se = cfb_monte_carlo(POPULATION, args.units, s, all_pairs=True)
        lines.append(f"{s},{est!r},{se!r}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
