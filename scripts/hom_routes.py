"""Count how each round of a benchmark workload gets its Hom spaces.

usage: python scripts/hom_routes.py --workload {accept,ar-family,decompose} --seed N
                                    [--rounds N]

Builds the round's operations with `perfbench/workloads.py` (imported, not
changed) and runs each once in order, as `scripts/answer_digest.py` does,
with counters wrapped around the program from outside.  A Hom space that
`rep.hom_basis` works out (a memo hit is not counted) is either

- solved: `linalg.kernel_basis` of its commuting system `rep._hom_system`;
- read off a dual: `rep._dual_hom`, off Hom(DN, DM) over the opposite
  algebra;
- read off a split: `rep._split_hom`, off the Hom spaces of the parts of
  a split kept for one of its modules (a term of a verified AR sequence,
  a sum of indecomposable projectives or injectives).

It prints one line per round with those three counts, the unknowns of the
solved systems and the End algebras built (`rep.EndAlgebra`).  An operation
the program reports it cannot answer (`workloads.OpFailed`) is counted like
any other; anything else it raises stops the script.  With
--rounds N the round is built and run N times in one process; a later round
is answered partly from the memos the first one filled.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from arquiver import rep  # noqa: E402

COUNTS: Counter = Counter()


def _count_hom_routes() -> None:
    """Wrap the three routes of hom_basis and the End build with counters."""
    hom_system, dual_hom, split_hom = rep._hom_system, rep._dual_hom, rep._split_hom
    end_init = rep.EndAlgebra.__init__

    def solved(m, n):
        system = hom_system(m, n)
        COUNTS["solved"] += 1
        COUNTS["unknowns"] += system.shape[1]
        return system

    def read_off(route, name):
        def wrapper(m, n):
            flat = route(m, n)
            if flat is not None:
                COUNTS[name] += 1
            return flat

        return wrapper

    def end_built(self, m):
        COUNTS["End builds"] += 1
        end_init(self, m)

    rep._hom_system = solved
    rep._dual_hom = read_off(dual_hom, "dual")
    rep._split_hom = read_off(split_hom, "split")
    rep.EndAlgebra.__init__ = end_built


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--rounds", type=int, default=1, help="rounds run in this process")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    _count_hom_routes()
    for r in range(1, args.rounds + 1):
        COUNTS.clear()
        for op in workloads.build(args.workload, args.seed):
            try:
                op.run()
            except workloads.OpFailed:
                pass
        print(
            f"{args.workload} seed {args.seed} round {r}: "
            f"Hom solved {COUNTS['solved']} ({COUNTS['unknowns']} unknowns), "
            f"read off a dual {COUNTS['dual']}, read off a split {COUNTS['split']}; "
            f"End builds {COUNTS['End builds']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
