#!/usr/bin/env python3
"""Knit the Kronecker postprojective and preinjective components up to a
dimension cap, cross-check every member against the Tits-form root oracle,
and print the AR sequences ending at the first few postprojectives.

Exits 1 when a member's oracle verdict is not the component it was knitted
in, or when the AR sequence ending at P(n) is not found with left term
P(n - 2), of dims (n - 2, n - 1); 0 otherwise.
"""

import argparse
import sys

from arquiver import corpus
from arquiver.approx import Subcat
from arquiver.arseq import ar_end_in_subcat
from arquiver.knit import enumerate_indec, root_oracle_kronecker

COMPONENT = {"from-projectives": "postprojective", "from-injectives": "preinjective"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cap", type=int, default=13)
    args = parser.parse_args()
    alg = corpus.kronecker()
    problems = []
    for direction, component in COMPONENT.items():
        table = enumerate_indec(alg, args.cap, direction)
        print(f"{direction} (cap {args.cap}, truncated={table.truncated}):")
        for m in table.members:
            verdict = root_oracle_kronecker(alg, m.dims)
            print(f"  dims {m.dims}  oracle: {verdict}")
            if verdict != component:
                problems.append(f"{direction} member {m.dims} is {verdict}")
    pp = Subcat(alg, "postprojective", [], cap=args.cap)
    members = {m.dims: m for m in pp.members()}
    for n in (2, 3, 4):
        outcome = ar_end_in_subcat(members[(n, n + 1)], pp)
        if outcome.status != "found":
            problems.append(f"P({n}): {outcome.status} ({outcome.diagnostics})")
            continue
        ses = outcome.ses
        print(
            f"AR sequence ending at P({n}): "
            f"0 -> {ses.left.dims} -> {ses.middle.dims} -> {ses.right.dims} -> 0 "
            f"[{outcome.status}]"
        )
        if ses.left.dims != (n - 2, n - 1):
            problems.append(f"P({n}): left term dims {ses.left.dims}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
