"""Print one SHA-256 over every answer of a benchmark workload's round.

usage: python scripts/answer_digest.py --workload {accept,ar-family,decompose} --seed N
                                      [--check FILE] [--rounds N]

Builds the round's operations with `perfbench/workloads.py` (imported, not
changed), runs each once in order and hashes every array (dtype, shape and
bytes), number and string in the answers, an operation that raised by its
exception type and message.  `CriterionResult.seconds` is left out, so two
checkouts that answer alike print the same digest: run it on both to show
that a change keeps every answer bit for bit.

With --check FILE it also compares the digest with the one pinned in FILE
(JSON: workload -> seed -> digest, as in tests/answer_digests.json) and
exits 1 when they differ.

With --rounds N it builds and runs the round N times in one process and
prints each round's digest; it exits 1 unless all N are equal.  A later
round may be answered from what the first round kept in each algebra's
memo (`accept` reuses its seed's corpus): Hom spaces, decompositions,
isomorphisms and realized extensions, by content.  So this compares warm
answers with cold ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from arquiver.acceptance import CriterionResult  # noqa: E402
from arquiver.algebra import Algebra  # noqa: E402
from arquiver.rep import Rep, RepMap  # noqa: E402

LEFT_OUT = {CriterionResult: {"seconds"}}


def _feed(h, x, path: set) -> None:
    """Hash x into h, each value tagged by its kind."""
    if x is None or isinstance(x, (bool, int, float, str, bytes)):
        h.update(f"{type(x).__name__}:{x!r};".encode())
    elif isinstance(x, np.generic):
        _feed(h, x.item(), path)
    elif isinstance(x, np.ndarray):
        h.update(f"array:{x.dtype.str}:{x.shape};".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (list, tuple)):
        h.update(f"{type(x).__name__}:{len(x)};".encode())
        for item in x:
            _feed(h, item, path)
    elif isinstance(x, dict):
        h.update(f"dict:{len(x)};".encode())
        for k, v in x.items():
            _feed(h, k, path)
            _feed(h, v, path)
    elif isinstance(x, Algebra):
        # the algebras are the workload's own inputs
        h.update(f"algebra:{x.p}:{x.quiver!r};".encode())
    elif id(x) in path:
        h.update(b"cycle;")
    else:
        path.add(id(x))
        if isinstance(x, Rep):
            parts = ("Rep", x.name, x.dims, list(x.maps.values()))
        elif isinstance(x, RepMap):
            parts = ("RepMap", x.source, x.target, x.blocks)
        elif dataclasses.is_dataclass(x):
            skip = LEFT_OUT.get(type(x), set())
            names = [f.name for f in dataclasses.fields(x)]
            parts = (type(x).__name__, [
                (n, getattr(x, n)) for n in names if n not in skip and not n.startswith("_")
            ])
        else:
            raise TypeError(f"no digest rule for {type(x).__name__}")
        _feed(h, parts, path)
        path.discard(id(x))


def digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for op in workloads.build(workload, seed):
        try:
            answer = op.run()
        except Exception as exc:  # a failed operation is part of the answers
            answer = ("raised", type(exc).__name__, str(exc))
        _feed(h, (op.name, answer), set())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--check", metavar="FILE", help="pinned digests to compare with")
    ap.add_argument("--rounds", type=int, default=1, help="rounds run in this process")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    want = None
    if args.check is not None:
        pinned = json.loads(Path(args.check).read_text())
        want = pinned.get(args.workload, {}).get(str(args.seed))
        if want is None:
            ap.error(f"{args.check} pins no digest for {args.workload} seed {args.seed}")
    digests = []
    for r in range(1, args.rounds + 1):
        digests.append(digest(args.workload, args.seed))
        label = f" round {r}" if args.rounds > 1 else ""
        print(f"{digests[-1]}  {args.workload} seed {args.seed}{label}")
    code = 0
    if len(set(digests)) > 1:
        print("the rounds answer differently")
        code = 1
    if want is not None and digests[0] != want:
        print(f"{want}  pinned in {args.check}: the answers differ")
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
