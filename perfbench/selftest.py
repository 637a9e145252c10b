"""Show that every workload's checker counts a wrong answer as a failed
operation, and passes the right one.

    python3 perfbench/selftest.py

Run from the root of a checkout.  A few cheap operations of each workload
are run for real; their answers must pass.  Then each checker is given a
wrong answer made from a right one, and must count one failed operation.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import round as rnd  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def judged(op, answer) -> tuple:
    return rnd.judge([op], [(0.0, answer, None)])


def answers(ops, names) -> dict:
    chosen = [op for op in ops if op.name in names]
    return {op.name: (op, out) for op, (_, out, _) in zip(chosen, rnd.run_ops(chosen)[0])}


def ses_like(ses, **changes):
    parts = {"left": ses.left, "middle": ses.middle, "right": ses.right, "f": ses.f, "g": ses.g}
    parts.update(changes)
    return SimpleNamespace(**parts)


def zero_map(f):
    return SimpleNamespace(
        source=f.source, target=f.target, blocks=tuple(0 * b for b in f.blocks)
    )


def cases():
    """(label, op, answer, expected (failed, wrong))."""
    acc = workloads.build("accept", SEED)
    got = answers(acc, {"criterion-1"})
    op, res = got["criterion-1"]
    yield "accept: criterion 1 as run", op, res, (0, 0)
    yield "accept: criterion 1 reported failed", op, dataclasses.replace(res, passed=False), (1, 1)

    fam = workloads.build("ar-family", SEED)
    got = answers(fam, {"knit-families", "ar-end-P(3)", "ar-end-P(4)", "ar-start-Q(3)", "ar-start-Q(4)"})
    op, (post, pre) = got["knit-families"]
    yield "ar-family: knitted families as run", op, [post, pre], (0, 0)
    yield "ar-family: postprojective family missing its last member", op, [post[:-1], pre], (1, 1)
    yield "ar-family: the families exchanged", op, [pre, post], (1, 1)
    op3, ses3 = got["ar-end-P(3)"]
    _, ses4 = got["ar-end-P(4)"]
    yield "ar-family: sequence ending at P(3) as run", op3, ses3, (0, 0)
    yield "ar-family: sequence with left term P(2) for P(3)", op3, ses4, (1, 1)
    yield "ar-family: sequence with f = 0", op3, ses_like(ses3, f=zero_map(ses3.f)), (1, 1)
    opq, sesq3 = got["ar-start-Q(3)"]
    _, sesq4 = got["ar-start-Q(4)"]
    yield "ar-family: sequence starting at Q(3) as run", opq, sesq3, (0, 0)
    yield "ar-family: sequence starting at Q(4) for Q(3)", opq, sesq4, (1, 1)
    swapped = ses_like(sesq3, left=sesq3.right, right=sesq3.left)
    yield "ar-family: end terms swapped", opq, swapped, (1, 1)

    dec = workloads.build("decompose", SEED)
    names = [op.name for op in dec[:1]] + [op.name for op in dec if "(3, 4)" in op.name][:1]
    got = answers(dec, set(names))
    for name in names:
        op, summands = got[name]
        yield f"decompose: {name} as run", op, summands, (0, 0)
        rep, mult, incls, projs = summands[0]
        short = ([(rep, mult - 1, incls[:-1], projs[:-1])] if mult > 1 else []) + summands[1:]
        yield f"decompose: {name} missing one summand", op, short, (1, 1)
        if mult > 1:
            crossed = [(rep, mult, incls, projs[1:] + projs[:1])] + summands[1:]
            yield f"decompose: {name} projections of two copies exchanged", op, crossed, (1, 1)
        extra = summands + [summands[0]]
        yield f"decompose: {name} one summand listed twice", op, extra, (1, 1)

    def broken():
        raise workloads.OpFailed("construction-failed: for the self-test")

    yield "any workload: an operation that raises", workloads.Op("raises", broken, lambda _: []), None, (1, 0)


def main() -> int:
    bad = 0
    for label, op, answer, want in cases():
        if answer is None:
            got = rnd.judge([op], rnd.run_ops([op])[0])
        else:
            got = judged(op, answer)
        ok = got == want
        bad += not ok
        print(f"{'ok  ' if ok else 'BAD '} {label}: failed={got[0]} wrong={got[1]} (want {want[0]}, {want[1]})")
    print("selftest", "passed" if not bad else f"FAILED in {bad} case(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
