"""Command-line front end.

One verb per concept, each taking only the flags it reads.  `run` reads
the files a verb declares (algebra, modules, subcategory, bundle) before the
verb runs; a verb that takes --seed or --cap echoes them on its first line,
so its verdict can be replayed bit-for-bit.  Exit codes: 0 pass, 1
verified-fail, 2 usage error, 3 cap/guard error.
"""

from __future__ import annotations

import argparse
import sys

from . import acceptance, fileio
from .approx import (
    CapExceeded,
    audit_extension_closed,
    canonical_precover,
    dual_subcat,
    is_precover,
    is_preenvelope,
    preenvelope_via_duality,
    right_minimal_reduce,
    right_minimality_certificate,
)
from .arseq import (
    ar_end_in_subcat,
    ar_sequence_global,
    ar_start_in_subcat,
    theorem_harness,
    verify_ar_sequence,
)
from .homological import SES, dtr, dtr_data, ext1, transpose, trd
from .knit import enumerate_indec
from .linalg import ModulusTooLarge
from .rep import (
    DEFAULT_SEED,
    PrimeTooSmall,
    RepMap,
    decompose,
    dual,
    hom_basis,
    is_indecomposable,
)
from .stable import (
    check_equiv_error_vs_stable,
    is_precover_with_error_term,
    is_stable_precover,
    stable_hom,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

_MODULE_FLAGS = ("module", "module2")  # in the order a verb reads them


class _Output:
    def __init__(self, out_path: str | None):
        self.out_path = out_path
        self.lines = []

    def say(self, text: str = ""):
        self.lines.append(text)
        print(text)

    def flush(self):
        if self.out_path:
            with open(self.out_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(self.lines) + "\n")


def count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"a count cannot be negative, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arquiver",
        description="Exact Auslander-Reiten theory over bound quiver algebras.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, *, algebra=False, modules=0, subcat=False, bundle=False,
            seed=False, cap=False, helptext=""):
        """A verb with the input files `run` reads for it and the shared
        flags it reads: --prime with an algebra or a bundle, --seed and
        --cap where asked, --out always."""
        p = sub.add_parser(verb, help=helptext)
        if algebra:
            p.add_argument("--algebra", required=True, help="algebra file")
        for flag in _MODULE_FLAGS[:modules]:
            p.add_argument(f"--{flag}", required=True, help="module file")
        if subcat:
            p.add_argument("--subcat", required=True, help="subcategory file")
        if bundle:
            p.add_argument("--bundle", required=True, help="bundle file")
        if algebra or bundle:
            p.add_argument("--prime", type=int, default=None)
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if cap:
            p.add_argument("--cap", type=int, default=acceptance.FAMILY_CAP)
        p.add_argument("--out", default=None, help="also write the report here")
        return p

    add("hom", algebra=True, modules=2, helptext="basis of Hom(M, N)")
    add("ext1", algebra=True, modules=2, helptext="dimension of Ext^1(M, N)")
    add("dtr", algebra=True, modules=1, helptext="the AR translate DTr M")
    add("trd", algebra=True, modules=1, helptext="the inverse translate TrD M")
    add("transpose", algebra=True, modules=1, helptext="Tr M over the opposite")
    add("dual", algebra=True, modules=1, helptext="D M over the opposite")
    add("decompose", algebra=True, modules=1, seed=True,
        helptext="indecomposable summands")
    add("indec", algebra=True, modules=1, helptext="certify indecomposability")
    p = add("stable-hom", algebra=True, modules=2, helptext="stable Hom dimensions")
    p.add_argument("--variant", choices=("inj", "proj"), default="inj")
    p = add("precover", algebra=True, modules=1, subcat=True,
            helptext="canonical precover of M, verified")
    p.add_argument("--variant", choices=("plain", "stable-inj"), default="plain")
    p = add("preenvelope", algebra=True, modules=1, subcat=True,
            helptext="canonical preenvelope of M via duality, verified")
    p.add_argument("--variant", choices=("plain", "stable-proj"), default="plain")
    p = add("minimal", algebra=True, bundle=True,
            helptext="right-minimal reduction of a morphism")
    p.add_argument("--morphism", default="nu", help="morphism name in the bundle")
    p = add("audit-subcat", algebra=True, subcat=True, seed=True,
            helptext="extension-closure audit")
    p.add_argument("--bound", type=int, default=None)
    add("ar-global", algebra=True, modules=1,
        helptext="classical AR sequence ending at M")
    add("ar-end", algebra=True, modules=1, subcat=True, seed=True,
        helptext="AR sequence in the subcategory ending at M")
    add("ar-start", algebra=True, modules=1, subcat=True, seed=True,
        helptext="AR sequence in the subcategory starting at M")
    add("verify-ar", algebra=True, subcat=True, bundle=True, seed=True,
        helptext="verify a sequence bundle (morphisms f and g)")
    add("theorem51", algebra=True, subcat=True, seed=True,
        helptext="existence-theorem harness (sequences ending in the subcategory)")
    add("theorem55", algebra=True, subcat=True, seed=True,
        helptext="dual harness, run over the dual subcategory")
    p = add("equiv-4x", seed=True, helptext="error-term vs stable precover equivalence run")
    p.add_argument("--instances", type=count, default=100)
    p.add_argument("--emit-dir", default=None,
                   help="directory for counterexample bundles")
    add("exactness-dp", algebra=True, cap=True,
        helptext="exactness of Hom(U, nu P.) for all injective U")
    p = add("knit", algebra=True, cap=True, helptext="knitted indecomposables up to cap")
    p.add_argument("--direction", choices=("from-projectives", "from-injectives"),
                   default="from-projectives")
    add("replay", bundle=True, helptext="re-run the check recorded in a bundle")
    p = add("accept", seed=True, helptext="run the full acceptance suite")
    p.add_argument("--emit-dir", default=None)
    return parser


def _load(args) -> tuple:
    """(algebra, modules, subcategory, bundle): the input files the verb
    declared, read in this order; None (no modules) where it declared none."""
    alg = fileio.read_algebra(args.algebra, prime=args.prime) if "algebra" in args else None
    mods = [fileio.read_module(getattr(args, flag), alg) for flag in _MODULE_FLAGS if flag in args]
    sub = fileio.read_subcat(args.subcat, alg) if "subcat" in args else None
    bundle = (
        fileio.read_bundle(args.bundle, prime=args.prime, algebra=alg)
        if "bundle" in args
        else None
    )
    return alg, mods, sub, bundle


def _say_header(out, args):
    """Echo --seed and --cap where the verb takes them; no line otherwise."""
    echoed = [f"{flag}={getattr(args, flag)}" for flag in ("seed", "cap") if flag in args]
    if echoed:
        out.say(" ".join(echoed))


def _say_module(out, m, name):
    out.say(fileio.format_module(m, name=name).rstrip("\n"))


def _say_ses(out, ses):
    out.say(fileio.format_ses(ses).rstrip("\n"))


def _dispatch(args, out, alg, mods, sub, bundle) -> int:
    verb = args.verb
    if verb == "hom":
        hs = hom_basis(*mods)
        out.say(f"dim Hom = {hs.dim}")
        for i, f in enumerate(hs.basis):
            out.say(fileio.format_morphism(f, f"h{i}", "M", "N").rstrip("\n"))
        return EXIT_PASS

    if verb == "ext1":
        out.say(f"dim Ext1 = {ext1(*mods).dim}")
        return EXIT_PASS

    if verb in ("dtr", "trd", "transpose", "dual"):
        fn = {"dtr": dtr, "trd": trd, "transpose": transpose, "dual": dual}[verb]
        result = fn(*mods)
        if verb in ("transpose", "dual"):
            out.say("# module over the opposite algebra")
        _say_module(out, result, verb.upper())
        return EXIT_PASS

    if verb == "decompose":
        for k, piece in enumerate(decompose(*mods, seed=args.seed)):
            out.say(f"# summand {k} multiplicity {piece.multiplicity}")
            _say_module(out, piece.rep, f"X{k}")
        return EXIT_PASS

    if verb == "indec":
        out.say(f"indecomposable = {str(is_indecomposable(*mods)).lower()}")
        return EXIT_PASS

    if verb == "stable-hom":
        sh = stable_hom(*mods, args.variant)
        out.say(
            f"dim Hom = {sh.hom.dim}; ideal dim = {sh.ideal_dim}; "
            f"stable dim = {sh.dim} ({args.variant})"
        )
        return EXIT_PASS

    if verb == "precover":
        nu, build = canonical_precover(sub, *mods, args.variant)
        report = is_precover(nu, sub, args.variant)
        out.say(f"contributing = {[(g.dims, d) for g, d in build.contributing]}")
        out.say(f"precover verified = {str(report.passed).lower()}")
        _say_module(out, nu.source, "N")
        return EXIT_PASS if report.passed else EXIT_FAIL

    if verb == "preenvelope":
        mu, build = preenvelope_via_duality(sub, *mods, args.variant)
        report = is_preenvelope(mu, sub, args.variant)
        out.say(f"preenvelope verified = {str(report.passed).lower()}")
        _say_module(out, mu.target, "E")
        return EXIT_PASS if report.passed else EXIT_FAIL

    if verb == "minimal":
        nu = bundle.morphism(args.morphism)
        reduced = right_minimal_reduce(nu)
        out.say(
            f"source dim {nu.source.total_dim} -> {reduced.source.total_dim}; "
            f"right minimal = {str(right_minimality_certificate(reduced)).lower()}"
        )
        _say_module(out, reduced.source, "Nmin")
        return EXIT_PASS

    if verb == "audit-subcat":
        report = audit_extension_closed(sub, bound=args.bound, seed=args.seed)
        out.say(f"sampling = {report.sampling_policy}")
        out.say(
            f"extension closed = {str(report.passed).lower()} "
            f"({report.pairs_checked} pairs, {report.classes_checked} classes)"
        )
        for *_, bad in report.failures:
            out.say("# witness middle outside subcategory:")
            _say_module(out, bad, "BAD")
        return EXIT_PASS if report.passed else EXIT_FAIL

    if verb == "ar-global":
        try:
            ses = ar_sequence_global(*mods)
        except PrimeTooSmall:
            raise
        except (ValueError, RuntimeError) as exc:
            out.say(f"failed: {exc}")
            return EXIT_FAIL
        _say_ses(out, ses)
        return EXIT_PASS

    if verb in ("ar-end", "ar-start"):
        fn = ar_end_in_subcat if verb == "ar-end" else ar_start_in_subcat
        outcome = fn(*mods, sub, seed=args.seed)
        out.say(f"# {sub.describe()}")
        out.say(f"status = {outcome.status}")
        if outcome.diagnostics:
            out.say(f"# {outcome.diagnostics}")
        if outcome.status == "found":
            _say_ses(out, outcome.ses)
            return EXIT_PASS
        return EXIT_PASS if outcome.status == "hypothesis-not-satisfied" else EXIT_FAIL

    if verb == "verify-ar":
        ses = SES(bundle.morphism("f"), bundle.morphism("g"))
        report = verify_ar_sequence(ses, sub, seed=args.seed)
        out.say(f"# {sub.describe()}")
        out.say(f"membership = {report.membership}")
        out.say(f"right almost split = {str(report.right_report.passed).lower()}")
        out.say(f"left almost split = {str(report.left_report.passed).lower()}")
        out.say(f"verified = {str(report.passed).lower()}")
        for t, h in report.right_report.failures + report.left_report.failures:
            out.say(f"# unfactored test map from/into module of dims {t.dims}")
        return EXIT_PASS if report.passed else EXIT_FAIL

    if verb in ("theorem51", "theorem55"):
        if verb == "theorem55":
            sub = dual_subcat(sub)
            note = "dual subcategory over the opposite algebra"
        else:
            note = sub.describe()
        report = theorem_harness(sub, seed=args.seed)
        out.say(f"# {note}")
        out.say(report.machine_block() or "# no rows")
        out.say(f"harness passed = {str(report.passed).lower()}")
        return EXIT_PASS if report.passed else EXIT_FAIL

    if verb == "equiv-4x":
        report = check_equiv_error_vs_stable(args.instances, seed=args.seed)
        out.say(f"agreements = {report.agreements}/{args.instances}")
        if not report.disagreements:
            return EXIT_PASS
        emit_dir = args.emit_dir or "."
        for path in acceptance.write_equiv_bundles(report.disagreements, args.seed, emit_dir):
            out.say(f"counterexample written to {path}")
        return EXIT_FAIL

    if verb == "exactness-dp":
        pairs, failures = acceptance.exactness_failures(alg, args.cap)
        out.say(f"pairs = {pairs}; failures = {[(u.dims, m.dims) for u, m in failures]}")
        return EXIT_PASS if not failures else EXIT_FAIL

    if verb == "knit":
        table = enumerate_indec(alg, args.cap, args.direction)
        out.say(f"direction = {args.direction}; truncated = {str(table.truncated).lower()}")
        for m in table.members:
            out.say(f"member dims = {m.dims}")
        return EXIT_PASS

    if verb == "replay":
        return _replay(bundle, out)

    if verb == "accept":
        results = acceptance.run_all(seed=args.seed, out_dir=args.emit_dir)
        out.say(acceptance.format_report(results, seed=args.seed))
        return EXIT_PASS if all(r.passed for r in results) else EXIT_FAIL

    raise AssertionError(f"unhandled verb {verb!r}")


def _replay(bundle, out) -> int:
    check = bundle.check
    verb = check.get("verb")
    out.say(f"replaying check verb = {verb}")
    if verb == "equiv-4x":
        m = bundle.module(bundle.option("module"))
        nu = bundle.morphism(bundle.option("nu"))
        gens = [
            bundle.module(name)
            for name in check.get("gens", "").split(",")
            if name
        ]
        data = dtr_data(m)
        # re-anchor the stored target at the recomputed DTr M (entry-identical
        # by determinism, but a distinct object after parsing)
        nu = RepMap(nu.source, data.rep, nu.blocks, check=True)
        err = is_precover_with_error_term(nu, gens, m)
        stab = is_stable_precover(nu, gens, m, data)
        out.say(f"error-term verdict = {str(err.passed).lower()}")
        out.say(f"stable verdict = {str(stab.passed).lower()}")
        agree = err.passed == stab.passed
        out.say(f"verdicts agree = {str(agree).lower()}")
        return EXIT_PASS if agree else EXIT_FAIL
    out.say("nothing to replay for this bundle")
    return EXIT_USAGE


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    out = _Output(args.out)
    try:
        inputs = _load(args)
        _say_header(out, args)
        code = _dispatch(args, out, *inputs)
    except (CapExceeded, PrimeTooSmall, ModulusTooLarge) as exc:
        out.say(f"guard: {exc}")
        code = EXIT_GUARD
    except (fileio.ParseError, FileNotFoundError) as exc:
        out.say(f"usage error: {exc}")
        code = EXIT_USAGE
    out.flush()
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
