import numpy as np
import pytest

from arquiver import corpus, fileio
from arquiver.cli import run
from arquiver.homological import proj
from arquiver.rep import Rep, RepMap, direct_sum, hom_basis, identity_map, iso, simple


@pytest.fixture(scope="module")
def a2_files(tmp_path_factory):
    """Algebra, simple/projective module files and a whole-category subcat."""
    root = tmp_path_factory.mktemp("a2")
    alg = corpus.a2()
    fileio.write_algebra(alg, str(root / "a2.alg"))
    fileio.write_module(simple(alg, 1), str(root / "s1.mod"), name="S1")
    fileio.write_module(simple(alg, 2), str(root / "s2.mod"), name="S2")
    fileio.write_module(proj(alg, 1), str(root / "p1.mod"), name="P1")
    (root / "whole.sub").write_text("subcat finite\ns1.mod\ns2.mod\np1.mod\n")
    (root / "notclosed.sub").write_text("subcat finite\ns1.mod\ns2.mod\n")
    return root


@pytest.fixture(scope="module")
def kron_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("kron")
    alg = corpus.kronecker()
    fileio.write_algebra(alg, str(root / "kron.alg"))
    p2 = Rep(
        alg,
        (2, 3),
        {"a": [[1, 0], [0, 1], [0, 0]], "b": [[0, 0], [1, 0], [0, 1]]},
    )
    fileio.write_module(p2, str(root / "p2.mod"), name="P2")
    fileio.write_subcat_family("postprojective", 13, str(root / "pp13.sub"))
    return root


def test_usage_errors():
    assert run(["no-such-verb"]) == 2
    assert run([]) == 2
    assert run(["dtr"]) == 2  # missing required arguments


def test_dtr_prints_module_iso_to_s2(a2_files, capsys):
    code = run(
        ["dtr", "--algebra", str(a2_files / "a2.alg"), "--module", str(a2_files / "s1.mod")]
    )
    assert code == 0
    text = capsys.readouterr().out
    # dtr takes neither --seed nor --cap, so it prints no header line
    assert text.startswith("module DTR\n")
    assert "seed=" not in text and "cap=" not in text
    block = "module" + text.split("module", 1)[1]
    alg = corpus.a2()
    back = fileio.parse_module(block, alg)
    assert iso(back, simple(alg, 2)) is not None


def test_hom_and_ext1(a2_files, capsys):
    args = [
        "--algebra", str(a2_files / "a2.alg"),
        "--module", str(a2_files / "p1.mod"),
        "--module2", str(a2_files / "s1.mod"),
    ]
    assert run(["hom"] + args) == 0
    assert "dim Hom = 1" in capsys.readouterr().out
    assert run(["ext1", "--algebra", str(a2_files / "a2.alg"),
                "--module", str(a2_files / "s1.mod"),
                "--module2", str(a2_files / "s2.mod")]) == 0
    assert "dim Ext1 = 1" in capsys.readouterr().out


def test_indec_and_decompose(a2_files, capsys):
    assert run(["indec", "--algebra", str(a2_files / "a2.alg"),
                "--module", str(a2_files / "p1.mod")]) == 0
    assert "indecomposable = true" in capsys.readouterr().out
    assert run(["decompose", "--algebra", str(a2_files / "a2.alg"),
                "--module", str(a2_files / "p1.mod")]) == 0
    assert "summand 0 multiplicity 1" in capsys.readouterr().out


def test_stable_hom(a2_files, capsys):
    assert run(["stable-hom", "--algebra", str(a2_files / "a2.alg"),
                "--module", str(a2_files / "s2.mod"),
                "--module2", str(a2_files / "s2.mod")]) == 0
    assert "stable dim = 1 (inj)" in capsys.readouterr().out


def test_precover_and_preenvelope(a2_files, capsys):
    base = ["--algebra", str(a2_files / "a2.alg"),
            "--subcat", str(a2_files / "whole.sub")]
    assert run(["precover", "--module", str(a2_files / "s1.mod")] + base) == 0
    assert "precover verified = true" in capsys.readouterr().out
    assert run(["preenvelope", "--module", str(a2_files / "s2.mod")] + base) == 0
    assert "preenvelope verified = true" in capsys.readouterr().out


def test_audit_subcat(a2_files, capsys):
    base = ["--algebra", str(a2_files / "a2.alg")]
    assert run(["audit-subcat", "--subcat", str(a2_files / "whole.sub")] + base) == 0
    assert "extension closed = true" in capsys.readouterr().out
    assert run(["audit-subcat", "--subcat", str(a2_files / "notclosed.sub")] + base) == 1
    assert "extension closed = false" in capsys.readouterr().out


def test_ar_global(a2_files, capsys):
    base = ["--algebra", str(a2_files / "a2.alg")]
    assert run(["ar-global", "--module", str(a2_files / "s1.mod")] + base) == 0
    text = capsys.readouterr().out
    assert "morphism f" in text and "morphism g" in text
    assert run(["ar-global", "--module", str(a2_files / "p1.mod")] + base) == 1


def test_ar_end_and_start(a2_files, capsys):
    base = ["--algebra", str(a2_files / "a2.alg"),
            "--subcat", str(a2_files / "whole.sub")]
    assert run(["ar-end", "--module", str(a2_files / "s1.mod")] + base) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["seed=1", "# finite[3 gens]", "status = found"]
    assert run(["ar-start", "--module", str(a2_files / "s2.mod")] + base) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["seed=1", "# finite[3 gens]", "status = found"]
    # projective end: hypothesis not satisfied, still exit 0
    assert run(["ar-end", "--module", str(a2_files / "p1.mod")] + base) == 0
    assert "hypothesis-not-satisfied" in capsys.readouterr().out


def test_verify_ar_bundle(a2_files, tmp_path, capsys):
    alg = corpus.a2()
    s1, s2, p1 = simple(alg, 1), simple(alg, 2), proj(alg, 1)
    f = hom_basis(s2, p1).basis[0]
    g = hom_basis(p1, s1).basis[0]
    good = fileio.Bundle(
        alg,
        modules={"X": s2, "Y": p1, "Z": s1},
        morphisms={"f": f, "g": g},
        check={"verb": "verify-ar"},
    )
    good_path = tmp_path / "good.bundle"
    good.write(str(good_path))
    base = ["--algebra", str(a2_files / "a2.alg"),
            "--subcat", str(a2_files / "whole.sub")]
    assert run(["verify-ar", "--bundle", str(good_path)] + base) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[:2] == ["seed=1", "# finite[3 gens]"]
    assert "verified = true" in text

    total, injs, projs = direct_sum([s2, s1])
    split = fileio.Bundle(
        alg,
        modules={"X": s2, "Y": total, "Z": s1},
        morphisms={"f": injs[0], "g": projs[1]},
        check={"verb": "verify-ar"},
    )
    split_path = tmp_path / "split.bundle"
    split.write(str(split_path))
    assert run(["verify-ar", "--bundle", str(split_path)] + base) == 1
    text = capsys.readouterr().out
    assert "right almost split = false" in text
    assert "left almost split = false" in text
    # split maps fail by splitting: every radical test map factors
    assert "# unfactored test map" not in text


def test_verify_ar_lists_unfactored_test_maps(tmp_path, capsys):
    # the realized class e0 of Ext^1(R_2(0), DTr R_2(0)) is not almost split:
    # one radical test map on each side does not factor, right side first
    from arquiver.homological import dtr, ext1

    alg = corpus.kronecker()
    eye = np.eye(2, dtype=np.int64)
    r = Rep(alg, (2, 2), {"a": eye, "b": np.eye(2, k=1, dtype=np.int64)})
    ext = ext1(r, dtr(r))
    ses = ext.realize(ext.basis_classes()[0])
    fileio.write_algebra(alg, str(tmp_path / "kron.alg"))
    fileio.write_module(r, str(tmp_path / "r.mod"), name="R")
    (tmp_path / "r.sub").write_text("subcat finite\nr.mod\n")
    bundle = fileio.Bundle(
        alg,
        modules={"X": ses.left, "Y": ses.middle, "Z": ses.right},
        morphisms={"f": ses.f, "g": ses.g},
        check={"verb": "verify-ar"},
    )
    bundle.write(str(tmp_path / "e0.bundle"))
    assert run(["verify-ar", "--bundle", str(tmp_path / "e0.bundle"),
                "--algebra", str(tmp_path / "kron.alg"),
                "--subcat", str(tmp_path / "r.sub")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "right almost split = false" in lines
    assert "left almost split = false" in lines
    unfactored = [line for line in lines if line.startswith("# unfactored")]
    assert unfactored == ["# unfactored test map from/into module of dims (2, 2)"] * 2


def test_theorem_harness_verbs(a2_files, capsys):
    base = ["--algebra", str(a2_files / "a2.alg"),
            "--subcat", str(a2_files / "whole.sub")]
    assert run(["theorem51"] + base) == 0
    text = capsys.readouterr().out
    assert "row M=" in text and "agree=true" in text
    assert run(["theorem55"] + base) == 0
    assert "harness passed = true" in capsys.readouterr().out


def test_theorem51_kronecker_family(kron_files, capsys):
    assert run(["theorem51", "--algebra", str(kron_files / "kron.alg"),
                "--subcat", str(kron_files / "pp13.sub")]) == 0
    text = capsys.readouterr().out
    assert text.count("row M=") == 7


def test_equiv_4x_small(capsys):
    assert run(["equiv-4x", "--instances", "10", "--seed", "3"]) == 0
    assert "agreements = 10/10" in capsys.readouterr().out


def test_a_negative_instance_count_is_a_usage_error(capsys):
    assert run(["equiv-4x", "--instances", "-2"]) == 2
    assert "a count cannot be negative" in capsys.readouterr().err


def test_exactness_dp(a2_files, capsys):
    assert run(["exactness-dp", "--algebra", str(a2_files / "a2.alg")]) == 0
    assert "failures = []" in capsys.readouterr().out


def test_knit(kron_files, capsys):
    assert run(["knit", "--algebra", str(kron_files / "kron.alg"),
                "--cap", "13"]) == 0
    text = capsys.readouterr().out
    assert "truncated = true" in text
    assert "member dims = (6, 7)" in text


def test_replay_equiv_bundle(tmp_path, capsys):
    alg = corpus.a2()
    s1, s2 = simple(alg, 1), simple(alg, 2)
    from arquiver.homological import dtr_data

    data = dtr_data(s1)
    nu = identity_map(data.rep)
    bundle = fileio.Bundle(
        alg,
        modules={"M": s1, "N": data.rep, "DTrM": data.rep, "G0": s2},
        morphisms={"nu": nu},
        check={"verb": "equiv-4x", "module": "M", "nu": "nu", "gens": "G0"},
    )
    path = tmp_path / "replay.bundle"
    bundle.write(str(path))
    assert run(["replay", "--bundle", str(path)]) == 0
    text = capsys.readouterr().out
    assert "verdicts agree = true" in text


def test_out_flag_writes_report(a2_files, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert run(["ext1", "--algebra", str(a2_files / "a2.alg"),
                "--module", str(a2_files / "s1.mod"),
                "--module2", str(a2_files / "s2.mod"),
                "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert "dim Ext1 = 1" in out_path.read_text()


def test_guard_exit_code(kron_files, tmp_path, capsys):
    # an indecomposable beyond the family cap trips the guard (exit 3)
    alg = corpus.kronecker()
    n = 7
    a = np.vstack([np.eye(n, dtype=np.int64), np.zeros((1, n), dtype=np.int64)])
    b = np.vstack([np.zeros((1, n), dtype=np.int64), np.eye(n, dtype=np.int64)])
    p7 = Rep(alg, (n, n + 1), {"a": a, "b": b})
    path = tmp_path / "p7.mod"
    fileio.write_module(p7, str(path), name="P7")
    assert run(["ar-end", "--algebra", str(kron_files / "kron.alg"),
                "--module", str(path),
                "--subcat", str(kron_files / "pp13.sub")]) == 3
    assert "guard:" in capsys.readouterr().out


def test_ar_start_guard_exit_code(kron_files, tmp_path, capsys):
    # as for ar-end: Q(7) lies beyond the preinjective cap (exit 3)
    alg = corpus.kronecker()
    n = 7
    a = np.hstack([np.eye(n, dtype=np.int64), np.zeros((n, 1), dtype=np.int64)])
    b = np.hstack([np.zeros((n, 1), dtype=np.int64), np.eye(n, dtype=np.int64)])
    q7 = Rep(alg, (n + 1, n), {"a": a, "b": b})
    fileio.write_module(q7, str(tmp_path / "q7.mod"), name="Q7")
    fileio.write_subcat_family("preinjective", 13, str(tmp_path / "pi13.sub"))
    assert run(["ar-start", "--algebra", str(kron_files / "kron.alg"),
                "--module", str(tmp_path / "q7.mod"),
                "--subcat", str(tmp_path / "pi13.sub")]) == 3
    assert "guard:" in capsys.readouterr().out


def _kron_ar_end(kron_files, tmp_path, subcat_text, prime=None):
    alg = corpus.kronecker()
    fileio.write_module(simple(alg, 1), str(tmp_path / "s1.mod"), name="S1")
    fileio.write_module(Rep(alg, (2, 0), {}), str(tmp_path / "s1s1.mod"), name="S1S1")
    fileio.write_module(Rep(alg, (5, 0), {}), str(tmp_path / "s1x5.mod"), name="S1x5")
    (tmp_path / "x.sub").write_text(subcat_text)
    flags = [] if prime is None else ["--prime", str(prime)]
    return run(["ar-end", "--algebra", str(kron_files / "kron.alg"), *flags,
                "--module", str(tmp_path / "s1.mod"), "--subcat", str(tmp_path / "x.sub")])


@pytest.mark.parametrize(
    "subcat_text, message",
    [
        ("subcat postprojective cap -1\n", "family subcategories need a positive cap"),
        ("subcat finite\ns1s1.mod\n", "generators must be indecomposable"),
        ("subcat finite\ns1.mod\ns1.mod\n", "generators must be pairwise non-isomorphic"),
    ],
)
def test_a_malformed_subcat_is_a_usage_error(kron_files, tmp_path, capsys, subcat_text,
                                             message):
    assert _kron_ar_end(kron_files, tmp_path, subcat_text) == 2
    out = capsys.readouterr().out.strip()
    assert out == f"usage error: subcat cannot be built: {message}"


def test_a_subcat_generator_beyond_the_radical_guard_is_a_guard(kron_files, tmp_path,
                                                                capsys):
    # End(S1^5) has dimension 25: over F_2 neither the trace form nor the
    # exhaustive idempotent search may decide it
    assert _kron_ar_end(kron_files, tmp_path, "subcat finite\ns1x5.mod\n", prime=2) == 3
    assert capsys.readouterr().out.startswith("guard: ")


def test_ar_end_shows_the_family_cap(kron_files, capsys):
    # ar-end takes no --cap; the family's own cap is shown below the header
    assert run(["ar-end", "--algebra", str(kron_files / "kron.alg"),
                "--module", str(kron_files / "p2.mod"),
                "--subcat", str(kron_files / "pp13.sub")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["seed=1", "# postprojective[cap 13]", "status = found"]


# the shared flags each verb reads: --seed where it passes a seed on, --cap
# where it knits, --prime where it reads an algebra or a bundle, --out always
VERB_FLAGS = {
    "hom": "prime", "ext1": "prime", "dtr": "prime", "trd": "prime",
    "transpose": "prime", "dual": "prime", "decompose": "prime seed",
    "indec": "prime", "stable-hom": "prime", "precover": "prime",
    "preenvelope": "prime", "minimal": "prime", "audit-subcat": "prime seed",
    "ar-global": "prime", "ar-end": "prime seed", "ar-start": "prime seed",
    "verify-ar": "prime seed", "theorem51": "prime seed", "theorem55": "prime seed",
    "equiv-4x": "seed", "exactness-dp": "prime cap", "knit": "prime cap",
    "replay": "prime", "accept": "seed",
}


def test_each_verb_takes_only_the_flags_it_reads(capsys):
    shared = 0
    for verb, flags in VERB_FLAGS.items():
        assert run([verb, "--help"]) == 0
        text = capsys.readouterr().out
        got = {flag for flag in ("seed", "cap", "prime", "out") if f"--{flag}" in text}
        assert got == set(flags.split()) | {"out"}, verb
        shared += len(got)
    assert shared == 57


@pytest.mark.parametrize(
    "argv",
    [
        ["ar-end", "--algebra", "a.alg", "--module", "m.mod", "--subcat", "s.sub",
         "--cap", "5"],
        ["dtr", "--algebra", "a.alg", "--module", "m.mod", "--seed", "2"],
        ["hom", "--algebra", "a.alg", "--module", "m.mod", "--module2", "n.mod",
         "--cap", "5"],
        ["theorem51", "--algebra", "a.alg", "--subcat", "s.sub", "--cap", "5"],
        ["accept", "--prime", "5"],
        ["equiv-4x", "--prime", "5"],
        ["knit", "--algebra", "a.alg", "--seed", "2"],
    ],
)
def test_an_unread_flag_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


def test_decompose_echoes_its_seed(a2_files, capsys):
    assert run(["decompose", "--algebra", str(a2_files / "a2.alg"),
                "--module", str(a2_files / "p1.mod"), "--seed", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "seed=2", "# summand 0 multiplicity 1"
    ]


def test_knit_echoes_its_cap(kron_files, capsys):
    assert run(["knit", "--algebra", str(kron_files / "kron.alg"), "--cap", "7"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "cap=7"


def test_minimal_reduces_a_redundant_source(a2_files, tmp_path, capsys):
    # nu: S1 + S1 -> S1 with vertex-1 block [1 1] reduces to one copy of S1
    alg = corpus.a2()
    s1 = simple(alg, 1)
    n = direct_sum([s1, s1])[0]
    nu = RepMap(n, s1, (np.array([[1, 1]], dtype=np.int64), np.zeros((0, 0), dtype=np.int64)))
    fileio.Bundle(
        alg, modules={"N": n, "S1": s1}, morphisms={"nu": nu}, check={"verb": "minimal"}
    ).write(str(tmp_path / "nu.bundle"))
    assert run(["minimal", "--algebra", str(a2_files / "a2.alg"),
                "--bundle", str(tmp_path / "nu.bundle")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "source dim 2 -> 1; right minimal = true"


@pytest.mark.parametrize(
    "p, n, code",
    [
        (32003, 3, 0),  # a regular module: no knitted member, still found
        (5, 3, 0),
        (3, 3, 3),  # p <= dim End = 3: the trace-form radical is refused
        (3, 11, 3),  # 3**11 > EXHAUSTIVE_END_LIMIT: indecomposability refused
    ],
)
def test_ar_global_regular_kronecker(tmp_path, capsys, p, n, code):
    alg = corpus.kronecker(p)
    fileio.write_algebra(alg, str(tmp_path / "kron.alg"))
    eye = np.eye(n, dtype=np.int64)
    r_n = Rep(alg, (n, n), {"a": eye, "b": np.eye(n, k=1, dtype=np.int64)})
    fileio.write_module(r_n, str(tmp_path / "r.mod"), name="R")
    assert run(["ar-global", "--algebra", str(tmp_path / "kron.alg"),
                "--module", str(tmp_path / "r.mod")]) == code
    text = capsys.readouterr().out
    if code == 0:
        assert "morphism f" in text and "morphism g" in text
    else:
        assert "guard: p=3 <= dim End" in text


def test_accept_runs_all(capsys):
    assert run(["accept"]) == 0
    text = capsys.readouterr().out
    assert text.count("criterion") == 8
    assert "overall [PASS] 8/8" in text


def test_composite_field_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "bad.alg").write_text("field 32004\nvertices 2\narrow a 1 2\n")
    (tmp_path / "s1.mod").write_text("module S1\ndim 1 0\nmap a 0 1\n")
    code = run(
        ["dtr", "--algebra", str(tmp_path / "bad.alg"), "--module", str(tmp_path / "s1.mod")]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert out.strip() == "usage error: field modulus 32004 is not a prime"


def test_product_beyond_int64_is_a_guard(tmp_path, capsys):
    # 3037000493 is prime with (p - 1)**2 < 2**63, but a 2-term product may wrap
    alg = corpus.kronecker(3037000493)
    fileio.write_algebra(alg, str(tmp_path / "big.alg"))
    (tmp_path / "p2.mod").write_text(
        "module P2\ndim 2 3\nmap a 3 2\n1 0\n0 1\n0 0\nmap b 3 2\n0 0\n1 0\n0 1\n"
    )
    code = run(
        ["dtr", "--algebra", str(tmp_path / "big.alg"), "--module", str(tmp_path / "p2.mod")]
    )
    assert code == 3
    assert "guard: inner dimension" in capsys.readouterr().out


@pytest.mark.parametrize(
    "module_text, message",
    [
        # x is nonzero but the relation x.x = 0 holds only for x nilpotent
        ("module M\ndim 1\nmap x 1 1\n1\n", "does not satisfy the relations"),
        # a 2 x 2 block with a single row
        ("module M\ndim 2\nmap x 2 2\n0 1\n", "expected 2 rows, got 1"),
        # a map header with three fields
        ("module M\ndim 1\nmap x 1\n0\n", "map line needs 'map <arrow> <rows> <cols>'"),
        # a map header whose row count is not an integer
        ("module M\ndim 1\nmap x one 1\n0\n", "map rows must be an integer, got 'one'"),
        # a dimension that is not an integer
        ("module M\ndim one\n", "dimension must be an integer, got 'one'"),
        # a map block with a negative row count
        ("module M\ndim 1\nmap x -1 1\n", "negative matrix shape -1 x 1"),
        # two maps for one arrow: neither may silently win
        ("module M\ndim 1\nmap x 1 1\n0\nmap x 1 1\n0\n",
         "module 'M' has two maps for arrow 'x'"),
        # a map header whose shape no file of this length can fill
        ("module M\ndim 1\nmap x 10000000 10000000\n", "expected 10000000 rows, got 0"),
        # an arrow without a map line is a zero map of a shape numpy refuses
        ("module M\ndim 10000000\n", "module 'M' cannot be built: "),
    ],
)
def test_malformed_module_is_a_usage_error(tmp_path, capsys, module_text, message):
    fileio.write_algebra(corpus.loop(), str(tmp_path / "loop.alg"))
    (tmp_path / "bad.mod").write_text(module_text)
    code = run(
        ["dtr", "--algebra", str(tmp_path / "loop.alg"), "--module", str(tmp_path / "bad.mod")]
    )
    assert code == 2
    out = capsys.readouterr().out.strip()
    assert out.startswith("usage error: ") and message in out
    assert "\n" not in out


@pytest.mark.parametrize(
    "algebra_text, message",
    [
        ("field abc\nvertices 2\narrow a 1 2\n", "field modulus must be an integer, got 'abc'"),
        ("field 32003\nvertices 2\narrow a 1 5\n", "arrow 'a' has out-of-range endpoints"),
    ],
)
def test_malformed_algebra_is_a_usage_error(tmp_path, capsys, algebra_text, message):
    (tmp_path / "bad.alg").write_text(algebra_text)
    (tmp_path / "s1.mod").write_text("module S1\ndim 1 0\nmap a 0 1\n")
    code = run(
        ["dtr", "--algebra", str(tmp_path / "bad.alg"), "--module", str(tmp_path / "s1.mod")]
    )
    assert code == 2
    assert capsys.readouterr().out.strip() == f"usage error: {message}"


def test_non_commuting_bundle_morphism_is_a_usage_error(a2_files, tmp_path, capsys):
    # the identity of P1 over A2 with its vertex-2 block set to 0
    text = "\n".join(
        [
            fileio.BUNDLE_HEADER,
            "begin algebra",
            fileio.format_algebra(corpus.a2()).rstrip("\n"),
            "end",
            "begin module",
            "module P1\ndim 1 1\nmap a 1 1\n1",
            "end",
            "begin morphism",
            "morphism nu P1 P1\nblock 1 1 1\n1\nblock 2 1 1\n0",
            "end",
            "check minimal",
        ]
    )
    (tmp_path / "bad.bundle").write_text(text + "\n")
    code = run(
        ["minimal", "--algebra", str(a2_files / "a2.alg"),
         "--bundle", str(tmp_path / "bad.bundle")]
    )
    assert code == 2
    out = capsys.readouterr().out.strip()
    assert out == "usage error: morphism 'nu': map does not commute with arrow 'a'"


@pytest.mark.parametrize(
    "section, message",
    [
        # nothing between `begin morphism` and `end`
        (["begin morphism", "end"],
         "morphism block must start with 'morphism <name> <src> <tgt>'"),
        # a section of a kind no bundle holds
        (["begin widget", "widget w", "end"], "unknown section kind 'widget' in bundle"),
        # two entries of one name: neither may silently win
        (["begin module", "module S1\ndim 1 0", "end"] * 2, "bundle has two modules named 'S1'"),
        (["begin module", "module S1\ndim 1 0", "end"]
         + ["begin morphism", "morphism nu S1 S1\nblock 1 1 1\n1\nblock 2 0 0", "end"] * 2,
         "bundle has two morphisms named 'nu'"),
    ],
    ids=["empty-morphism", "unknown-kind", "duplicate-module", "duplicate-morphism"],
)
def test_a_malformed_bundle_section_is_a_usage_error(kron_files, tmp_path, capsys,
                                                     section, message):
    text = "\n".join(
        [
            fileio.BUNDLE_HEADER,
            "begin algebra",
            fileio.format_algebra(corpus.kronecker()).rstrip("\n"),
            "end",
            *section,
            "check minimal",
        ]
    )
    (tmp_path / "b.bundle").write_text(text + "\n")
    code = run(
        ["minimal", "--algebra", str(kron_files / "kron.alg"),
         "--bundle", str(tmp_path / "b.bundle")]
    )
    assert code == 2
    assert capsys.readouterr().out.strip() == f"usage error: {message}"


def test_a_bundle_without_the_named_entry_is_a_usage_error(a2_files, tmp_path, capsys):
    # a `minimal` bundle holds the morphism nu, not the f and g of verify-ar
    alg = corpus.a2()
    s1 = simple(alg, 1)
    fileio.Bundle(
        alg, modules={"S1": s1}, morphisms={"nu": identity_map(s1)},
        check={"verb": "minimal"},
    ).write(str(tmp_path / "nu.bundle"))
    code = run(["verify-ar", "--bundle", str(tmp_path / "nu.bundle"),
                "--algebra", str(a2_files / "a2.alg"),
                "--subcat", str(a2_files / "whole.sub")])
    assert code == 2
    assert capsys.readouterr().out.splitlines()[-1] == "usage error: bundle has no morphism 'f'"
    code = run(["minimal", "--bundle", str(tmp_path / "nu.bundle"),
                "--algebra", str(a2_files / "a2.alg"), "--morphism", "mu"])
    assert code == 2
    assert capsys.readouterr().out.strip() == "usage error: bundle has no morphism 'mu'"
    fileio.Bundle(
        alg, modules={"S1": s1}, morphisms={"nu": identity_map(s1)},
        check={"verb": "equiv-4x", "nu": "nu"},
    ).write(str(tmp_path / "replay.bundle"))
    assert run(["replay", "--bundle", str(tmp_path / "replay.bundle")]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "usage error: bundle has no check option 'module'"


def test_a_key_error_inside_a_verb_is_not_a_usage_error(a2_files, monkeypatch):
    from arquiver import cli

    def broken(*_):
        raise KeyError("fault in the library")

    monkeypatch.setattr(cli, "hom_basis", broken)
    with pytest.raises(KeyError):
        run(["hom", "--algebra", str(a2_files / "a2.alg"),
             "--module", str(a2_files / "s1.mod"), "--module2", str(a2_files / "p1.mod")])
