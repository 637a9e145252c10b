import numpy as np
import pytest

from arquiver import corpus
from arquiver.fileio import (
    Bundle,
    ParseError,
    format_algebra,
    format_module,
    format_morphism,
    format_ses,
    parse_algebra,
    parse_bundle,
    parse_module,
    read_algebra,
    read_module,
    read_subcat,
    write_algebra,
    write_module,
    write_subcat_family,
)
from arquiver.homological import proj
from arquiver.rep import Rep, hom_basis, identity_map, iso, simple


def test_algebra_roundtrip_a2(alg_a2):
    text = format_algebra(alg_a2)
    back = parse_algebra(text)
    assert back.p == alg_a2.p
    assert back.quiver.n == alg_a2.quiver.n
    assert format_algebra(back) == text


def test_algebra_roundtrip_loop(alg_loop):
    text = format_algebra(alg_loop)
    assert "rel 1*x.x" in text
    back = parse_algebra(text)
    assert back.dim == alg_loop.dim
    assert format_algebra(back) == text


def test_relation_path_order():
    # "a.b" on disk means apply b first, then a
    text = "\n".join(
        [
            "field 32003",
            "vertices 3",
            "arrow a 2 3",
            "arrow b 1 2",
            "rel 1*a.b",
        ]
    )
    alg = parse_algebra(text)
    assert alg.relations[0].terms == [(1, ("b", "a"))]
    assert format_algebra(alg).rstrip().endswith("rel 1*a.b")


def test_algebra_comments_and_blank_lines(alg_a2):
    text = "# header\n\nfield 32003\nvertices 2 # inline\narrow a 1 2\n"
    alg = parse_algebra(text)
    assert alg.dim == 3


def test_algebra_prime_override():
    text = format_algebra(corpus.a2())
    alg = parse_algebra(text, prime=101)
    assert alg.p == 101


def test_algebra_parse_errors():
    with pytest.raises(ParseError):
        parse_algebra("vertices 2\nfield 7\n")
    with pytest.raises(ParseError):
        parse_algebra("field 7\nvertices 1\nbogus line\n")


def test_module_roundtrip_bit_exact(alg_kronecker):
    m = Rep(
        alg_kronecker,
        (2, 3),
        {"a": [[1, 0], [0, 1], [0, 0]], "b": [[0, 0], [1, 0], [0, 1]]},
        name="P2",
    )
    text = format_module(m)
    back = parse_module(text, alg_kronecker)
    assert back.name == "P2"
    assert back.dims == m.dims
    for a in alg_kronecker.quiver.arrows:
        assert np.array_equal(back.maps[a.name], m.maps[a.name])
    assert format_module(back) == text


def test_module_zero_dims(alg_a2):
    z = Rep(alg_a2, (0, 0), {})
    text = format_module(z, name="Z")
    back = parse_module(text, alg_a2)
    assert back.is_zero


def test_module_files(tmp_path, alg_a2):
    m = proj(alg_a2, 1)
    path = tmp_path / "p1.mod"
    write_module(m, str(path))
    back = read_module(str(path), alg_a2)
    assert iso(back, m) is not None


def test_module_parse_errors(alg_a2):
    with pytest.raises(ParseError):
        parse_module("dim 1 0\n", alg_a2)
    with pytest.raises(ParseError):
        parse_module("module M\ndim 1 1\nmap zz 1 1\n0\n", alg_a2)


def test_morphism_roundtrip(alg_a2):
    p1, s1 = proj(alg_a2, 1), simple(alg_a2, 1)
    f = hom_basis(p1, s1).basis[0]
    text = format_morphism(f, "f", "P1", "S1")
    bundle = Bundle(alg_a2, modules={"P1": p1, "S1": s1}, morphisms={"f": f})
    back = parse_bundle(bundle.format(), algebra=alg_a2)
    assert list(back.morphisms) == ["f"]
    assert back.morphisms["f"].equal(f)
    assert format_morphism(back.morphisms["f"], "f", "P1", "S1") == text


def test_algebra_files(tmp_path, alg_kronecker):
    path = tmp_path / "kron.alg"
    write_algebra(alg_kronecker, str(path))
    back = read_algebra(str(path))
    assert back.dim == 4


def test_subcat_finite_file(tmp_path, alg_a2):
    write_module(simple(alg_a2, 1), str(tmp_path / "s1.mod"), name="S1")
    write_module(simple(alg_a2, 2), str(tmp_path / "s2.mod"), name="S2")
    sub_path = tmp_path / "sub.sub"
    sub_path.write_text("subcat finite\ns1.mod\ns2.mod\n")
    sub = read_subcat(str(sub_path), alg_a2)
    assert sub.kind == "finite"
    assert len(sub.gens) == 2


def test_subcat_family_file(tmp_path, alg_kronecker):
    path = tmp_path / "pp.sub"
    write_subcat_family("postprojective", 13, str(path))
    sub = read_subcat(str(path), alg_kronecker)
    assert sub.kind == "postprojective"
    assert sub.cap == 13


def test_subcat_parse_errors(tmp_path, alg_a2):
    path = tmp_path / "bad.sub"
    path.write_text("subcat postprojective\n")
    with pytest.raises(ParseError):
        read_subcat(str(path), alg_a2)


def test_bundle_roundtrip(tmp_path, alg_a2):
    s1 = simple(alg_a2, 1)
    s2 = simple(alg_a2, 2)
    nu = identity_map(s2)
    bundle = Bundle(
        alg_a2,
        modules={"S1": s1, "S2": s2},
        morphisms={"nu": nu},
        check={"verb": "equiv-4x", "seed": "5", "module": "S1", "nu": "nu"},
    )
    text = bundle.format()
    back = parse_bundle(text)
    assert back.check["verb"] == "equiv-4x"
    assert back.check["seed"] == "5"
    assert set(back.modules) == {"S1", "S2"}
    assert back.morphisms["nu"].equal(identity_map(back.modules["S2"]))
    assert back.format() == text
    path = tmp_path / "cx.bundle"
    bundle.write(str(path))
    assert path.read_text() == text


def test_bundle_rejects_unregistered_morphism(alg_a2):
    s1 = simple(alg_a2, 1)
    bundle = Bundle(alg_a2, modules={}, morphisms={"f": identity_map(s1)})
    with pytest.raises(ValueError):
        bundle.format()


def test_format_ses(alg_a2):
    from arquiver.arseq import ar_sequence_global

    ses = ar_sequence_global(simple(alg_a2, 1))
    text = format_ses(ses)
    assert text.count("module ") == 3
    assert text.count("morphism ") == 2
    # the left-term block re-parses to the left term
    first = text.split("module ")[1]
    back = parse_module("module " + first.split("module ")[0], alg_a2)
    assert iso(back, ses.left) is not None


def test_composite_field_rejected():
    with pytest.raises(ParseError, match="not a prime"):
        parse_algebra("field 32004\nvertices 1\n")
    with pytest.raises(ParseError, match="not a prime"):
        parse_algebra("field 7\nvertices 1\n", prime=32004)


def test_bundle_rejects_algebra_with_other_arrows(alg_a2, alg_kronecker):
    # same prime and vertex count, but A2 has one arrow and Kronecker two
    text = Bundle(alg_a2, modules={"S1": simple(alg_a2, 1)}).format()
    with pytest.raises(ParseError, match="disagrees"):
        parse_bundle(text, algebra=alg_kronecker)
    back = parse_bundle(text, algebra=alg_a2)
    assert back.algebra is alg_a2
    assert back.modules["S1"].equal(simple(alg_a2, 1))
