import pytest

from arquiver import knit
from arquiver.homological import proj
from arquiver.knit import enumerate_indec, is_kronecker, root_oracle_kronecker


def test_a2_knit_finds_all_three(alg_a2):
    table = enumerate_indec(alg_a2, cap=10)
    assert len(table.members) == 3
    assert not table.truncated
    dims = sorted(m.dims for m in table.members)
    assert dims == [(0, 1), (1, 0), (1, 1)]


def test_a3_knit_finds_all_six(alg_a3):
    table = enumerate_indec(alg_a3, cap=10)
    assert len(table.members) == 6
    assert not table.truncated


def test_loop_knit(alg_loop):
    # the regular module is projective-injective; knitting stops immediately
    table = enumerate_indec(alg_loop, cap=10)
    assert len(table.members) == 1
    assert table.members[0].dims == (2,)


def test_kronecker_postprojectives_cap13(alg_kronecker):
    table = enumerate_indec(alg_kronecker, cap=13)
    assert table.truncated
    dims = sorted(m.dims for m in table.members)
    assert dims == [(n, n + 1) for n in range(7)]
    for d in dims:
        assert root_oracle_kronecker(alg_kronecker, d) == "postprojective"


def test_kronecker_preinjectives_cap13(alg_kronecker):
    table = enumerate_indec(alg_kronecker, cap=13, direction="from-injectives")
    dims = sorted(m.dims for m in table.members)
    assert dims == [(n + 1, n) for n in range(7)]
    for d in dims:
        assert root_oracle_kronecker(alg_kronecker, d) == "preinjective"


def test_root_oracle_cases(alg_kronecker):
    assert root_oracle_kronecker(alg_kronecker, (1, 2)) == "postprojective"
    assert root_oracle_kronecker(alg_kronecker, (2, 2)) == "regular"
    assert root_oracle_kronecker(alg_kronecker, (3, 1)) == "not-indecomposable"
    assert root_oracle_kronecker(alg_kronecker, (0, 1)) == "postprojective"
    assert root_oracle_kronecker(alg_kronecker, (1, 0)) == "preinjective"
    assert root_oracle_kronecker(alg_kronecker, (0, 0)) == "not-indecomposable"


def test_root_oracle_rejects_non_kronecker(alg_a2):
    assert not is_kronecker(alg_a2)
    with pytest.raises(ValueError):
        root_oracle_kronecker(alg_a2, (1, 1))


def test_links_verified(alg_kronecker):
    table = enumerate_indec(alg_kronecker, cap=8)
    assert table.links
    for child, parent in table.links:
        assert table.members[child].total_dim > table.members[parent].total_dim


def test_knit_contains_projectives(alg_kronecker):
    table = enumerate_indec(alg_kronecker, cap=13)
    for v in (1, 2):
        assert table.find(proj(alg_kronecker, v)) is not None


def test_decomposable_seed_raises_without_assert(alg_a2, monkeypatch):
    # a check, not an assert: it must also hold under python -O
    monkeypatch.setattr(knit, "is_indecomposable", lambda m: False)
    with pytest.raises(RuntimeError, match="seed is decomposable"):
        enumerate_indec(alg_a2, cap=10)


def test_decomposable_translate_raises_without_assert(alg_a2, monkeypatch):
    seen = []

    def indecomposable_seeds_only(m):
        seen.append(m)
        return len(seen) <= alg_a2.quiver.n

    monkeypatch.setattr(knit, "is_indecomposable", indecomposable_seeds_only)
    with pytest.raises(RuntimeError, match="translate of an indecomposable"):
        enumerate_indec(alg_a2, cap=10)


def test_knit_cache_lives_with_the_algebra():
    import gc
    import weakref

    from arquiver import corpus

    alg = corpus.kronecker()
    table = knit.knit_cached(alg, 7, "from-projectives")
    assert knit.knit_cached(alg, 7, "from-projectives") is table
    ref = weakref.ref(alg)
    del alg, table
    gc.collect()
    assert ref() is None
