"""The eight acceptance criteria, one test (and one printed verdict line)
each.  These are the CI gate; `arquiver accept` runs the same functions."""

import gc
import weakref

import pytest

from arquiver import acceptance


@pytest.fixture(scope="module")
def harness_artifacts():
    """Criteria 5 and 6 feed their sequences into criterion 7."""
    return {}


def _check(result, budget_seconds):
    print(result.line())
    assert result.passed, result.detail
    assert result.seconds < budget_seconds, (
        f"criterion {result.index} took {result.seconds:.1f}s "
        f"(budget {budget_seconds}s)"
    )


def test_criterion_1_a2_ground_truth():
    _check(acceptance.criterion_1(), 1)


def test_criterion_2_translate_consistency():
    _check(acceptance.criterion_2(), 30)


def test_criterion_3_exactness_lemma():
    _check(acceptance.criterion_3(), 30)


def test_criterion_4_equivalence_100_instances(tmp_path):
    _check(acceptance.criterion_4(out_dir=str(tmp_path)), 120)


def test_criterion_5_a3_theorem_harness(harness_artifacts):
    result = acceptance.criterion_5()
    harness_artifacts["a3"] = result.artifacts.get("sequences", [])
    _check(result, 120)


def test_criterion_6_kronecker_example(harness_artifacts):
    result = acceptance.criterion_6()
    harness_artifacts["kronecker"] = result.artifacts.get("sequences", [])
    _check(result, 120)


def test_criterion_7_duality(harness_artifacts):
    sequences = harness_artifacts.get("a3", []) + harness_artifacts.get(
        "kronecker", []
    )
    _check(acceptance.criterion_7(sequences=sequences or None), 60)


def test_criterion_8_ext_vs_stable_hom():
    _check(acceptance.criterion_8(), 60)


@pytest.fixture(scope="module")
def two_runs():
    """Two run_all(1) calls in one process, the first on a fresh corpus,
    counting the knit tables each one computes."""
    from arquiver import knit

    knits = []
    original = knit.enumerate_indec

    def counted(*args, **kwargs):
        knits[-1] += 1
        return original(*args, **kwargs)

    acceptance._corpus.cache_clear()
    mp = pytest.MonkeyPatch()
    mp.setattr(knit, "enumerate_indec", counted)
    try:
        runs = []
        for _ in range(2):
            knits.append(0)
            runs.append(acceptance.run_all(1))
    finally:
        mp.undo()
    return runs, knits


def test_one_corpus_per_process(two_runs):
    _, knits = two_runs
    # 11 distinct tables over the four corpus algebras; the second run
    # finds all of them on the same corpus
    assert knits == [11, 0]


def test_second_run_gives_the_same_report(two_runs):
    (first, second), _ = two_runs

    def answers(results):
        return [(r.index, r.title, r.passed, r.detail) for r in results]

    assert all(r.passed for r in first)
    assert answers(first) == answers(second)


def test_next_seed_frees_the_corpus():
    # the memos of the corpus fill with one seed's modules; a run of the next
    # seed builds its own corpus, and the old one goes with its memos
    acceptance._corpus.cache_clear()
    acceptance.criterion_1(1)
    a2 = weakref.ref(acceptance._corpus(1)["a2"])
    assert a2()._memo
    acceptance.run_all(2)
    gc.collect()
    assert a2() is None
