"""View-only subjects: the library's own results make their grades lazily.

``magnify`` (and its faces ``translate`` and ``multiply``), ``intersect``,
``if_product`` and the grid part of ``sample_ifs`` return subjects that
carry only their carrier order and their integer view;
``IFSubset.__getattr__`` makes the ``mu``/``nu`` Fractions on first read.
These tests pin the lazy grades to a Fraction reference computed here,
check that a view-only subject behaves like its validated twin (equality,
hashing, ``repr``, ``copy``, ``pickle``), and that the theorem sweep never
reads the grades of the variants it builds.
"""

import copy
import itertools
import pickle
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    IFSubset,
    SampleSpec,
    TransformParams,
    builtin_library,
    enumerate_semigroups,
    harness,
    if_product,
    intersect,
    magnify,
    max_alpha,
    multiply,
    sample_ifs,
    translate,
)
from ifsemigroups.harness import THEOREM_IDS, _ENTRY, _PairTheorem, run_suite

from conftest import grades, subjects

positive = grades.filter(lambda g: g > 0)

# carrier order -> its tables: every table of order <= 3, the library's of order 4
TABLES = {n: list(enumerate_semigroups(n)) for n in (1, 2, 3)}
TABLES[4] = [entry.semigroup for entry in builtin_library() if entry.semigroup.order == 4]


def _reference_product(S, A, B):
    """Sup-min / inf-max over every factorization, on Fractions."""
    mu, nu = [], []
    for x in range(S.order):
        pairs = [(u, v) for u in range(S.order) for v in range(S.order) if S.table[u][v] == x]
        mu.append(max((min(A.mu[u], B.mu[v]) for u, v in pairs), default=F(0)))
        nu.append(min((max(A.nu[u], B.nu[v]) for u, v in pairs), default=F(1)))
    return tuple(mu), tuple(nu)


@st.composite
def built(draw):
    """(a library-built result, its grades computed here on Fractions)."""
    n = draw(st.integers(min_value=1, max_value=4))
    S = draw(st.sampled_from(TABLES[n]))
    A = draw(subjects(order=n, nonempty=False))
    B = draw(subjects(order=n, nonempty=False))
    beta = draw(positive)
    alpha = max_alpha(A, beta) * draw(grades)
    shift = min(A.nu) * draw(grades)
    cases = {
        "magnify": lambda: (
            magnify(A, TransformParams(beta, alpha)),
            (tuple(beta * m + alpha for m in A.mu), tuple(beta * v - alpha for v in A.nu)),
        ),
        "translate": lambda: (
            translate(A, shift),
            (tuple(m + shift for m in A.mu), tuple(v - shift for v in A.nu)),
        ),
        "multiply": lambda: (
            multiply(A, beta),
            (tuple(beta * m for m in A.mu), tuple(beta * v for v in A.nu)),
        ),
        "intersect": lambda: (
            intersect(A, B),
            (tuple(map(min, A.mu, B.mu)), tuple(map(max, A.nu, B.nu))),
        ),
        "if_product": lambda: (if_product(S, A, B), _reference_product(S, A, B)),
    }
    return cases[draw(st.sampled_from(sorted(cases)))]()


@settings(max_examples=200, deadline=None)
@given(built())
def test_grades_are_made_on_first_read_and_match_the_reference(case):
    X, (mu, nu) = case
    assert "mu" not in vars(X) and "nu" not in vars(X)
    assert X.mu == mu
    assert X.nu == nu
    assert vars(X)["mu"] is X.mu  # made once, then kept


@settings(max_examples=100, deadline=None)
@given(built())
def test_view_only_subject_behaves_like_its_validated_twin(case):
    X, (mu, nu) = case
    twin = IFSubset(X.carrier_order, mu, nu)
    assert "mu" not in vars(X)
    assert twin == X and X == twin
    assert hash(X) == hash(twin)
    assert repr(X) == repr(twin)


@settings(max_examples=100, deadline=None)
@given(built(), st.booleans())
def test_view_only_subject_survives_copy_and_pickle(case, read_first):
    X, (mu, nu) = case
    if read_first:
        X.mu
    twin = IFSubset(X.carrier_order, mu, nu)
    for Y in (copy.copy(X), copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
        assert ("mu" in vars(Y)) == read_first
        assert Y == twin and hash(Y) == hash(twin)
        assert Y.view == X.view


def test_unknown_attributes_raise_without_recursion():
    X = magnify(IFSubset(2, (F(1, 2), F(0)), (F(1, 4), F(1))), TransformParams(F(1, 2), F(0)))
    with pytest.raises(AttributeError):
        getattr(X, "nope")
    assert not hasattr(X, "__setstate__")
    assert "mu" not in vars(X)
    # a blank object has neither grades nor a view to make them from
    blank = object.__new__(IFSubset)
    for name in ("mu", "nu", "view", "nope"):
        with pytest.raises(AttributeError):
            getattr(blank, name)


def test_sweep_variants_never_materialise_grades(monkeypatch):
    """Spy on grade materialisation during a run of the 13 single-subject
    theorems: grades are made only for subjects that reach
    ``replay_certificate`` (inside it, or as a magnification of a replayed
    certificate's subject, which the run's operand store keeps in the
    operand's variant tuple, keyed by the operand's value and its parameter
    tuple), never for a variant of the sweep."""
    spec = SampleSpec()
    made = []  # (names of the calling frames, subject)
    real_getattr = IFSubset.__getattr__

    def spy(self, name):
        if name in ("mu", "nu") and "mu" not in vars(self):
            frames, f = set(), sys._getframe(1)
            while f is not None:
                frames.add(f.f_code.co_name)
                f = f.f_back
            made.append((frames, self))
        return real_getattr(self, name)

    replayed = []
    real_replay = harness.replay_certificate
    variants = 0
    real_magnify = harness.magnify

    def counting_magnify(A, params):
        nonlocal variants
        variants += 1
        return real_magnify(A, params)

    monkeypatch.setattr(IFSubset, "__getattr__", spy)
    monkeypatch.setattr(harness, "replay_certificate",
                        lambda cert: replayed.append(cert) or real_replay(cert))
    monkeypatch.setattr(harness, "magnify", counting_magnify)
    tids = [t for t in THEOREM_IDS if not isinstance(_ENTRY[t], _PairTheorem)]
    assert len(tids) == 13
    run_suite([1, 2], spec, tids)
    monkeypatch.undo()

    assert replayed and variants > 100_000
    store = harness._Operands(spec)
    reach = set()
    for cert in replayed:
        for mu, nu in ((cert.mu_a, cert.nu_a), (cert.mu_b, cert.nu_b)):
            if mu is not None:
                C = IFSubset(len(cert.table), mu, nu)
                reach.update(magnify(C, p) for p in store.sampled(min(C.view[2]), C.view[0]))
    for frames, X in made:
        assert "_sweep" not in frames
        assert "replay_certificate" in frames or X in reach
    assert len(made) * 1000 < variants


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_subjects_make_their_grades_on_first_read(k, n):
    grid = list(sample_ifs(n, SampleSpec(grade_grid_step=F(1, k))))  # no random subjects
    # every (mu, nu) with mu + nu <= 1 on the 1/k grid, in lexicographic order
    points = [(F(i, k), F(j, k)) for i in range(k + 1) for j in range(k + 1 - i)]
    reference = [
        IFSubset(n, tuple(m for m, _ in combo), tuple(v for _, v in combo))
        for combo in itertools.product(points, repeat=n)
        if any(m for m, _ in combo)
    ]
    assert all("mu" not in vars(X) and "nu" not in vars(X) for X in grid)
    assert [(X.mu, X.nu) for X in grid] == [(R.mu, R.nu) for R in reference]
    assert grid == reference
