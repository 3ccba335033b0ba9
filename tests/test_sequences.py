import random
from fractions import Fraction
from math import factorial, inf

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadguess import equations
from quadguess.equations import (Derivatives, QuadEquation,
                                 monomial_of_orders)
from quadguess.errors import (InconsistentInitialTermsError,
                              InsufficientTermsError,
                              LeadingCoefficientZeroError, NonlinearStepError,
                              QuadGuessError)
from quadguess.guessing import GuessConfig, guess, slot
from quadguess.prefix import SequencePrefix
from quadguess.sequences import ORACLES, check, extend, oracle_sequence
from util_exact import (bernoulli_numbers, check_bruteforce,
                        extend_bruteforce, monomial_row)


def _eq(*terms):
    return QuadEquation([(s, monomial_of_orders(p, q), c)
                         for s, p, q, c in terms])


ZETA_EQ = _eq((1, 2, -1, 2), (0, 1, -1, 5), (1, 1, 0, -4), (0, 0, 0, -2))
ZIGZAG_EQ = _eq((0, 2, -1, 1), (0, 1, 0, -1))
BERNOULLI_EQ = _eq((1, 1, -1, 1), (1, 0, -1, 1), (0, 0, 0, 1), (0, 0, -1, -1))
EULER_EQ = _eq((0, 2, 0, 1), (0, 1, 1, -2), (0, 0, 0, 1))
BELL_EQ = _eq((0, 2, 0, 1), (0, 1, 0, -1), (0, 1, 1, -1))
LAMBERTW_EQ = _eq((1, 1, -1, 1), (1, 1, 0, 1), (0, 0, -1, -1))
EXP_EQ = _eq((0, 1, -1, 1), (0, 0, -1, -1))

ROUND_TRIPS = [
    (ZETA_EQ, "zeta-rescaled", 1),
    (ZIGZAG_EQ, "zigzag-egf", 2),
    (BERNOULLI_EQ, "bernoulli-egf", 2),
    (EULER_EQ, "euler-egf", 3),
    (BELL_EQ, "bell-egf", 2),
    (LAMBERTW_EQ, "lambertw", 2),
    (EXP_EQ, "exp", 1),
]


def test_oracle_zeta_rescaled_values():
    vals = oracle_sequence("zeta-rescaled", 5)
    assert list(vals) == [Fraction(1, 6), Fraction(1, 90), Fraction(1, 945),
                          Fraction(1, 9450), Fraction(1, 93555)]


def test_oracle_zigzag_values():
    vals = oracle_sequence("zigzag-egf", 6)
    ints = [v * factorial(n) for n, v in enumerate(vals)]
    assert ints == [1, 1, 1, 2, 5, 16]


def test_oracle_lambertw_values():
    vals = oracle_sequence("lambertw", 6)
    assert list(vals) == [0, 1, -1, Fraction(3, 2), Fraction(-8, 3),
                          Fraction(125, 24)]


def test_oracle_bernoulli_values():
    vals = oracle_sequence("bernoulli-egf", 5)
    assert list(vals) == [1, Fraction(-1, 2), Fraction(1, 12), 0,
                          Fraction(-1, 720)]


def test_bernoulli_reference_pins():
    bern = bernoulli_numbers(31)
    assert bern[12] == Fraction(-691, 2730)
    assert bern[30] == Fraction(8615841276005, 14322)


def test_tangent_oracles_match_bernoulli_recurrence():
    """The Bernoulli and zeta oracles, generated from tangent numbers,
    equal the values the Bernoulli recurrence gives, at every count."""
    bern = bernoulli_numbers(2 * 120 + 2)
    egf = [b / factorial(n) for n, b in enumerate(bern)]
    zeta = [(-1) ** n * 2 ** (2 * n + 1) * bern[2 * n + 2]
            / factorial(2 * n + 2) for n in range(120)]
    for count in range(1, 121):
        assert list(oracle_sequence("bernoulli-egf", count)) == egf[:count]
        assert list(oracle_sequence("zeta-rescaled", count)) == zeta[:count]


def test_oracle_euler_values():
    vals = oracle_sequence("euler-egf", 7)
    ints = [v * factorial(n) for n, v in enumerate(vals)]
    assert ints == [1, 0, -1, 0, 5, 0, -61]


def test_oracle_bell_values():
    vals = oracle_sequence("bell-egf", 6)
    ints = [v * factorial(n) for n, v in enumerate(vals)]
    assert ints == [1, 1, 2, 5, 15, 52]


def test_oracle_unknown_name():
    with pytest.raises(ValueError):
        oracle_sequence("fibonacci", 5)
    with pytest.raises(ValueError):
        oracle_sequence("exp", 0)


@pytest.mark.parametrize("count", [True, 3.0, "3", None])
def test_oracle_count_must_be_an_int(count):
    """A bool, float, string or None count raises TypeError, as extend's
    does, instead of being taken as 1 or failing inside a generator."""
    with pytest.raises(TypeError, match="^count must be an int, not "):
        oracle_sequence("exp", count)


def test_check_zeta_first_terms():
    assert check(ZETA_EQ, oracle_sequence("zeta-rescaled", 5)).passed


def test_check_zigzag_prefix():
    prefix = SequencePrefix([1, 1, Fraction(1, 2), Fraction(1, 3),
                             Fraction(5, 24)])
    assert check(ZIGZAG_EQ, prefix).passed


def test_check_flags_vacuous_pass():
    # y'' - y*y' = 0 reads a_(n+2): two terms determine no row
    report = check(ZIGZAG_EQ, SequencePrefix([1, 1]))
    assert report.rows_checked == 0
    assert report.vacuous
    assert not check(ZIGZAG_EQ, SequencePrefix([1, 1, Fraction(1, 2)])).vacuous


def test_check_reports_first_failure():
    eq = _eq((0, 0, -1, 1))  # y = 0
    report = check(eq, SequencePrefix([0, 0, 3, 4]))
    assert not report.passed
    assert report.first_failure == 2
    assert report.residual == 3


@pytest.mark.parametrize("eq,name,seed", ROUND_TRIPS,
                         ids=[name for _, name, _ in ROUND_TRIPS])
def test_check_matches_bruteforce_on_perturbed_prefixes(eq, name, seed):
    """The report equals a per-row reference on the oracle prefix and on
    copies with the first, a middle or the last term moved by 1/7 or by
    2^-400."""
    values = list(oracle_sequence(name, 40))
    cases = [values]
    for at in (0, len(values) // 2, len(values) - 1):
        for delta in (Fraction(1, 7), Fraction(1, 2 ** 400)):
            cases.append(values[:at] + [values[at] + delta]
                         + values[at + 1:])
    for a in cases:
        report = check(eq, SequencePrefix(a))
        assert (report.passed, report.rows_checked, report.first_failure,
                report.residual) == check_bruteforce(eq, a)


def test_extend_zigzag_from_two_terms():
    ext = extend(ZIGZAG_EQ, SequencePrefix([1, 1]), 3)
    assert list(ext)[2:] == [Fraction(1, 2), Fraction(1, 3), Fraction(5, 24)]


def test_extend_zeta_from_single_term():
    ext = extend(ZETA_EQ, SequencePrefix([Fraction(1, 6)]), 1)
    assert ext[1] == Fraction(1, 90)


def test_extend_bernoulli_step():
    ext = extend(BERNOULLI_EQ, SequencePrefix([1, Fraction(-1, 2)]), 1)
    assert ext[2] == Fraction(1, 12)


def test_extend_inconsistent_initial_terms():
    with pytest.raises(InconsistentInitialTermsError):
        extend(_eq((0, 0, -1, 1)), SequencePrefix([1, 2]), 1)


def test_extend_leading_coefficient_zero():
    # z y' - y: row n gives (n-1) a_n = 0, degenerate at n = 1
    eq = _eq((1, 1, -1, 1), (0, 0, -1, -1))
    with pytest.raises(LeadingCoefficientZeroError):
        extend(eq, SequencePrefix([0]), 2)


def test_extend_rejects_negative_count():
    with pytest.raises(ValueError):
        extend(ZIGZAG_EQ, SequencePrefix([1, 1]), -5)
    assert list(extend(ZIGZAG_EQ, SequencePrefix([1, 1]), 0)) == [1, 1]


@pytest.mark.parametrize("count", [True, 2.0])
def test_extend_rejects_non_int_count(count):
    # row 0 does not vanish on [1, 1, 2]: evaluating it first would raise
    # InconsistentInitialTermsError instead
    with pytest.raises(TypeError, match="count"):
        extend(ZIGZAG_EQ, SequencePrefix([1, 1, 2]), count)


# y'^2 + y = 0: row 0 reads a_1 * a_1, so it is quadratic in a_1
SQUARE_EQ = _eq((0, 1, 1, 1), (0, 0, -1, 1))


def test_extend_nonlinear_step():
    with pytest.raises(NonlinearStepError) as exc:
        extend(SQUARE_EQ, SequencePrefix([1]), 1)
    assert exc.value.row == 0
    ext = extend(SQUARE_EQ, SequencePrefix([-1, 1]), 3)
    assert list(ext) == [-1, 1, Fraction(-1, 4), 0, 0]


def _outcome(run):
    try:
        return list(run())
    except QuadGuessError as exc:
        return (type(exc), getattr(exc, "row", None),
                getattr(exc, "residual", None))


_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
_COEFFS = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]),
                    st.integers(1, 4))
_TERMS = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda sp: st.tuples(st.just(sp[0]), st.just(sp[1]),
                         st.integers(-1, sp[1]), _COEFFS))


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(_TERMS, min_size=1, max_size=4),
       initial=st.lists(_RATIONALS, min_size=1, max_size=5),
       count=st.integers(0, 6))
@example(terms=[(0, 1, 1, 1), (0, 0, -1, 1)], initial=[1], count=1)
@example(terms=[(1, 0, -1, 1), (1, 0, 0, -1), (2, 0, -1, 1)],  # shift -1
         initial=[1], count=4)
@example(terms=[(0, 3, 2, 1), (0, 0, -1, 1)],  # slope carries 2! * a_2
         initial=[1, 1, 1], count=3)
def test_extend_matches_bruteforce_reference(terms, initial, count):
    """Terms, or the error class with its row and residual, agree with a
    reference that evaluates rows by direct series arithmetic."""
    try:
        eq = _eq(*terms)
    except ValueError:  # every coefficient cancelled
        assume(False)
    expected = _outcome(lambda: extend_bruteforce(eq, initial, count))
    assert _outcome(lambda: extend(eq, SequencePrefix(initial), count)) \
        == expected


# (s, K, c): z-power 0 .. 4 and monomial slot(K - 2) for K = 2 .. 16
# (orders up to 4), or the constant 1 (slot -1) for K = 1; z-powers above
# the orders give negative shifts
_INDEX_TERMS = st.tuples(st.integers(0, 4), st.integers(1, 16), _COEFFS)
# denominators that rise and fall from term to term
_TERM_VALUES = st.builds(Fraction, st.integers(-4, 4),
                         st.sampled_from([1, 2, 3, 5, 7, 2 ** 30]))
_PREFIXES = st.one_of(
    st.lists(_TERM_VALUES, min_size=1, max_size=10),
    st.integers(1, 8).map(lambda n: [Fraction(0)] * n))
# a change to the first, a middle or the last term
_PERTURBATIONS = st.none() | st.tuples(
    st.sampled_from(["first", "middle", "last"]),
    st.sampled_from([Fraction(1, 7), Fraction(-1, 2 ** 30), Fraction(3)]))


@settings(max_examples=400, deadline=None)
@given(terms=st.lists(_INDEX_TERMS, min_size=1, max_size=5),
       values=_PREFIXES, grow=st.integers(0, 8), perturb=_PERTURBATIONS)
# negative max_shift: z^2 * f and z^3 * f * f' read a_(n - 2)
@example(terms=[(2, 2, 1), (3, 5, -1)],
         values=[1, Fraction(1, 2), Fraction(3, 2 ** 30)], grow=0,
         perturb=None)
# vacuous: f'' reads a_(n + 2), and two terms determine no row
@example(terms=[(0, 7, 1), (0, 5, -1)], values=[1, 1], grow=0,
         perturb=None)
# zeta-rescaled grown from its first term, its last term moved by 1/7
@example(terms=[(1, 7, 2), (0, 4, 5), (1, 5, -4), (0, 3, -2)],
         values=[Fraction(1, 6)], grow=8, perturb=("last", Fraction(1, 7)))
def test_check_walk_matches_bruteforce(terms, values, grow, perturb):
    """check, which reads each row as soon as its last term is in, reports
    what direct series arithmetic on the whole prefix reports.  With
    `grow`, the prefix is first made consistent: its first max(shift, 1)
    terms are extended by the reference, when that succeeds."""
    try:
        eq = QuadEquation([(s, slot(k - 2), c)
                           for s, k, c in terms])
    except ValueError:  # every coefficient cancelled
        assume(False)
    a = list(values)
    if grow:
        try:
            a = extend_bruteforce(eq, a[:max(eq.max_shift, 1)], grow)
        except QuadGuessError:
            pass
    if perturb is not None:
        where, delta = perturb
        at = {"first": 0, "middle": len(a) // 2, "last": len(a) - 1}[where]
        a[at] += delta
    report = check(eq, SequencePrefix(a))
    assert (report.passed, report.rows_checked, report.first_failure,
            report.residual) == check_bruteforce(eq, a)


def _spied_walk(run):
    """run() with the walk's stores checked against fresh ones: every row
    it reads equals that of a fresh Derivatives of the entries the store
    reads (derivs[0], its settled entries times the pending factor) and
    its den, and after every put and set_last those entries over den are
    the exact terms put in so far, and every kept square coefficient
    S_j[u] is the schoolbook square of a fresh store's f^(j)
    (`monomial_row`), for orders j >= 0 only.  Returns run()'s outcome
    (its value or the QuadGuessError raised) and the rows read, as (n,
    numerator, den) with den the store's denominator then."""
    rows, terms = [], {}
    row_numerator = QuadEquation.row_numerator

    def fresh(derivs):
        return Derivatives(derivs[0], derivs.den)

    def spy_row(eq, derivs, n):
        value = row_numerator(eq, derivs, n)
        assert value == row_numerator(eq, fresh(derivs), n), n
        rows.append((n, value, derivs.den))
        return value

    def in_step(step):
        def spy(derivs, *args):
            step(derivs, *args)
            exact = terms.setdefault(id(derivs), [])
            if step is put:
                exact += map(Fraction, args[0])
            else:
                exact[-1] = Fraction(args[0], derivs.den)
            assert [Fraction(x, derivs.den) for x in derivs[0]] == exact
            for j, window in derivs._squares.items():
                assert j >= 0, j
                for u, value in window.items():
                    assert value == monomial_row(fresh(derivs), u, j, j), \
                        (j, u)
        return spy

    put, set_last = Derivatives.put, Derivatives.set_last
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QuadEquation, "row_numerator", spy_row)
        mp.setattr(Derivatives, "put", in_step(put))
        mp.setattr(Derivatives, "set_last", in_step(set_last))
        try:
            outcome = run()
        except QuadGuessError as exc:
            outcome = exc
    return outcome, rows


def _assert_whole_prefix_rows(eq, rows, values):
    """Each row (n, numerator, den_t) read over den_t, times
    (den_N / den_t)**2, is row n of a fresh store of the whole prefix
    values over its common denominator den_N."""
    nums, den = SequencePrefix(values).scaled()
    whole = Derivatives(nums, den)
    for n, value, den_t in rows:
        assert den % den_t == 0
        assert value * (den // den_t) ** 2 == eq.row_numerator(whole, n), n


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(_INDEX_TERMS, min_size=1, max_size=5),
       lead=st.none() | st.tuples(st.integers(0, 4), _COEFFS),
       values=st.lists(_TERM_VALUES, min_size=4, max_size=6),
       grow=st.integers(0, 24), perturb=_PERTURBATIONS)
# negative max_shift: z^2 * f and z^3 * f * f' read a_(n - 2)
@example(terms=[(2, 2, 1), (3, 5, -1)], lead=None,
         values=[1, Fraction(1, 2), Fraction(3, 2 ** 30)], grow=12,
         perturb=None)
# zeta-rescaled from its first term, 20 grown terms and the last moved:
# the constant-free linear group at z^0 and z^1 and the product group
@example(terms=[(1, 7, 2), (0, 4, 5), (1, 5, -4), (0, 3, -2)], lead=None,
         values=[Fraction(1, 6)], grow=20, perturb=("last", Fraction(1, 7)))
def test_walk_rows_are_whole_prefix_rows(terms, lead, values, grow,
                                         perturb):
    """On a prefix grown from its first max(shift, 1) terms by the
    reference (`lead`, a linear top-order term, makes most equations
    solvable) and then perhaps changed, check reads rows 0, 1, ... up to
    its report, and each row read over the walk's denominator den_t so
    far, scaled by (den_N / den_t)**2, is that row of a fresh
    Derivatives(*prefix.scaled()) over den_N.  extend from the same seed
    agrees too: its warm-up rows are the grown prefix's rows, and every
    grown row is 0 on it.  Throughout, rows and kept square coefficients
    equal those of a fresh store of the walk's own state, the placeholder
    included (`_spied_walk`)."""
    if lead is not None:     # f^(r) at z^0 is slot (r + 1)(r + 2)/2 - 1
        terms = terms + [(0, (lead[0] + 1) * (lead[0] + 2) // 2 + 1, lead[1])]
    try:
        eq = QuadEquation([(s, slot(k - 2), c)
                           for s, k, c in terms])
    except ValueError:  # every coefficient cancelled
        assume(False)
    seed = values[:max(eq.max_shift, 1)]
    try:
        a = extend_bruteforce(eq, seed, grow)
    except QuadGuessError:
        a = list(values)
    if perturb is not None:
        where, delta = perturb
        a[{"first": 0, "middle": len(a) // 2, "last": -1}[where]] += delta
    report, rows = _spied_walk(lambda: check(eq, SequencePrefix(a)))
    assert [n for n, _, _ in rows] == list(range(report.rows_checked))
    _assert_whole_prefix_rows(eq, rows, a)
    grown, rows = _spied_walk(
        lambda: extend(eq, SequencePrefix(seed), grow))
    if isinstance(grown, QuadGuessError):
        return
    warm_up = len(seed) - eq.max_shift
    assert [n for n, _, _ in rows] == list(range(warm_up + grow))
    _assert_whole_prefix_rows(eq, rows[:warm_up], grown.values)
    whole = Derivatives(*grown.scaled())
    for n, _, _ in rows[warm_up:]:
        assert eq.row_numerator(whole, n) == 0, n


@pytest.mark.parametrize("eq,name,start", [
    (ZETA_EQ, "zeta-rescaled", 1),
    # its squares read the newest term, so the placeholder too
    (BELL_EQ, "bell-egf", 2)], ids=["zeta-rescaled", "bell-egf"])
def test_walk_long_rows_match_fresh_stores(eq, name, start):
    """An oracle extended from its first terms by 80 terms, then checked:
    denominators reach 400 (bell-egf) to 900 (zeta-rescaled) bits, with
    rescales, placeholders and set_last between the rows.  Every row read
    and every kept square coefficient equals that of a fresh store, and
    nums / den are the terms put in (`_spied_walk`); check's rows are the
    whole prefix's, the terms are the oracle's and check passes."""
    grown, _ = _spied_walk(
        lambda: extend(eq, oracle_sequence(name, start), 80))
    assert grown == oracle_sequence(name, start + 80)
    report, rows = _spied_walk(lambda: check(eq, grown))
    count = start + 80 - eq.max_shift
    assert report.passed and report.rows_checked == count
    assert [n for n, _, _ in rows] == list(range(count))
    _assert_whole_prefix_rows(eq, rows, grown.values)


# (s, p, q, c): products of orders up to 2 at z-powers up to 2
_SETTLE_PRODUCTS = st.tuples(st.integers(0, 2), st.integers(0, 2)).flatmap(
    lambda sp: st.tuples(st.just(sp[0]), st.just(sp[1]),
                         st.integers(0, sp[1]), _COEFFS))
# seed terms whose denominators differ, so that the walk rescales
_SEED_TERMS = st.builds(Fraction, st.integers(-9, 9),
                        st.sampled_from([1, 2, 3, 5, 7, 10, 2 ** 30]))


@settings(max_examples=40, deadline=None)
@given(products=st.lists(_SETTLE_PRODUCTS, min_size=1, max_size=3),
       lead=_COEFFS, order=st.integers(1, 3),
       linear=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2),
                                    _COEFFS),
       seed=st.lists(_SEED_TERMS, min_size=3, max_size=3),
       count=st.integers(30, 60))
# f''' - z f f' + 2 (f')^2: S_0 and S_1 apart, every step rescaled
@example(products=[(1, 1, 0, -1), (0, 1, 1, 2)], lead=Fraction(1),
         order=3, linear=None,
         seed=[Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7)], count=60)
# f' + f^2, S_0 alone
@example(products=[(0, 0, 0, 1)], lead=Fraction(1), order=1, linear=None,
         seed=[Fraction(1), Fraction(-1), Fraction(1)], count=45)
def test_extend_settles_to_exact_solves(products, lead, order, linear,
                                        seed, count):
    """Random equations of orders up to 3 and z-powers up to 2 whose
    products read one or two square orders, with a linear top term
    `lead` * f^(order) above them so that each row solves for one new
    term, extended by 30 to 60 terms from seeds with differing
    denominators: their terms' denominators grow at almost every step,
    so extend rescales the newest entries by a new factor at almost
    every step and settles the older ones once per 8.  Every solved term
    is the term a Fraction solve of its row gives (`extend_bruteforce`),
    check passes on the result, and at every row of both walks the
    entries the store reads (derivs[j] for j = -1 .. 3) and the row
    equal those of a fresh store of the exact terms over the store's den,
    extend's placeholder 0 included."""
    terms = [(s, p, q, c) for s, p, q, c in products if p - s < order]
    terms.append((0, order, -1, lead))
    if linear is not None and linear[1] - linear[0] < order:
        terms.append((linear[0], linear[1], -1, linear[2]))
    try:
        eq = _eq(*terms)
    except ValueError:  # every coefficient cancelled
        assume(False)
    assume(1 <= len({j for _, _, j, _ in eq.squares}) <= 2)
    assert eq.max_shift == order
    initial = seed[:order]
    reference = extend_bruteforce(eq, initial, count)
    row_numerator = QuadEquation.row_numerator
    placeholder = [inf]      # the walk's first solved index, inf in check

    def spy_row(eq, derivs, n):
        size, den = len(derivs.nums), derivs.den
        exact = reference[:size]
        if n + order >= placeholder[0]:
            exact[n + order] = 0
        scaled = [Fraction(x) * den for x in exact]
        assert all(x.denominator == 1 for x in scaled), n
        fresh = Derivatives([x.numerator for x in scaled], den)
        for j in range(-1, 4):
            assert derivs[j] == fresh[j], (n, j)
        value = row_numerator(eq, derivs, n)
        assert value == row_numerator(eq, fresh, n), n
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QuadEquation, "row_numerator", spy_row)
        placeholder[0] = len(initial)
        grown = extend(eq, SequencePrefix(initial), count)
        assert list(grown) == reference
        placeholder[0] = inf
        report = check(eq, grown)
    assert report.passed and report.rows_checked == len(reference) - order


_WORKLOAD_EQUATIONS = pytest.mark.parametrize("eq,name,start,kept", [
    # -2y^2 - 4z*y*y' reads S_0 only; the linear terms keep no list
    (ZETA_EQ, "zeta-rescaled", 1, set()),
    # y*y'' - y*y' - (y')^2 reads S_0 and S_1, which share products
    (BELL_EQ, "bell-egf", 2, {1}),
    # z*y*y' reads S_0 only
    (LAMBERTW_EQ, "lambertw", 2, set())],
    ids=["zeta-rescaled", "bell-egf", "lambertw"])


@_WORKLOAD_EQUATIONS
def test_walk_keeps_only_the_sequences_rows_read(monkeypatch, eq, name,
                                                 start, kept):
    """extend by 200 and check of the result keep nums, den, where the
    last settle left off and the factor pending on the entries before it,
    and a window of square coefficients for each order j their rows
    read, 0 and the orders of `kept`, and nothing else: no sequence,
    neither f^(j) nor f^(-1) = 1 nor a list for the linear terms, whose
    row is one entry each, read on the fly, as `_slope` reads its
    entries.  Neither walk lists a sequence (derivs[j]); guess's mod-p
    packing does."""
    stores, keys = [], []
    init, getitem = Derivatives.__init__, Derivatives.__getitem__

    def spy_init(derivs, nums, den):
        init(derivs, nums, den)
        stores.append(derivs)

    def spy_getitem(derivs, key):
        keys.append(key)
        return getitem(derivs, key)

    monkeypatch.setattr(Derivatives, "__init__", spy_init)
    monkeypatch.setattr(Derivatives, "__getitem__", spy_getitem)
    grown = extend(eq, oracle_sequence(name, start), 200)
    assert check(eq, grown).passed
    assert len(stores) == 2
    assert Derivatives.__slots__ == ("nums", "den", "settled", "pending",
                                     "_squares", "_chunks")
    for derivs in stores:
        assert set(derivs._squares) == {0} | kept
    assert keys == []
    guess(oracle_sequence(name, 30))
    assert -1 in keys


@_WORKLOAD_EQUATIONS
def test_walk_computes_each_square_once(monkeypatch, eq, name, start,
                                        kept):
    """extend by 200, then check of the result: each walk computes every
    square coefficient S_j[u] its rows read exactly once, through block
    rescales and, in extend, the placeholder that set_last fixes up
    rather than recomputes, and computes no other.  Each product of two
    terms nums[i] * nums[k] is made at most once per walk: the orders of
    one total index i + k share them (bell-egf's S_0 and S_1)."""
    fills = []
    compute = Derivatives._square

    def spy(derivs, total, orders):
        fills.append((derivs, total, [j for j in orders if 2 * j <= total]))
        return compute(derivs, total, orders)

    monkeypatch.setattr(Derivatives, "_square", spy)
    grown = extend(eq, oracle_sequence(name, start), 200)
    extended = fills[:]
    fills.clear()
    report = check(eq, grown)
    assert report.passed
    for calls, rows in ((extended, len(grown) - eq.max_shift),
                        (fills, report.rows_checked)):
        assert len({id(derivs) for derivs, _, _ in calls}) == 1
        read = {(j, n - s + a) for n in range(rows)
                for s, a, j, _ in eq.squares if n >= s}
        computed = [(j, total - 2 * j) for _, total, orders in calls
                    for j in orders]
        assert sorted(computed) == sorted(read)
        pairs = [(i, total - i) for _, total, orders in calls
                 for i in range(orders[0], total // 2 + 1)]
        assert len(pairs) == len(set(pairs))
        if kept:
            assert max(len(orders) for _, _, orders in calls) == 2


def _chunk_path(monkeypatch):
    """A spy on the square coefficients filled from chunks: returns the
    list of (store, order, u) appended to on each, and the stores made."""
    chunked, stores = [], []
    init, part = Derivatives.__init__, equations._Chunks.part

    def spy_init(derivs, nums, den):
        init(derivs, nums, den)
        stores.append(derivs)

    def spy_part(chunks, derivs, u):
        chunked.append((derivs, chunks.order, u))
        return part(chunks, derivs, u)

    monkeypatch.setattr(Derivatives, "__init__", spy_init)
    monkeypatch.setattr(equations._Chunks, "part", spy_part)
    return chunked, stores


def test_chunk_path_is_chosen_by_the_input(monkeypatch):
    """The rule, counted rather than timed.  A 27-term guess, the size of
    the CLI benchmark's, fills nothing from chunks on any of the seven
    oracles: with chunks from block 2 on, a 27-term check of exp's or
    zigzag-egf's square equation took 200-220 us against 105-110
    direct.  A 200-row check of zeta-rescaled switches S_0 at block 10
    and fills its 120 coefficients u = 80 .. 199 from chunks, a check of
    13.8 ms against 27.3 direct.  bell-egf's S_0 and S_1, one group of
    two orders, stay direct over extend by 200 and check, as an
    emulation of two chunked squares took 8.7 ms against 7.4 shared at
    202 terms.  guess at 150 terms stays direct on bernoulli-egf, half of
    whose terms are zero (with chunks from block 4 on, its check took
    2.78 ms against 1.80), and on exp, whose entries shrink from 830 bits
    to 36 (from block 4 on, 2.47 ms against 2.04): the rule reads both
    and never switches them.  (Medians of three runs on one x86-64
    core.)"""
    chunked, stores = _chunk_path(monkeypatch)
    for name in ORACLES:
        guess(oracle_sequence(name, 27))
    assert chunked == []
    stores.clear()
    report = check(ZETA_EQ, oracle_sequence("zeta-rescaled", 201))
    assert report.passed and report.rows_checked == 200
    (derivs,) = stores
    assert derivs._chunks[0].start == 10
    assert [u for _, _, u in chunked] == list(range(80, 200))
    chunked.clear()
    stores.clear()
    grown = extend(BELL_EQ, oracle_sequence("bell-egf", 2), 200)
    assert check(BELL_EQ, grown).passed
    assert chunked == [] and len(stores) == 2
    assert all(derivs._chunks == {} for derivs in stores)
    for name in ("bernoulli-egf", "exp"):
        stores.clear()
        guess(oracle_sequence(name, 150))
        assert chunked == []
        assert [(j, chunks.start) for derivs in stores
                for j, chunks in derivs._chunks.items()] == [(0, inf)]


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(_INDEX_TERMS, min_size=1, max_size=4),
       values=_PREFIXES, count=st.integers(0, 3))
@example(terms=[(0, 2, 1)], values=[0, 0, Fraction(1, 3)], count=1)
def test_extend_warm_up_failure_is_checks_report(terms, values, count):
    """On initial terms that check rejects, extend raises
    InconsistentInitialTermsError at check's first failing row with its
    residual; on terms that check passes it raises no such error."""
    try:
        eq = QuadEquation([(s, slot(k - 2), c)
                           for s, k, c in terms])
    except ValueError:
        assume(False)
    initial = SequencePrefix(values)
    assume(len(initial) >= eq.max_shift)
    report = check(eq, initial)
    try:
        extend(eq, initial, count)
    except InconsistentInitialTermsError as exc:
        assert not report.passed
        assert (exc.row, exc.residual) == (report.first_failure,
                                           report.residual)
    except QuadGuessError:
        assert report.passed
    else:
        assert report.passed


def test_extend_warm_up_residual_past_the_digit_limit(default_digit_limit):
    """The error for a warm-up row prints a 5 001-digit residual at the
    default int/str digit limit."""
    with pytest.raises(InconsistentInitialTermsError) as exc:
        extend(_eq((0, 0, -1, 1)), SequencePrefix([10 ** 5000]), 1)
    assert exc.value.residual == 10 ** 5000
    assert str(exc.value).endswith("(residual 1" + "0" * 5000 + ")")


@pytest.mark.parametrize("eq,name,seed", ROUND_TRIPS,
                         ids=[name for _, name, _ in ROUND_TRIPS])
def test_extend_warm_up_fails_at_the_last_row(eq, name, seed):
    """The oracle's last initial term moved by 1/7 spoils only the last
    warm-up row; extend reports that row with check's residual."""
    values = list(oracle_sequence(name, seed + 6))
    values[-1] += Fraction(1, 7)
    initial = SequencePrefix(values)
    report = check(eq, initial)
    assert report.first_failure == len(values) - 1 - eq.max_shift
    with pytest.raises(InconsistentInitialTermsError) as exc:
        extend(eq, initial, 5)
    assert (exc.value.row, exc.value.residual) == (report.first_failure,
                                                   report.residual)


def test_extend_too_short_initial():
    with pytest.raises(InsufficientTermsError):
        extend(_eq((0, 2, -1, 1), (0, 1, 0, -1)), SequencePrefix([1]), 1)


@pytest.mark.parametrize("eq,name,seed", ROUND_TRIPS,
                         ids=[name for _, name, _ in ROUND_TRIPS])
def test_extend_round_trips_oracles(eq, name, seed):
    """Extending from a short oracle prefix reproduces the oracle exactly."""
    oracle = oracle_sequence(name, seed + 20)
    initial = SequencePrefix(list(oracle)[:seed])
    ext = extend(eq, initial, len(oracle) - seed)
    assert ext == oracle
    assert check(eq, ext).passed  # self-consistency


def test_guess_extend_closure():
    """Guessing on terms generated by a quadratic equation yields only
    equations that hold on a longer extension."""
    rng = random.Random(2024)
    cases = 0
    attempts = 0
    while cases < 8 and attempts < 400:
        attempts += 1
        terms = []
        for _ in range(rng.randint(2, 4)):
            s = rng.randint(0, 2)
            p = rng.randint(0, 2)
            q = rng.randint(-1, p)
            c = rng.choice([-2, -1, 1, 2, 3])
            terms.append((s, p, q, c))
        try:
            eq = _eq(*terms)
            seed_len = max(eq.max_shift, 1) + rng.randint(0, 1)
            seed = SequencePrefix([Fraction(rng.randint(1, 3))
                                   for _ in range(max(seed_len, 1))])
            longer = extend(eq, seed, 40 - len(seed))
        except Exception:
            continue
        short = SequencePrefix(list(longer)[:30])
        if short.is_zero():
            continue
        try:
            result = guess(short, GuessConfig())
        except Exception:
            continue
        if result.succeeded:
            for found in result.basis:
                assert check(found, longer).passed
        cases += 1
    assert cases >= 5
