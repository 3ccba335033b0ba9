import random
from collections import Counter
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadguess import exact, guessing
from quadguess.equations import (Derivatives, QuadEquation,
                                 monomial_of_orders, render_text)
from quadguess.errors import DegenerateInputError, InsufficientTermsError
from quadguess.exact import P, ColumnEchelon
from quadguess.guessing import (GuessConfig, GuessResult, _packed_orders,
                                _usable_rows, _Verifier, ansatz, guess,
                                normalize, slot)
from quadguess.prefix import SequencePrefix
from quadguess.sequences import ORACLES, check, oracle_sequence
from util_exact import (bareiss_nullspace, equation_vector, in_span,
                        monomial_row, rescaled_equation, rescaled_prefix,
                        term_coeff_bruteforce)


def _exact_slots(prefix):
    """The prefix's unreduced derivative sequences, for `_exact_system`."""
    return Derivatives(*prefix.scaled())


def _exact_system(prefix, d, m, slots=None):
    """(matrix, usable): rows 0 .. usable - 1 of the size-d system on the
    prefix, entry (mono, i) of row n the monomial_row of mono at row
    n - i, read from `slots` (one `_exact_slots(prefix)` reused across d,
    or a fresh one)."""
    slots = _exact_slots(prefix) if slots is None else slots
    columns = ansatz(d, m)
    usable = _usable_rows(len(prefix), d)
    return [[monomial_row(slots, n - i, mono.p, mono.q)
             for mono, i in columns]
            for n in range(usable)], usable


def test_column_count():
    assert len(ansatz(5, 2)) == 18


@pytest.mark.parametrize("m", range(4))
def test_ansatz_sizes_are_prefixes(m):
    """The columns of size d are a prefix of those of size d + 1."""
    for d in range(12):
        columns = ansatz(d, m)
        assert ansatz(d + 1, m)[:len(columns)] == columns


@pytest.mark.parametrize("m", range(4))
def test_ansatz_shift_is_one_term_max_shift(m):
    """Column (mono, i)'s shift max(p, 0) - i is the max_shift of its
    one-term equation, and the rows the size-d system can form from N
    terms, N less the largest shift of a scan of its columns and at least
    0, are _usable_rows's closed form N - slot(d).p."""
    for d in range(41):
        columns = ansatz(d, m)
        shifts = [QuadEquation([(i, mono, 1)]).max_shift
                  for mono, i in columns]
        assert shifts == [max(mono.p, 0) - i for mono, i in columns]
        for n_terms in (1, 2, 5, 12, 40, 151):
            assert _usable_rows(n_terms, d) == max(0, n_terms - max(shifts))


@pytest.mark.parametrize("m", range(4))
def test_ansatz_is_equation_vector_layout(m):
    """Column j of the size-d ansatz is entry j of util_exact's
    equation_vector, its own k-major layout: the one-term equation of
    column j has the j-th unit vector."""
    for d in range(8):
        columns = ansatz(d, m)
        for j, (mono, i) in enumerate(columns):
            vec = equation_vector(QuadEquation([(i, mono, 1)]), d, m)
            assert vec == [int(c == j) for c in range(len(columns))]


def test_assemble_second_derivative_column():
    # column (k=5, i=0) hosts f''; its row-n entry is (n+1)(n+2) a_{n+2},
    # times den**2 for the prefix scaled to nums / den
    prefix = oracle_sequence("zigzag-egf", 20)
    matrix, usable = _exact_system(prefix, d=5, m=2)
    assert usable == 18
    col = ansatz(5, 2).index((slot(5), 0))
    _, den = prefix.scaled()
    for n in range(usable):
        assert matrix[n][col] == (n + 1) * (n + 2) * prefix[n + 2] * den**2


def test_assemble_usable_rows_respects_prefix():
    prefix = oracle_sequence("exp", 10)
    _, usable = _exact_system(prefix, d=5, m=2)
    assert usable == 10 - 2  # rows read two indices ahead at d = 5


def _reference_matrix(prefix, d, m, usable):
    """Brute-force series coefficients times den**2, entry by entry."""
    a = list(prefix)
    _, den = prefix.scaled()
    matrix = []
    for n in range(usable):
        row = []
        for mono, i in ansatz(d, m):
            row.append(term_coeff_bruteforce(a, i, mono.p, mono.q, n)
                       * den**2)
        matrix.append(row)
    return matrix


def test_assemble_shared_rows_match_per_entry_reference():
    """One set of derivative sequences reused across d gives exactly the
    matrices of per-entry evaluation: d growing then a smaller d again, and
    a smaller d that reads more rows than a larger d did (usable 38 ->
    39)."""
    prefix = oracle_sequence("zeta-rescaled", 40)
    for order in ((3, 4, 5, 6, 7, 4), (7, 4)):
        slots = _exact_slots(prefix)
        for d in order:
            matrix, usable = _exact_system(prefix, d, 2, slots)
            assert matrix == _reference_matrix(prefix, d, 2, usable)
            assert all(type(x) is int for row in matrix for x in row)


# P, the next Mersenne prime, a Fermat prime and the smallest odd prime
_SLOT_PRIMES = (P, 2**89 - 1, 65537, 3)


@st.composite
def _slot_cases(draw):
    """(nums, den, p, k, counts): a sequence nums / den (random, all zero
    or, the slot-bound maximum, all p - 1 with den = p - 1), a prime of
    _SLOT_PRIMES, a monomial slot k that reads at least one row, linear
    (q = -1) or a product, and the row counts read from it in turn."""
    p = draw(st.sampled_from(_SLOT_PRIMES))
    size = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(("random", "zero", "top")))
    if kind == "random":
        nums = draw(st.lists(st.integers(-10**40, 10**40), min_size=size,
                             max_size=size))
        den = draw(st.integers(1, 10**40))
    else:
        nums, den = [0 if kind == "zero" else p - 1] * size, p - 1
    k = draw(st.integers(0, 20))
    rows = size - slot(k).p
    assume(rows > 0)
    counts = draw(st.lists(st.integers(1, rows), min_size=1, max_size=4))
    return nums, den, p, k, counts


@given(_slot_cases())
@example(([P - 1] * 24, P - 1, P, 1, [24, 3, 24]))    # f^2: every bound
@example(([65536] * 6, 65536, 65537, 2, [2, 5, 1]))    # f' = f^(1) * 1
@example(([1, 2, 3], P, P, 0, [3]))                    # den = 0 mod P
@example(([7], 5, 3, 0, [1]))
@settings(max_examples=300, deadline=None)
def test_packed_slot_rows_match_term_numerator(case):
    """Slot k's packed rows mod p, the product of its two orders from one
    `_packed_orders` memo masked to count slots as guess masks them to its
    usable rows, are its schoolbook rows mod p at every count, in
    slots as wide as the most rows read need, also at a count below the
    one before it and back up; every slot is below count * p**2 for that
    largest count."""
    nums, den, p, k, counts = case
    mono = slot(k)
    derivs = Derivatives(nums, den)
    packed = max(counts)
    bits = exact.slot_bits(packed, p)
    orders = _packed_orders(nums, den, p, bits)
    for count in [packed] + counts:
        rows = orders(mono.p) * orders(mono.q) & (1 << bits * count) - 1
        values = [rows >> bits * n & (1 << bits) - 1 for n in range(count)]
        assert max(values) < packed * p * p
        assert [x % p for x in values] == [
            monomial_row(derivs, n, mono.p, mono.q) % p
            for n in range(count)], (count, values)


def test_guess_exp_contains_first_order_equation():
    result = guess(oracle_sequence("exp", 15))
    assert result.succeeded and result.d == 3
    target = QuadEquation([(0, monomial_of_orders(1, -1), 1),
                           (0, monomial_of_orders(0, -1), -1)])
    assert target in result.basis
    vectors = [equation_vector(eq, result.d, result.m)
               for eq in result.basis]
    assert in_span(vectors, equation_vector(target, result.d, result.m))


def test_guess_degenerate_input():
    with pytest.raises(DegenerateInputError):
        guess(SequencePrefix([0, 0, 0, 0]))


def test_guess_insufficient_terms():
    with pytest.raises(InsufficientTermsError):
        guess(SequencePrefix([1, 1, 1]))


def spy_ansatz(monkeypatch, n_terms):
    """Fail any `guessing.ansatz` call that asks for more columns than
    the prefix's n_terms, before it builds them."""
    build = guessing.ansatz

    def spied(d, m):
        assert (d + 1) * (m + 1) <= n_terms, (d, m)
        return build(d, m)

    monkeypatch.setattr(guessing, "ansatz", spied)


@pytest.mark.parametrize("bounds", [{"m": 10**12}, {"d_start": 10**12},
                                    {"m": 10**12, "d_max": 10**12}])
def test_guess_huge_bounds_raise_before_building(monkeypatch, bounds):
    """A bound whose first system has more unknowns than the prefix has
    terms raises InsufficientTermsError before any column is built:
    usable rows never exceed the term count."""
    prefix = oracle_sequence("zigzag-egf", 20)
    spy_ansatz(monkeypatch, len(prefix))
    cfg = GuessConfig(**bounds)
    with pytest.raises(InsufficientTermsError) as exc:
        guess(prefix, cfg)
    assert str(exc.value) == (
        f"20 terms admit no system at d = {cfg.d_start} "
        f"(m = {cfg.m}, min_verify_rows = 2)")


def test_guess_fail_status():
    rng = random.Random(3)
    prefix = SequencePrefix([Fraction(rng.randint(1, 10**6),
                                      rng.randint(1, 10**6))
                             for _ in range(24)])
    result = guess(prefix)
    assert result.status == "fail"
    assert result.basis == ()


def test_guess_minimality_of_d():
    """Below the accepted d, the stacked system has a trivial nullspace."""
    prefix = oracle_sequence("zeta-rescaled", 24)
    result = guess(prefix)
    assert result.succeeded
    for d in range(3, result.d):
        matrix, _ = _exact_system(prefix, d, result.m)
        assert bareiss_nullspace(matrix, (result.m + 1) * (d + 1)) == []


def _guess_full_exact(prefix, cfg=GuessConfig()):
    """guess's search with the full exact system at every d: the exact slot
    rows, then Bareiss elimination of all of them, then normalize."""
    m = cfg.m
    d_cap = cfg.d_max if cfg.d_max is not None else ceil(len(prefix) / (m + 1))
    slots = _exact_slots(prefix)
    for d in range(cfg.d_start, d_cap + 1):
        construction = (m + 1) * (d + 1)
        matrix, usable = _exact_system(prefix, d, m, slots)
        if usable < construction + cfg.min_verify_rows:
            break
        basis = bareiss_nullspace(matrix, construction)
        if basis:
            return GuessResult(status="success", d=d, m=m,
                               basis=tuple(normalize(v, ansatz(d, m))
                                           for v in basis),
                               construction_rows=construction,
                               verification_rows=usable - construction)
    return GuessResult(status="fail", m=m)


def _prime_denominator_prefix(rng, count):
    """The fail-random shape: 20-bit numerators over distinct 15-bit prime
    denominators, so every ansatz size is full rank."""
    primes = [q for q in range(2**14 + 1, 2**15, 2)
              if all(q % f for f in range(3, int(q**0.5) + 1, 2))]
    return [Fraction(rng.choice((-1, 1)) * rng.randrange(2**19, 2**20), q)
            for q in rng.sample(primes, count)]


def test_guess_matches_full_exact_path(monkeypatch):
    """guess ranks each d in one column echelon mod P per search and reads
    the sequence exactly only to verify lifted equations; its result
    equals the full exact system's, byte for byte, also where reduction
    mod P loses every row (oracle * P), where den = 0 mod P (oracle / P),
    where rank drops only mod P (an oracle with P added to its middle or
    last term) so that the basis lifted from the echelon's kernel mod P
    fails verification and all rows decide mod further Mersenne primes, and
    where the kernel's entries are past the 2**30 bound of a lift from P
    alone (an oracle rescaled by 3**40 / (2**50 + 1)), the fallback's
    usual trigger: it runs for at least 5 of those 7."""
    ranks, kernels = [], []  # echelon (rank, width, height) per d; fallback?
    rank_filter = guessing.modular_nullspace
    echelon_kernel = ColumnEchelon.kernel

    def logged_rank(echelon_at, verify):
        def logged_at(p):
            echelon = echelon_at(p)
            if p == P:
                ranks.append((echelon.rank, echelon.width, echelon.height))
            return echelon
        return rank_filter(logged_at, verify)

    def logged_echelon_kernel(echelon):
        pivots, basis = echelon_kernel(echelon)
        if echelon.p != P:
            kernels.append(True)     # past P: the fallback, on all rows
        elif basis:
            kernels.append(False)    # mod P: off the echelon, not full rank
        return pivots, basis

    monkeypatch.setattr(guessing, "modular_nullspace", logged_rank)
    monkeypatch.setattr(ColumnEchelon, "kernel", logged_echelon_kernel)

    def compare(values):
        prefix = SequencePrefix(values)
        ranks.clear()
        kernels.clear()
        result = guess(prefix).to_json()
        paths = list(ranks), list(kernels)
        assert result == _guess_full_exact(prefix).to_json(), values
        return paths

    def plus_p(values, t):
        return values[:t] + (values[t] + P,) + values[t + 1:]

    rng = random.Random(83)
    for _ in range(12):
        compare([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(rng.randint(14, 30))])
    last_term_fallbacks = 0
    for name in sorted(ORACLES):
        values = oracle_sequence(name, rng.randint(26, 32)).values
        _, fallback = compare(values)
        assert fallback == [False], name   # read off the echelon
        ranks_times_p, _ = compare([v * P for v in values])
        assert {rank for rank, _, _ in ranks_times_p} == {0}
        over_p = [v / P for v in values]
        assert SequencePrefix(over_p).scaled()[1] % P == 0
        compare(over_p)
        _, fallback = compare(plus_p(values, len(values) // 2))
        assert True in fallback, name
        # only the last row reads the last term, and an equation whose
        # max_shift is below r(d) does not read it there
        _, fallback = compare(plus_p(values, len(values) - 1))
        last_term_fallbacks += True in fallback
    assert last_term_fallbacks
    for _ in range(3):
        per_d, fallback = compare(_prime_denominator_prefix(rng, 40))
        assert fallback == []
        assert all(rank == width for rank, width, _ in per_d)
        assert len({height for _, _, height in per_d}) == 3  # cut twice
    lam = Fraction(3**40, 2**50 + 1)
    rescaled_fallbacks = 0
    for name in sorted(ORACLES):
        values = rescaled_prefix(oracle_sequence(name, rng.randint(28, 32)),
                                 lam)
        _, fallback = compare(list(values))
        rescaled_fallbacks += True in fallback
    assert rescaled_fallbacks >= 5


def test_guess_packs_each_modulus_once(monkeypatch):
    """guess keeps one memo of packed orders (`_packed_orders`) and one
    ColumnEchelon per modulus for the whole search: on bell-egf with P
    added to term 30, where every d from the oracle's own on is
    rank-deficient only mod P and takes the fallback, the residues mod
    each modulus are packed once, not once per d, and each modulus's
    echelon, P's and the fallback's alike, is built once and adds each
    column once, so its adds are its final width."""
    built, echelons, adds = Counter(), {}, Counter()
    packed_orders = guessing._packed_orders
    column_echelon = guessing.ColumnEchelon
    add = ColumnEchelon.add

    def counted(nums, den, p, bits):
        built[p] += 1
        return packed_orders(nums, den, p, bits)

    def counted_echelon(height, p=P):
        echelons.setdefault(p, []).append(column_echelon(height, p))
        return echelons[p][-1]

    def counted_add(echelon, column):
        adds[echelon.p] += 1
        add(echelon, column)

    monkeypatch.setattr(guessing, "_packed_orders", counted)
    monkeypatch.setattr(guessing, "ColumnEchelon", counted_echelon)
    monkeypatch.setattr(ColumnEchelon, "add", counted_add)
    values = list(oracle_sequence("bell-egf", 60).values)
    values[30] += P
    guess(SequencePrefix(values))
    assert len(built) >= 2 and set(built.values()) == {1}, built
    assert len(echelons[P]) == 1 and len(echelons) >= 2, echelons
    assert {p: len(made) for p, made in echelons.items()} == dict.fromkeys(
        built, 1)
    assert adds == {p: made[0].width for p, made in echelons.items()}, adds


def _bruteforce_rows(values, d, m, count):
    """Rows 0 .. count - 1 of the size-d system, entry by entry by series
    arithmetic on the terms."""
    return [[term_coeff_bruteforce(values, i, mono.p, mono.q, n)
             for mono, i in ansatz(d, m)]
            for n in range(count)]


def _vanishes_bruteforce(rows, vec):
    return all(sum(x * v for x, v in zip(row, vec)) == 0 for row in rows)


def _z_multiple(vec, j, m):
    """z^j * vec, entry (k, i) moved to (k, i + j), with the entries moved
    past z^m dropped."""
    return [vec[b + i - j] if i >= j else 0
            for b in range(0, len(vec), m + 1) for i in range(m + 1)]


def _counted(verifier):
    """Count the exact passes a _Verifier makes, in passes[0]."""
    passes = [0]
    vanishes = verifier.vanishes

    def counted(eq):
        passes[0] += 1
        return vanishes(eq)

    verifier.vanishes = counted
    return passes


_short_prefixes = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    min_size=5, max_size=12)


@st.composite
def _systems(draw, noise=True):
    """(values, d, m, count, rows, vec): a short random prefix, the first
    count brute-force rows of one size on it, and an integer vector: a
    random combination of the kernel basis (Bareiss) of the columns with
    z-powers up to some top <= m, zero above top, plus, half the time if
    `noise`, random noise."""
    values = draw(_short_prefixes)
    d, m = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    top = draw(st.integers(0, m))
    usable = _usable_rows(len(values), d)
    assume(usable > 0)
    count = draw(st.integers(1, usable))
    width = (m + 1) * (d + 1)
    rows = _bruteforce_rows(values, d, m, count)
    low = [j for j, (_, i) in enumerate(ansatz(d, m)) if i <= top]
    kernel = bareiss_nullspace([[row[j] for j in low] for row in rows],
                               len(low))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(kernel),
                           max_size=len(kernel)))
    options = [st.just([0] * width)]
    if noise:
        options.append(st.lists(st.integers(-3, 3), min_size=width,
                                max_size=width))
    vec = list(draw(st.one_of(options)))
    for c, v in zip(coeffs, kernel):
        for j, x in zip(low, v):
            vec[j] += c * x
    assume(any(vec))
    return values, d, m, count, rows, vec


@given(_systems())
@settings(max_examples=200, deadline=None)
def test_verifier_matches_bruteforce(system):
    """guess's exact check of one vector, through check's walk on the
    exact terms, equals series arithmetic row by row."""
    values, d, m, count, rows, vec = system
    prefix = SequencePrefix(values)
    verifier = _Verifier(prefix.values, ansatz(d, m), count)
    assert (verifier(vec) is not None) == _vanishes_bruteforce(rows, vec)


def _fitting_multiple(w, v, m):
    """Whether v is z^k * w for some k >= 1 that moves no nonzero entry
    of w past z^m."""
    return any(_z_multiple(w, k, m) == list(v)
               and not any(w[b + i] for b in range(0, len(w), m + 1)
                           for i in range(m + 1 - k, m + 1))
               for k in range(1, m + 1))


@given(_systems(noise=False))
@example(([Fraction(1), 0, 0, 0, 0], 1, 2, 1,
          [[Fraction(1), 0, 0, Fraction(1), 0, 0]], [1, 0, 0, -1, 0, 1]))
@settings(max_examples=200, deadline=None)
def test_verifier_shifts_match_bruteforce(system):
    """After a vector passes, its z-multiples that keep every z-power
    within m pass without an exact pass of their own.  A multiple that
    would move a nonzero entry past z^m (dropped here) is not one of them:
    it gets its own exact pass, unless it is a fitting z-multiple of an
    earlier dropped multiple that passed.  Every answer equals series
    arithmetic, and every vector that passed, with or without a pass of
    its own, has `normalize`'s equation."""
    values, d, m, count, rows, vec = system
    prefix = SequencePrefix(values)
    verifier = _Verifier(prefix.values, ansatz(d, m), count)
    passes = _counted(verifier)
    assert verifier(vec) is not None and passes[0] == 1
    passed = [list(vec)]
    for j in range(1, m + 1):
        shifted = _z_multiple(vec, j, m)
        if not any(shifted):
            continue
        covered = any(_fitting_multiple(w, shifted, m) for w in passed)
        before = passes[0]
        ok = verifier(shifted) is not None
        assert ok == _vanishes_bruteforce(rows, shifted)
        assert passes[0] == before + (not covered), (vec, j)
        if ok:
            passed.append(shifted)
    for w in passed:
        assert verifier(w) == normalize(w, ansatz(d, m)), w


def test_verifier_accepts_multiples_of_a_passed_shift():
    """After y' - y passes on exp, its z-multiple times -2 and over 3 are
    accepted as z * (y' - y) with no further exact pass: the verifier
    keeps equations, and every multiple normalizes to the same one."""
    d, m = 3, 2
    columns = ansatz(d, m)
    prefix = oracle_sequence("exp", 20)
    eq = QuadEquation([(0, slot(2), 1), (0, slot(0), -1)])
    vec = equation_vector(eq, d, m)
    verifier = _Verifier(prefix.values, columns, _usable_rows(len(prefix), d))
    passes = _counted(verifier)
    assert verifier(vec) == eq and passes[0] == 1
    shifted = QuadEquation([(s + 1, mono, c) for s, mono, c in eq.terms])
    moved = _z_multiple(vec, 1, m)
    for w in ([-2 * x for x in moved], [Fraction(x) / 3 for x in moved]):
        assert verifier(w) == shifted
    assert passes[0] == 1
    # a negative control: a vector that does not vanish takes a pass
    assert verifier([x + 1 for x in vec]) is None and passes[0] == 2


_scale = st.fractions(min_value=-7, max_value=7,
                      max_denominator=9).filter(bool)


@given(st.integers(0, 3), st.integers(0, 2), _scale, st.data())
@settings(max_examples=200, deadline=None)
def test_normalize_ignores_scale_and_follows_z(d, m, c, data):
    """normalize gives every nonzero rational multiple of a vector the
    same equation, and a vector with no entry at z^m, moved up one
    z-power, the equation's terms with every z-power one higher: the two
    facts the verifier's cache of equations rests on."""
    columns = ansatz(d, m)
    vec = data.draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=len(columns), max_size=len(columns)))
    if m:
        vec = [0 if i == m else x for x, (_, i) in zip(vec, columns)]
    assume(any(vec))
    eq = normalize(vec, columns)
    assert normalize([c * x for x in vec], columns) == eq
    if m:
        moved = normalize(_z_multiple(vec, 1, m), columns)
        assert moved.terms == tuple((s + 1, mono, x)
                                    for s, mono, x in eq.terms)


def test_verifier_exact_passes_at_150_terms(monkeypatch):
    """guess verifies one equation per oracle at 150 terms and accepts its
    z-multiples from the first pass; exp's basis has two generators.  Each
    basis vector is normalized once: the verifier's equation is kept."""
    passes, normalized = [], []
    vanishes = _Verifier.vanishes

    def counted(self, eq):
        passes.append(eq)
        return vanishes(self, eq)

    def counted_normalize(vector, columns):
        normalized.append(tuple(vector))
        return normalize(vector, columns)

    monkeypatch.setattr(_Verifier, "vanishes", counted)
    monkeypatch.setattr(guessing, "normalize", counted_normalize)
    counts = {}
    for name in sorted(ORACLES):
        passes.clear()
        normalized.clear()
        result = guess(oracle_sequence(name, 150))
        assert result.succeeded
        assert set(passes) <= set(result.basis)
        assert len(normalized) == len(set(normalized)) == len(result.basis)
        counts[name] = len(passes)
    assert counts == {name: 2 if name == "exp" else 1 for name in ORACLES}


def test_guess_verifies_through_one_walk_per_pass(monkeypatch):
    """On the seven oracles at 150 terms, guess builds no Derivatives of
    the unreduced prefix: each store it builds is either a walk's, which
    starts empty over den 1, or one of residues below P.  Each exact pass
    of the verifier is exactly one walk, of check's row loop, on the
    terms its rows read, and there are 8 passes in all."""
    stores, walks, passes = [], [], []
    init, walk = Derivatives.__init__, guessing._walk
    vanishes = _Verifier.vanishes

    def spy_init(self, nums, den):
        init(self, nums, den)
        stores.append((list(self.nums), self.den))

    def spy_walk(eq, values, count):
        walks.append((eq, len(values), count))
        return walk(eq, values, count)

    def spy_vanishes(self, eq):
        before = len(walks)
        passes.append(eq)
        result = vanishes(self, eq)
        assert walks[before:] == [(eq, self.count + eq.max_shift, 0)]
        return result

    monkeypatch.setattr(Derivatives, "__init__", spy_init)
    monkeypatch.setattr(guessing, "_walk", spy_walk)
    monkeypatch.setattr(_Verifier, "vanishes", spy_vanishes)
    for name in sorted(ORACLES):
        result = guess(oracle_sequence(name, 150))
        assert result.succeeded
    assert stores and all(store == ([], 1) or (
        0 <= store[1] < P and all(0 <= x < P for x in store[0]))
        for store in stores)
    assert len(walks) == len(passes) == 8


def test_guess_soundness_all_rows():
    """Every returned equation annihilates every formable row."""
    for name, count in (("zeta-rescaled", 24), ("bernoulli-egf", 26),
                        ("exp", 15)):
        prefix = oracle_sequence(name, count)
        result = guess(prefix)
        assert result.succeeded
        for eq in result.basis:
            report = check(eq, prefix)
            assert report.passed


def test_guess_deterministic():
    prefix = oracle_sequence("bell-egf", 26)
    assert guess(prefix).to_json() == guess(prefix).to_json()


def test_guess_result_json_roundtrip():
    result = guess(oracle_sequence("exp", 15))
    again = GuessResult.from_json(result.to_json())
    assert again == result


def test_scaling_invariance_of_solutions():
    """Geometric rescaling of the prefix maps solutions through the
    per-term coefficient reweighting, and back."""
    lam = Fraction(2, 3)
    prefix = oracle_sequence("zeta-rescaled", 24)
    scaled = SequencePrefix([v * lam ** n for n, v in enumerate(prefix)])
    result = guess(prefix)
    for eq in result.basis:
        assert check(rescaled_equation(eq, lam), scaled).passed
        assert check(rescaled_equation(rescaled_equation(eq, lam), 1 / lam),
                     prefix).passed
    # the inverse: dividing out lam^n recovers the original
    assert rescaled_prefix(scaled, lam) == SequencePrefix(list(prefix))


def _monic(eq):
    """eq's terms over its last coefficient: equal for scalar multiples."""
    return tuple((s, mono, c / eq.terms[-1][2]) for s, mono, c in eq.terms)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(ORACLES)), count=st.integers(20, 40),
       lam=st.sampled_from([Fraction(3), Fraction(-2, 5),
                            Fraction(3 ** 40, 2 ** 50 + 1)]),
       cfg=st.sampled_from([GuessConfig(), GuessConfig(m=0, d_start=1)]))
# its kernel lifts only past P, at 2^89 - 1
@example(name="zigzag-egf", count=26, lam=Fraction(3 ** 40, 2 ** 50 + 1),
         cfg=GuessConfig())
def test_guess_commutes_with_rescaling(name, count, lam, cfg):
    """Rescaling is a symmetry of guess: z -> z / lam keeps the z-degree
    of every polynomial coefficient, so on a_n / lam^n guess ends with
    the same status at the same d, and its basis is the original's
    mapped by rescaled_equation(eq, 1 / lam), vector by vector, up to a
    scalar each."""
    prefix = oracle_sequence(name, count)
    result = guess(prefix, cfg)
    scaled = guess(rescaled_prefix(prefix, lam), cfg)
    assert (scaled.status, scaled.d) == (result.status, result.d)
    assert [_monic(eq) for eq in scaled.basis] == \
        [_monic(rescaled_equation(eq, 1 / lam)) for eq in result.basis]


def test_zeta_graded_check_at_n0():
    # first row of the rescaled zeta recurrence: 5 * (1/90) = 2 * (1/6)^2
    a = oracle_sequence("zeta-rescaled", 2)
    assert 5 * a[1] - 2 * a[0] ** 2 == 0


def test_normalize_single_entry():
    eq = normalize([Fraction(3, 7)] + [Fraction(0)] * 11, ansatz(3, 2))
    assert render_text(eq, "ode") == "y = 0"
    assert eq.terms[0][2] == 1


def test_normalize_sign_rule():
    # two unknowns of the same monomial, different z powers: the higher
    # z-power coefficient ends up positive
    vec = [Fraction(0)] * 12
    vec[0] = Fraction(1)   # (k=0, i=0): f
    vec[1] = Fraction(-1)  # (k=0, i=1): z*f
    eq = normalize(vec, ansatz(3, 2))
    assert render_text(eq, "ode") == "z*y - y = 0"


def test_normalize_clears_content_and_denominators():
    vec = [Fraction(0)] * 12
    vec[0] = Fraction(-4, 6)
    vec[3] = Fraction(4, 3)   # (k=1, i=0): f^2
    eq = normalize(vec, ansatz(3, 2))
    coeffs = [c for _, _, c in eq.terms]
    assert coeffs == [-1, 2]


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize([Fraction(0)] * 12, ansatz(3, 2))


@pytest.mark.parametrize("field,value", [
    ("m", True), ("m", 2.0), ("d_start", "3"), ("d_start", False),
    ("d_max", 4.0), ("d_max", True), ("min_verify_rows", 1.5),
    ("min_verify_rows", None)])
def test_config_rejects_non_int_bounds(field, value):
    """A bound that is not a plain int is rejected up front: a bool would
    reach the JSON output as true, a float would fail deep in range()."""
    with pytest.raises(ValueError, match=field):
        GuessConfig(**{field: value})


def test_config_validation():
    with pytest.raises(ValueError):
        GuessConfig(m=-1)
    with pytest.raises(ValueError):
        GuessConfig(d_start=0)


@pytest.mark.parametrize("d_start,d_max", [(3, 2), (3, 1), (3, -4), (5, 4)])
def test_config_rejects_d_max_below_d_start(d_start, d_max):
    with pytest.raises(ValueError, match="d_max"):
        GuessConfig(d_start=d_start, d_max=d_max)


def test_config_accepts_d_max_at_d_start():
    assert GuessConfig(d_start=3, d_max=3).d_max == 3
    assert GuessConfig(d_max=None).d_max is None


@pytest.mark.parametrize("m", range(4))
def test_d_max_bounds_d_only_when_given(m):
    """With no d_max, d is bounded only by the rows the prefix determines,
    which stop it below len(prefix) / (m + 1): d_max = len(prefix) gives
    the same result, also where no d admits a system."""
    rng = random.Random(41 + m)
    prefixes = [oracle_sequence(name, n)
                for name in sorted(ORACLES) for n in (8, 16, 26, 40)]
    prefixes += [SequencePrefix([Fraction(rng.choice((-1, 1))
                                          * rng.randint(1, 9),
                                          rng.randint(1, 9))
                                 for _ in range(rng.randint(8, 40))])
                 for _ in range(8)]
    for prefix in prefixes:
        outcomes = []
        for cfg in (GuessConfig(m=m), GuessConfig(m=m, d_max=len(prefix))):
            try:
                outcomes.append(guess(prefix, cfg).to_json())
            except InsufficientTermsError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], prefix
