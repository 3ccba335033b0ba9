"""The benchmark workloads.

Each workload builds all of its inputs from the seed during set-up and
returns the operations of one pass.  An operation has three parts:
`prepare` builds fresh input objects (untimed; `SequencePrefix.scaled()`
caches on the object, and users pay it once per input), `run` is the timed
call into quadguess, and `verify` checks the output (untimed).

Operations call quadguess through module attributes looked up at call time
(`qg.guessing.guess`, not a name bound at import), so the traced run sees
the wrappers installed by spans.Tracer.
"""

import contextlib
import io
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

import verifier


@dataclass(frozen=True)
class Op:
    label: str
    prepare: Callable[[], object]
    run: Callable[[object], object]
    verify: Callable[[object, object], object]   # -> None or a reason
    # Outputs with equal keys get the same verdict, so a pass that repeats
    # an input and its output is not re-verified.  None: verify every time.
    verdict_key: Callable[[object], object] | None = None
    # Additive quantities for workload-specific rates (terms, rows, seconds).
    tally: Callable[[object], dict] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    guesses: bool                      # operations are guess calls
    build: Callable[..., list]         # (qg, rng, workdir) -> [Op]


def _guess_op(qg, label, values, target):
    return Op(label=label,
              prepare=lambda: qg.SequencePrefix(values),
              run=lambda prefix: qg.guessing.guess(prefix),
              verify=lambda prefix, result: verifier.verify_guess(
                  qg, prefix, result, target),
              verdict_key=lambda result: result)


def build_oracle_long(qg, rng, workdir):
    """guess on each of the seven oracles at 149-151 terms, where scaled
    entries carry 850-1800 bits; the seed picks each length and the order."""
    names = sorted(verifier.TARGET_TERMS)
    rng.shuffle(names)
    ops = []
    for name in names:
        count = rng.randint(149, 151)
        values = qg.oracle_sequence(name, count).values
        ops.append(_guess_op(qg, f"guess {name} n={count}", values,
                             verifier.target_equation(qg, name)))
    return ops


def _primes(lo, hi):
    sieve = bytearray([1]) * hi
    sieve[0:2] = b"\0\0"
    for i in range(2, int(hi ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(lo, hi) if sieve[i]]


RANDOM_PREFIXES = 3
RANDOM_TERMS = 40


def build_fail_random(qg, rng, workdir):
    """guess on random rationals: every ansatz size up to the d cap is full
    rank, so each search fails after 8 Bareiss eliminations.

    Numerators are 20-bit; denominators are distinct 15-bit primes, so the
    common denominator, and with it the size of every scaled entry (about
    590 bits), is the same for every seed and the cost does not depend on
    how many small factors random denominators happen to share."""
    primes = _primes(2 ** 14, 2 ** 15)
    ops = []
    for k in range(RANDOM_PREFIXES):
        dens = rng.sample(primes, RANDOM_TERMS)
        values = tuple(Fraction(rng.choice((-1, 1))
                                * rng.randrange(2 ** 19, 2 ** 20), den)
                       for den in dens)
        ops.append(_guess_op(qg, f"guess random-{k} n={RANDOM_TERMS}",
                             values, None))
    return ops


def build_extend_check(qg, rng, workdir):
    """extend three oracle equations by 199-201 new terms each (the seed
    picks the count and the order), then check each equation on the
    extended prefix.  extend solves rows through sequences._row_split;
    check reads every row through RowGenerator.value."""
    starts = {"zeta-rescaled": 1, "bell-egf": 2, "lambertw": 2}
    names = sorted(starts)
    rng.shuffle(names)
    ops = []
    for name in names:
        count = rng.randint(199, 201)
        reference = qg.oracle_sequence(name, starts[name] + count).values
        initial = reference[:starts[name]]
        eq = verifier.target_equation(qg, name)

        def run(seed_prefix, eq=eq, count=count):
            t0 = perf_counter()
            extended = qg.sequences.extend(eq, seed_prefix, count)
            t1 = perf_counter()
            report = qg.sequences.check(eq, extended)
            t2 = perf_counter()
            return extended, report, count, t1 - t0, t2 - t1

        ops.append(Op(
            label=f"extend+check {name} +{count}",
            prepare=lambda initial=initial: qg.SequencePrefix(initial),
            run=run,
            verify=lambda _p, out, reference=reference, eq=eq:
                verifier.verify_extension(out[0], reference, eq, out[1]),
            tally=lambda out: {"extend_terms": out[2], "extend_s": out[3],
                               "check_rows": out[1].rows_checked,
                               "check_s": out[4]}))
    return ops


def build_cli_short(qg, rng, workdir):
    """`quadguess guess --input FILE --format json` in-process on the seven
    oracles at 26-27 terms, written to files during set-up.  Per-call
    overhead (argument parsing, file parsing, JSON rendering) dominates."""
    names = sorted(verifier.TARGET_TERMS)
    rng.shuffle(names)
    ops = []
    for name in names:
        count = rng.randint(26, 27)
        prefix = qg.oracle_sequence(name, count)
        path = workdir / f"{name}.txt"
        path.write_text(qg.dump_prefix(prefix), encoding="utf-8")
        argv = ["guess", "--input", str(path), "--format", "json"]

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = qg.cli.main(argv)
            return code, out.getvalue()

        ops.append(Op(
            label=f"cli guess {name} n={count}",
            prepare=lambda argv=argv: list(argv),
            run=run,
            verify=lambda _argv, out, prefix=prefix,
            target=verifier.target_equation(qg, name):
                verifier.verify_cli(qg, prefix, out[0], out[1], target),
            verdict_key=lambda out: out))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("guess-oracle-long",
             "guess on the seven oracles at ~150 terms; row assembly is ~90% "
             "of the time, so a row cache or faster kernel shows here",
             True, build_oracle_long),
    Workload("guess-fail-random",
             "failing searches on random rationals; Bareiss nullspace is ~85% "
             "of the time, for the modular rank filter; a row cache does "
             "little",
             True, build_fail_random),
    Workload("extend-check-long",
             "extend by 200 terms and check; extend and check evaluate rows "
             "by different code, so a shared row evaluator can trade one for "
             "the other",
             False, build_extend_check),
    Workload("guess-cli-short",
             "CLI guess at ~26 terms; per-call parsing and rendering "
             "dominate, so a row cache should barely move it",
             True, build_cli_short),
)}
