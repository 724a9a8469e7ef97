"""Seeded op lists for the three workloads, one list per round.

A round is plain JSON: the same (workload, seed, round) always gives the
same list of ops.  Every round of a workload has the same length and the
same make-up, drawn afresh, so no input repeats inside a run and a memo
keyed on the input cannot pay from the second round on; a run made of
whole rounds attempts the same mix whatever the seed.  Draws are
stratified (one draw per equal-width bin) so that the spread of op costs
within a round, and hence the latency percentiles, changes little from
round to round and seed to seed.  Only the standard library is used here:
the rounds are made apart from the program under test.
"""

import functools
import math
import random

WORKLOADS = ("random_sets", "pi_li", "cli_oneshot")

# the prime table of pi_li is sieved to this limit
TABLE_LIMIT = 10**5

# Rounds are kept short (about half a second here): the machine this was
# tuned on changes speed by up to a third for seconds at a time, and the
# figures come from a quarter of a run's rounds picked by speed
# (worker.summarize), which needs a round to fall within one such stretch.
# With 400 random sets a round instead of 100, the op figures of six runs
# spread 0.17-0.20 instead of 0.05-0.12; with 80 pi_li points a round
# instead of 40, five runs spread 0.18-0.22 instead of 0.11-0.14.
RANDOM_SET_SEEDS = 100  # per round; each seed runs exact and float
LI_POINTS = 40  # per round, and as many intervals
# Adaptive quadrature of 1/log y over [2, x] (li_from_2, and the smooth part
# of prime_count_via_li) runs into its 10**6-panel budget at scattered x
# above about 7500: seconds per call, or PanelBudgetError (CHANGES.md has
# the FOUND line).  A scan of 12000 x below 5600 found at most 28 panels,
# so the routes through that quadrature are timed below this bound.
LI_X_MAX = 5000.0
CLI_X_MAX = 20000.0
CLI_JITTER = 0.25
# exact harmonic and prime-reciprocal results carry denominators of about
# x / log(10) digits; below this bound they stay under Python's 4300-digit
# int-to-str limit, so only the fixed known-fault ops hit it
CLI_EXACT_BIG_DENOMINATOR_X_MAX = 5000.0

# (function, method, exact allowed) for every compute route of the CLI
COMPUTE_ROUTES = (
    ("harmonic", "direct", True),
    ("harmonic", "identity", True),
    ("hp", "direct", True),
    ("hp", "prime_sums", True),
    ("hp", "from_pi", True),
    ("hp", "mertens", False),
    ("pi", "direct", True),
    ("pi", "identity", True),
    ("pi", "li", False),
    ("prime_sum", "direct", True),
    ("prime_sum", "identity", True),
    ("li2", "direct", False),
    ("r", "direct", False),
    ("mertens", "direct", False),
)

# The CLI ops that fail in every round; their inputs depend on the round
# only, never on the seed.  cli._fmt renders the exact reciprocal sum over
# the primes up to about 20000 (some 8700 digits per side) with str(), which
# exceeds Python's int-to-str limit; x falls by one a round, so it is fresh
# in every round and the largest exact staircase is the one of round 0.  And
# `verify --identity count` exits 1 on a set that the float cancellation
# fault below puts out of the 1e-9 default tolerance (CLI_FAULT_SET_SEEDS).
KNOWN_FAULT_METHODS = ("direct", "prime_sums", "from_pi")


def known_fault_argvs(r):
    x = _x_arg(CLI_X_MAX - r)
    argvs = [
        ["compute", "hp", "--x", x, "--method", method, "--exact"]
        for method in KNOWN_FAULT_METHODS
    ]
    seed = CLI_FAULT_SET_SEEDS[r % len(CLI_FAULT_SET_SEEDS)]
    argvs.append(
        ["verify", "--identity", "count", "--samples", "1", "--seed", str(seed),
         "--jobs", "1", "--csv"]
    )
    return argvs


def _stratified(rng, count, jitter=1.0):
    """One uniform draw in each of ``count`` equal bins of [0, 1), within
    the middle ``jitter`` share of the bin."""
    return [(i + 0.5 + jitter * (rng.random() - 0.5)) / count for i in range(count)]


def _log_points(rng, count, lo, hi, jitter=1.0):
    return [lo * (hi / lo) ** u for u in _stratified(rng, count, jitter)]


@functools.cache
def _bin_orders(key, size, count):
    """For each of ``count`` equal bins of range(size), its indices in an
    order fixed by ``key``."""
    rng = random.Random(key)
    orders = []
    for i in range(count):
        order = list(range(i * size // count, (i + 1) * size // count))
        rng.shuffle(order)
        orders.append(order)
    return orders


def _fresh_picks(key, size, count, r):
    """One index in each of ``count`` equal bins of range(size) for round
    ``r``: no index comes back before every index of its bin has been
    used."""
    return [order[r % len(order)] for order in _bin_orders(key, size, count)]


# Seeds of random_set_sweep(seed, 1) whose float check fails every time: a
# set with one or two atoms at or below a far evaluation point loses the
# k = 2, 3 power sums to cancellation in x**(k+1) * h(x) - (k+1) * integral
# (relative error up to 1e-8 against the 1e-10 tolerance; their exact runs
# pass).  Found by running every seed below 2**16; CHANGES.md has the FOUND
# line.  Drawn at random they would make the failed share depend on the
# seed, so the draws skip them and every round instead runs one of them, in
# float, as a known-fault op: a fix shows as a drop in the failed count.
FLOAT_FAULT_SET_SEEDS = (
    4327, 9195, 14972, 21297, 21578, 22035, 22728, 29826, 30631, 35211,
    38993, 44630, 55208, 59518, 60079, 62250, 63826, 64410,
)
SET_SEEDS = [s for s in range(2**16) if s not in FLOAT_FAULT_SET_SEEDS]
# those of them whose single set also fails the CLI's 1e-9 default tolerance
CLI_FAULT_SET_SEEDS = (9195, 21578, 22035, 30631, 35211, 55208)
# `verify --identity count --samples 5` draws its five sets from --seed; a
# run of every seed below 4096 found none that fails, while seeds drawn from
# a wider range did now and then (499166: a k = 3 power sum off by 4.4e-8
# relative), which would make the failed share depend on the seed
COUNT_SEEDS = 4096


@functools.cache
def _set_seed_order(key):
    order = list(SET_SEEDS)
    random.Random(key).shuffle(order)
    return order


def _random_sets(rng, key, r):
    # drawn without replacement across rounds: 655 rounds before a seed
    # comes back
    order = _set_seed_order(key)
    start = r % (len(order) // RANDOM_SET_SEEDS) * RANDOM_SET_SEEDS
    ops = []
    for seed in order[start : start + RANDOM_SET_SEEDS]:
        ops.append({"kind": "set", "seed": seed, "exact": True})
        ops.append({"kind": "set", "seed": seed, "exact": False})
    fault_seed = FLOAT_FAULT_SET_SEEDS[r % len(FLOAT_FAULT_SET_SEEDS)]
    ops.append({"kind": "set", "seed": fault_seed, "exact": False, "known_fault": True})
    return ops


def _pi_li(rng, key, r):
    xs = _log_points(rng, LI_POINTS, 2.0, LI_X_MAX)
    # an interval costs about pi(b): b is stratified, and a = 2 (b/2)**v
    # with v stratified too, in an independent order
    ends = _log_points(rng, LI_POINTS, 100.0, float(TABLE_LIMIT))
    spans = _stratified(rng, LI_POINTS)
    for values in (xs, ends, spans):
        rng.shuffle(values)
    ops = []
    for x, b, v in zip(xs, ends, spans):
        ops.append({"kind": "li_point", "x": x})
        ops.append({"kind": "interval", "a": 2.0 * (b / 2.0) ** v, "b": b})
    return ops


def _x_arg(x):
    return f"{x:.9g}"


def _cli_oneshot(rng, key, r):
    # A call's cost follows its x over four decades, and there are only a
    # few calls per route: draws from the middle quarter of each bin keep
    # the cost of a round, and its percentiles, from moving with the seed.
    def points(count, lo, hi):
        return _log_points(rng, count, lo, hi, CLI_JITTER)

    argvs = []
    for function, method, exact_ok in COMPUTE_ROUTES:
        quadrature = (function, method) in (("li2", "direct"), ("pi", "li"))
        for x in points(8, 2.0, LI_X_MAX if quadrature else CLI_X_MAX):
            argvs.append(["compute", function, "--x", _x_arg(x), "--method", method])
        if exact_ok:
            big = function in ("harmonic", "hp")
            hi = CLI_EXACT_BIG_DENOMINATOR_X_MAX if big else CLI_X_MAX
            # the top of the range, less a little each round, pins the
            # largest exact staircase, so the peak memory of a run does not
            # depend on the seed
            for x in points(6, 2.0, hi) + [hi * (1.0 - r / CLI_X_MAX)]:
                argvs.append(
                    ["compute", function, "--x", _x_arg(x), "--method", method, "--exact"]
                )
    # floor and triangular rebuild an O(x) staircase for each of their 100+
    # samples (25-50 ms a call): two each, so the calls above the 90th
    # percentile are a stable set; xmax stays small for the same reason
    for identity, hi, count in (
        ("harmonic", 5000.0, 4),
        ("floor", 5000.0, 2),
        ("triangular", 5000.0, 2),
        ("prime_count", CLI_X_MAX, 4),
        ("hp_from_pi", CLI_X_MAX, 4),
    ):
        for xmax in points(count, 100.0, hi):
            argvs.append(
                ["verify", "--identity", identity, "--xmax", _x_arg(xmax),
                 "--samples", "10", "--jobs", "1", "--csv"]
            )
    count_seeds = _fresh_picks(f"{key}:count", COUNT_SEEDS, 4, r)
    for xmax, count_seed in zip(points(4, 100.0, CLI_X_MAX), count_seeds):
        argvs.append(
            ["verify", "--identity", "count", "--samples", "5",
             "--seed", str(count_seed), "--jobs", "1", "--csv"]
        )
        argvs.append(
            ["verify", "--identity", "hp_increment", "--xmax", _x_arg(xmax),
             "--samples", "5", "--seed", str(rng.getrandbits(20)), "--jobs", "1",
             "--csv"]
        )
    # integer limits: one per bin of the log scale, none repeated before
    # every limit of its bin has been used (94 rounds in the lowest bin)
    bins = [100.0 * (CLI_X_MAX / 100.0) ** (i / 8) for i in range(9)]
    for i, lo in enumerate(bins[:-1]):
        lo, hi = math.ceil(lo), math.ceil(bins[i + 1])
        (pick,) = _fresh_picks(f"{key}:limits:{i}", hi - lo, 1, r)
        argvs.append(["primes", "--limit", str(lo + pick)])
    faults = known_fault_argvs(r)
    argvs.extend(faults)
    rng.shuffle(argvs)
    ops = []
    for argv in argvs:
        csv = argv[-1] == "--csv"
        ops.append(
            {
                "kind": "cli",
                "argv": argv[:-1] if csv else argv,
                "csv": csv,
                "known_fault": argv in faults,
            }
        )
    return ops


_MAKERS = {
    "random_sets": _random_sets,
    "pi_li": _pi_li,
    "cli_oneshot": _cli_oneshot,
}


def make_round(workload, seed, r):
    """The op list of round ``r`` of ``workload`` for ``seed``."""
    key = f"{workload}:{seed}"
    return _MAKERS[workload](random.Random(f"{key}:{r}"), key, r)
