"""Seeded command streams for the cold-CLI workloads.

Each cold workload is a deck of rounds; a round holds one command of every
kind the workload defines, in seeded order.  Costly sizes rotate with the
round index and the seed draws the rest (words, form entries, small
bounds), so runs with different seeds do the same amount of work.  A run
walks the deck from the start, in whole rounds, and wraps around if it
outlasts it.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli-small", "cli-arith", "cli-struct", "lib-warm")
COLD_WORKLOADS = WORKLOADS[:3]

# rounds per deck
ROUNDS = {"cli-small": 8, "cli-arith": 12, "cli-struct": 12}
# seconds one round takes at the seed commit on a 2-CPU x86-64 machine: a
# run of --seconds T holds round(T / ROUND_S) rounds, the same work on
# every machine and at every speed
ROUND_S = {"cli-small": 2.0, "cli-arith": 7.6, "cli-struct": 7.2}
# rounds in the traced prefix, fixed so that traced counts repeat exactly
TRACE_ROUNDS = 2

Q_SMALL = (3, 5, 7, 9, 11, 13, 25, 27)
SUITES = ("tables", "witt", "ses", "spech", "eta", "motives", "tate", "spaces")
SMALL_SPACES = (
    "pt", "P1", "P2", "P3", "P1xP1", "P2xP1", "P2xP2", "P3xP1",
    "P1xP1xP1", "P2xP1xP1", "P3xP2xP1",
)


def _char(q: int) -> int:
    p = 2
    while q % p:
        p += 1
    return p


def _is_square_mod(a: int, p: int) -> bool:
    return pow(a, (p - 1) // 2, p) == 1


def _unit(rng: random.Random, q: int) -> int:
    """An integer whose image in F_q is nonzero."""
    p = _char(q)
    while True:
        a = rng.randrange(2, min(q, 10_000))
        if a % p:
            return a


def _word(rng: random.Random, q: int, terms: int, allow_double: bool) -> str:
    """A `kmw reduce` word: terms c eta^i [a]..., at most one bracket each
    unless `allow_double` (double brackets vanish without a discrete log)."""
    out = []
    for t in range(terms):
        parts = []
        if rng.random() < 0.4:
            parts.append(str(rng.randint(2, 5)))
        if rng.random() < 0.4:
            power = rng.randint(1, 3)
            parts.append("eta" if power == 1 else f"eta^{power}")
        brackets = rng.choice((1, 1, 2) if allow_double else (1,))
        for _ in range(brackets):
            if q != _char(q) and rng.random() < 0.5:
                parts.append(f"[w^{rng.randint(1, q - 2)}]")
            else:
                parts.append(f"[{_unit(rng, q)}]")
        if t:
            out.append(rng.choice("+-"))
        out.append(" ".join(parts))
    return " ".join(out)


def _nonzero_entries(rng, q, rank):
    return ",".join(str(_unit(rng, q)) for _ in range(rank))


def _anisotropic_pair(rng, p):
    """Entries a, b mod the prime p with -a/b a non-square, so <a, b> is
    anisotropic and the exhaustive search scans all p^2 vectors."""
    while True:
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        if not _is_square_mod(-a * pow(b, -1, p) % p, p):
            return f"{a},{b}"


# ----------------------------------------------------------------- cli-small


# Tate windows of radius at most 4, one per round of the deck
SMALL_TATE = ((4, 4), (3, 1), (4, 2), (1, 3), (2, 4), (4, 0), (0, 2), (3, 3))


def _small_round(rng: random.Random, r: int) -> list[list[str]]:
    """One of each kind; q, form rank, Tate window and suite rotate with the
    round, because they set the cost of the few slower commands."""

    def q(k=0):
        return Q_SMALL[(r + k) % len(Q_SMALL)]

    def kmw_reduce(qq):
        return ["kmw", "reduce", "--q", str(qq), "--word", _word(rng, qq, rng.randint(1, 3), True)]

    def witt(qq, rank):
        return ["witt", "classify", "--q", str(qq), "--form", _nonzero_entries(rng, qq, rank)]

    def motive():
        op = rng.choice(("decompose", "hom", "dual", "pairing"))
        cmd = ["motive", op, "--space", rng.choice(SMALL_SPACES)]
        if op == "hom":
            cmd += ["--target-space", rng.choice(SMALL_SPACES),
                    "--twist", str(rng.randint(-1, 1)), "--target-twist", str(rng.randint(-1, 1))]
        elif op == "dual":
            cmd += ["--twist", str(rng.randint(-2, 2))]
        return cmd

    def spc_poset():
        dot = ["--dot"] if rng.random() < 0.3 else []
        if r % 2:
            return ["spc", "sh-top", "--primes", str(rng.randint(2, 12)),
                    "--height", str(rng.randint(1, 4)), *dot]
        return ["spc", "equivariant", "--n", str(rng.randint(1, 12)), "--primes",
                str(rng.randint(2, 7)), "--height", str(rng.randint(1, 3)), *dot]

    lo = rng.randint(-6, 2)
    twist, shift = SMALL_TATE[r % len(SMALL_TATE)]
    return [
        ["kmw", "table", "--q", str(q(1)), f"--range={lo}..{rng.randint(lo, 6)}"],
        kmw_reduce(q(2)),
        kmw_reduce(q(3)),
        witt(q(4), 1 + r % 3),
        witt(q(5), 1 + (r + 1) % 3),
        ["gw", "--q", str(q())],
        ["milnor", "--q", str(q(6)), "--n", str(rng.randint(0, 4))],
        ["spech", "--q", str(q(7)), "--prime-bound", str(rng.randint(10, 60))],
        motive(),
        motive(),
        ["spc", "tate", "--twist-radius", str(twist), "--shift-radius", str(shift)],
        spc_poset(),
        ["verify", "--suite", SUITES[r % len(SUITES)]],
    ]


# ----------------------------------------------------------------- cli-arith

# Sizes rotate with the round index, so every seed runs the same sizes in
# the same proportions; the seed picks words, form entries and order.  A run
# at --seconds 20 holds three rounds, so the costly kinds rotate through
# three sizes.
# q on each side of LOG_TABLE_BOUND = 2^16, prime and prime power.  The
# first of each prime and scan rotation is a q the benchmark was specified
# with (65521, 65537, 78125); their primitive-element searches take 0.4-3 s
# at the seed commit, the others 0.2-0.7 s.  59049 = 3^10 is left out of
# `kmw reduce`: its search alone takes 8-10 s there, half a 20 s run.
TABLE_PRIMES = (65521, 60101, 61001)
TABLE_POWERS = (6561, 19683, 28561)
# both in every round, as the middle kind: six commands of one cost around
# the median of a run, so that op_p50_s averages over them
SCAN_PRIMES = (65537, 67003)
SCAN_POWERS = (78125, 68921, 79507)
GW_Q = (27, 31, 41)  # at most _EXHAUSTIVE_Q = 128
ANISO_P = (41, 47, 53)  # rank 2, at most 128: exhaustive search of all p^2 vectors
RANK3_P = (29, 31, 37)  # rank 3, at most 128
CLOSED_FORM_Q = (131, 137, 139, 149, 151, 157, 243)  # rank 2 above 128
MILNOR_Q = (59049, 65521, 65537, 78125)


def _mid_power(rng, q):
    """[w^k] with k within 0.5% of q/2: the linear discrete-log scan above
    2^16 walks q/2 steps, give or take 1%, whatever the seed."""
    return f"[w^{rng.randrange(q * 995 // 2000, q * 1005 // 2000)}]"


def _arith_round(rng: random.Random, r: int) -> list[list[str]]:
    def reduce(q, word):
        return ["kmw", "reduce", "--q", str(q), "--word", word]

    def pick(options):
        return options[r % len(options)]

    table_prime, table_power = pick(TABLE_PRIMES), pick(TABLE_POWERS)
    scan_power = pick(SCAN_POWERS)
    p2, p3, closed = pick(ANISO_P), pick(RANK3_P), pick(CLOSED_FORM_Q)
    while True:  # -c/b a non-square: no isotropic vector (0, y, z), so the search runs on
        entries = [rng.randrange(1, p3) for _ in range(3)]
        if not _is_square_mod(-entries[2] * pow(entries[1], -1, p3) % p3, p3):
            break
    # five kinds cheaper than the scan-prime reductions, five costlier
    return [
        ["milnor", "--q", str(pick(MILNOR_Q)), "--n", str(rng.randint(0, 3))],
        ["milnor", "--q", str(MILNOR_Q[(r + 2) % len(MILNOR_Q)]), "--n", str(rng.randint(0, 3))],
        ["witt", "classify", "--q", str(closed), "--form", _nonzero_entries(rng, closed, 2)],
        ["witt", "classify", "--q", str(p3), "--form", ",".join(map(str, entries))],
        ["witt", "classify", "--q", str(p2), "--form", _anisotropic_pair(rng, p2)],
        *(reduce(q, _mid_power(rng, q)) for q in SCAN_PRIMES),
        reduce(table_prime, _word(rng, table_prime, rng.randint(1, 2), False)),
        reduce(table_power, _word(rng, table_power, rng.randint(1, 2), False)),
        ["gw", "--q", str(pick(GW_Q))],
        ["gw", "--q", str(GW_Q[(r + 1) % len(GW_Q)])],
        reduce(scan_power, _mid_power(rng, scan_power)),
    ]


# ---------------------------------------------------------------- cli-struct

# A middle kind of narrow cost (two sh-top commands per round), with as many
# cheaper commands as costlier ones, so that the median command is always of
# that kind rather than whichever command sits at a gap between groups
# (cli-arith is built the same way).
TATE_MID = ((5, 4), (7, 3), (6, 4))  # 0.8-1.2 s at the seed commit
TATE_LARGE = ((5, 5), (7, 4), (9, 3))  # 1.3-1.6 s
HOM_PAIRS = (("P3xP2xP2", "P3xP3xP1"), ("P2xP2xP2", "P3xP2xP2"), ("P3xP3xP1", "P2xP2xP2"))
EQUIVARIANT_N = (24, 30, 36)
STRUCT_SPACES = ("P2xP2", "P3xP3", "P4xP3", "P2xP2xP1", "P3xP2xP1", "P3xP2xP2", "P4xP3xP2")
STRUCT_SUITES = ("tate", "spaces", "spech", "motives")


def _struct_round(rng: random.Random, r: int) -> list[list[str]]:
    def pick(options):
        return options[r % len(options)]

    def tate(window):
        return ["spc", "tate", "--twist-radius", str(window[0]), "--shift-radius", str(window[1])]

    def spech(lo, hi):
        return ["spech", "--q", str(rng.choice(Q_SMALL)), "--prime-bound", str(rng.randint(lo, hi))]

    src, tgt = pick(HOM_PAIRS)
    # four commands cheaper than sh-top, four costlier
    return [
        ["motive", rng.choice(("pairing", "decompose")), "--space", rng.choice(STRUCT_SPACES)],
        ["verify", "--suite", pick(STRUCT_SUITES)],
        ["motive", "hom", "--space", src, "--target-space", tgt,
         "--twist", str(rng.randint(0, 1)), "--target-twist", str(rng.randint(0, 1))],
        ["spc", "equivariant", "--n", str(pick(EQUIVARIANT_N)),
         "--primes", str(rng.randint(20, 30)), "--height", "4"],
        ["spc", "sh-top", "--primes", str(rng.randint(128, 132)), "--height", "8"],
        ["spc", "sh-top", "--primes", str(rng.randint(128, 132)), "--height", "8"],
        tate(pick(TATE_MID)),
        spech(700, 800),
        tate(pick(TATE_LARGE)),
        spech(1000, 1100),
    ]


_ROUND = {"cli-small": _small_round, "cli-arith": _arith_round, "cli-struct": _struct_round}


def cold_deck(workload: str, seed: int) -> list[list[str]]:
    """The seeded command deck of a cold workload, as argument lists
    (each is run as `ttspec ARGS... --json`)."""
    rng = random.Random(f"{workload}:{seed}")
    deck = []
    for r in range(ROUNDS[workload]):
        cmds = _ROUND[workload](rng, r)
        rng.shuffle(cmds)
        deck.extend(cmd + ["--json"] for cmd in cmds)
    return deck
