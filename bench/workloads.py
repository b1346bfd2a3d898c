"""Seeded request streams for the three benchmark workloads.

Every request is a CLI argv for ``canonform.cli.main``.  A workload is a
list of *slots*; a *round* issues one request per slot, in an order drawn
from the run seed.  A slot is a fixed request or steps through a few
variants of the same shape and height, so every round has the same cost
profile and a run of whole rounds measures the same mix on every seed.
Each variant is in the reference file recorded by ``record.py``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial

# Number of variants of each decompose slot held in the reference.
DECOMPOSE_VARIANTS = 8

# Rounds in the fixed request set of a traced run (counts must repeat).
# Decompose runs one whole cycle of its variants, so that its counts do not
# depend on the seed.
TRACE_ROUNDS = {"certify": 1, "decompose": DECOMPOSE_VARIANTS, "count": 1}


@dataclass
class Request:
    """One CLI call plus what its checker needs to know about the input."""

    argv: list[str]
    slot: str
    kind: str                      # "certify" | "decompose" | "count"
    algo: str = ""
    raw: dict = field(default_factory=dict)   # input raw coefficients
    n: int = 0
    shear_seed: int | None = None
    truth: tuple | None = None     # allowed Monte Carlo estimates (lo, hi)

    @property
    def key(self) -> str:
        return json.dumps(self.argv)


# -- polynomial text ------------------------------------------------------------


def exponents(n: int, d: int):
    """All exponent tuples of n variables and total degree d, graded-lex."""
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in exponents(n - 1, d - first):
            yield (first,) + rest


def multinomial(idx) -> int:
    out = factorial(sum(idx))
    for e in idx:
        out //= factorial(e)
    return out


def _coeff(rng: random.Random, height: str) -> tuple[Fraction, Fraction]:
    if height == "small":
        return Fraction(rng.randint(-9, 9)), Fraction(0)
    if height == "large":
        return Fraction(rng.randint(-10**12, 10**12)), Fraction(0)
    # Gaussian rationals with small numerators and denominators
    return (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def _frac_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def form_text(raw: dict, n: int) -> str:
    """Text of sum c*x1^a1*...*xn^an over the nonzero raw coefficients."""
    parts = []
    for idx, (re, im) in raw.items():
        if not re and not im:
            continue
        mono = "*".join(f"x{k + 1}^{e}" if e > 1 else f"x{k + 1}"
                        for k, e in enumerate(idx) if e)
        if im:
            sign, coef = "+", f"({_frac_text(re)}{'+' if im > 0 else '-'}{_frac_text(abs(im))}*i)"
        else:
            sign, coef = ("-" if re < 0 else "+"), _frac_text(abs(re))
        parts.append((sign, f"{coef}*{mono}"))
    text = " ".join(f"{s} {t}" for s, t in parts)
    return text[2:] if text.startswith("+ ") else text


def random_raw(rng: random.Random, n: int, d: int, height: str) -> dict:
    raw = {idx: _coeff(rng, height) for idx in exponents(n, d)}
    if not any(re or im for re, im in raw.values()):
        raw[next(iter(raw))] = (Fraction(1), Fraction(0))
    return raw


# -- decompose ----------------------------------------------------------------------

# (slot name, algorithm, n, d, backend, height, extra argv, shear)
# About a third of the slots run the approximate backend; heights mix small
# and large integers with Gaussian rationals; slowpoke n=6 is the tail.
# Every input is one the program decomposes correctly at the reference
# commit, so that no request fails.  Two kinds of input fail there and are
# not run: two-squares at heights near 1e12 (in either backend the result
# misses the input by ~1e-4 relative), and sylvester d=9 at small heights,
# where an input such as -x^9-8x^8y+4x^7y^2-7x^6y^3-2x^5y^4+9x^4y^5+2y^9
# exits 3 (ValueError: empty decomposition has no shape).
DECOMPOSE_SLOTS = [
    ("syl-d3-small", "sylvester", 2, 3, "exact", "small", [], False),
    ("syl-d5-large", "sylvester", 2, 5, "exact", "large", [], False),
    ("syl-d7-gauss", "sylvester", 2, 7, "exact", "gauss", [], False),
    ("syl-d9-large", "sylvester", 2, 9, "exact", "large", [], False),
    ("syl-d6-small-approx", "sylvester", 2, 6, "approx", "small", [], False),
    ("syl-d8-large-approx", "sylvester", 2, 8, "approx", "large", [], False),
    ("mixed-d5-small", "mixed", 2, 5, "exact", "small",
     ["--fixed", "x+y", "--fixed=-x+3*y"], False),
    ("mixed-d6-gauss-approx", "mixed", 2, 6, "approx", "gauss",
     ["--fixed", "x-2*y"], False),
    ("two-squares-d4-small", "two-squares", 2, 4, "exact", "small", [], False),
    ("two-squares-d6-gauss-approx", "two-squares", 2, 6, "approx", "gauss", [], False),
    ("two-squares-d6-small-approx", "two-squares", 2, 6, "approx", "small", [], False),
    ("quartic-six-small", "quartic-six", 2, 4, "exact", "small", [], False),
    ("quartic-six-gauss-approx", "quartic-six", 2, 4, "approx", "gauss", [], False),
    ("uppertri-n4-small", "uppertri", 4, 2, "exact", "small", [], False),
    ("uppertri-n6-large-approx", "uppertri", 6, 2, "approx", "large", [], True),
    ("reichstein-n3-small", "reichstein", 3, 3, "exact", "small", [], False),
    ("reichstein-n4-small-approx", "reichstein", 4, 3, "approx", "small", [], True),
    ("slinky-n3-gauss", "slinky", 3, 3, "exact", "gauss", [], True),
    ("slinky-n5-small", "slinky", 5, 3, "exact", "small", [], False),
    ("slinky-n4-large-approx", "slinky", 4, 3, "approx", "large", [], False),
    ("slowpoke-n3-small", "slowpoke", 3, 3, "exact", "small", [], False),
    ("slowpoke-n5-large", "slowpoke", 5, 3, "exact", "large", [], False),
    ("slowpoke-n6-small", "slowpoke", 6, 3, "exact", "small", [], False),
    ("slowpoke-n4-gauss-approx", "slowpoke", 4, 3, "approx", "gauss", [], False),
    ("quartic-lift-n3-small", "quartic-lift", 3, 4, "exact", "small", [], False),
    ("quartic-lift-n3-small-approx", "quartic-lift", 3, 4, "approx", "small", [], False),
]


def decompose_request(slot: tuple, variant: int) -> Request:
    name, algo, n, d, backend, height, extra, shear = slot
    rng = random.Random(f"{name}:{variant}")
    raw = random_raw(rng, n, d, height)
    argv = ["--json"]
    shear_seed = None
    if shear:
        shear_seed = rng.randint(0, 10**6)
        argv += ["--seed", str(shear_seed)]
    argv += ["--backend", backend, "decompose", algo, form_text(raw, n)] + extra
    if shear:
        argv.append("--shear")
    return Request(argv, name, "decompose", algo=algo, raw=raw, n=n,
                   shear_seed=shear_seed)


def decompose_pool() -> list[Request]:
    return [decompose_request(slot, v) for slot in DECOMPOSE_SLOTS
            for v in range(DECOMPOSE_VARIANTS)]


# -- certify ------------------------------------------------------------------------

NEAT_DEGREE = 16       # omnibus maps over neat_upto(16) with d > 12
LARGE_MAPS = [(36, (18, 12, 4)), (48, (24, 16, 6))]  # 37 and 49 Jacobian rows
NEAT_PER_ROUND = 8
# Catalog picks per family (else 2).  Ten quarticgen maps put the median
# request inside a dense cluster of similar costs, so it is stable.
PER_FAMILY = {"quarticgen": 10, "omnibus": 3}


def _certify(name: str, params: dict, slot: str, trials: int | None = None) -> Request:
    # maps without a stored witness search seeded random witnesses, as in
    # acceptance criterion 09 (12 trials, seed 9)
    argv = ["--json"] + (["--seed", "9"] if trials else []) + ["certify", name]
    for k, v in params.items():
        val = ",".join(map(str, v)) if isinstance(v, (list, tuple)) else str(v)
        argv += ["--param", f"{k}={val}"]
    if trials:
        argv += ["--trials", str(trials)]
    return Request(argv, slot, "certify")


def _omnibus(d: int, e, slot: str) -> Request:
    m = d + 1 - sum(ek + 1 for ek in e)
    return _certify("omnibus", {"d": d, "e": list(e), "m": m}, slot)


def certify_catalog() -> list[Request]:
    """The criterion-09 catalog, neat omnibus maps past degree 12, and the
    high-degree few-summand maps."""
    from canonform.enumeration import neat_upto

    catalog = [_certify("uppertri", {"n": n}, "catalog") for n in range(2, 7)]
    catalog.append(_certify("sextican", {}, "catalog"))
    catalog += [_certify("wakeford", {"n": n, "d": d}, "catalog")
                for n in (2, 3) for d in (3, 4, 5)]
    for d in (3, 4, 5, 6):
        for mset in combinations(range(d + 1), 2):
            if set(mset) in ({0, 1}, {d - 1, d}):
                continue
            rest = [k for k in range(d + 1) if k not in mset]
            for nset in combinations(rest, 2):
                catalog.append(_certify("quarticgen", {"d": d, "B": mset + nset},
                                        "catalog"))
    catalog.append(_certify("notclebsch", {}, "catalog"))
    catalog += [_omnibus(f.d, f.e, "catalog") for f in neat_upto(12)]
    catalog += [_certify("sylv622", {"s": s}, "catalog") for s in (2, 3, 4)]
    catalog.append(_certify("so3s", {}, "catalog"))
    catalog += [_certify("sylwake", {"s": s}, "catalog", trials=12) for s in (2, 3, 4)]
    catalog += [_certify("zerosum", {"s": s}, "catalog", trials=12)
                for s in (1, 2, 3, 4)]
    neat = [_omnibus(f.d, f.e, "neat") for f in neat_upto(NEAT_DEGREE) if f.d > 12]
    large = [_omnibus(d, e, f"large-d{d}") for d, e in LARGE_MAPS]
    return catalog + neat + large


def _spread(items: list, k: int) -> list:
    """k items evenly spaced through the list (all of them if k >= len)."""
    if k >= len(items):
        return list(items)
    return [items[(2 * j + 1) * len(items) // (2 * k)] for j in range(k)]


def certify_round() -> list[Request]:
    """The fixed request set of a certify round: a few maps of every catalog
    family, NEAT_PER_ROUND neat maps spread over degrees 13..16, and both
    large maps.  Its cost does not depend on the seed."""
    families: dict[str, list[Request]] = {}
    neat, large = [], []
    for r in certify_catalog():
        if r.slot == "catalog":
            families.setdefault(r.argv[r.argv.index("certify") + 1], []).append(r)
        else:
            (neat if r.slot == "neat" else large).append(r)
    out = [r for name, reqs in families.items()
           for r in _spread(reqs, PER_FAMILY.get(name, 2))]
    return out + _spread(neat, NEAT_PER_ROUND) + large


# -- count --------------------------------------------------------------------------

# (slot, CLI args, Monte Carlo seeds, allowed estimates).  The quartic counts
# are 6 and 2; the sextic estimate only has to be plausible (1..40).  Seven of
# the ten requests are the cheap quartic, so the median falls among them.
COUNT_SLOTS = [
    ("quartic-21", ["--d", "4", "--e", "2,1", "--m", "0"], (0, 1), (6, 6)),
    ("quartic-2", ["--d", "4", "--e", "2", "--m", "2"], (0, 1, 2, 3, 4, 5, 6), (2, 2)),
    ("sextic-32", ["--d", "6", "--e", "3,2", "--m", "0", "--trials", "2000"],
     (0,), (1, 40)),
]


def count_pool() -> list[Request]:
    out = []
    for slot, args, seeds, truth in COUNT_SLOTS:
        for s in seeds:
            out.append(Request(["--json", "--seed", str(s), "count", "reps"] + args,
                               slot, "count", truth=truth))
    return out


# -- rounds -------------------------------------------------------------------------


def pool(workload: str) -> list[Request]:
    return {"certify": certify_round, "decompose": decompose_pool,
            "count": count_pool}[workload]()


class Stream:
    """Endless seeded sequence of rounds for one workload.

    A round is a list of (slot, request).  Certify and count rounds repeat a
    fixed request set whose cost does not depend on the seed: the seed sets
    the order only (Monte Carlo counts take 0.3 to 2.5 s depending on their
    own seed, so drawing them per run would make runs incomparable).
    Decompose slots step through their variants one per round from an offset
    the seed draws, so every DECOMPOSE_VARIANTS rounds issue every variant
    once.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")
        self.round = 0
        if workload == "decompose":
            self.variants = {slot[0]: [decompose_request(slot, v)
                                       for v in range(DECOMPOSE_VARIANTS)]
                             for slot in DECOMPOSE_SLOTS}
            self.offset = {name: self.rng.randrange(DECOMPOSE_VARIANTS)
                           for name in self.variants}
        elif workload in ("certify", "count"):
            self.fixed = pool(workload)
        else:
            raise ValueError(f"unknown workload {workload!r}")

    def next_round(self) -> list[tuple[str, Request]]:
        if self.workload == "decompose":
            reqs = [(name, vs[(self.offset[name] + self.round) % DECOMPOSE_VARIANTS])
                    for name, vs in self.variants.items()]
        else:
            # a count slot is one shape over all its Monte Carlo seeds
            reqs = [(r.slot if self.workload == "count" else r.key, r)
                    for r in self.fixed]
        self.round += 1
        self.rng.shuffle(reqs)
        return reqs

    def warmup(self) -> Request:
        """An untimed request run once before timing.  A large one: the first
        big exact computation in a process runs ~20% slower than later ones."""
        if self.workload == "certify":
            return _omnibus(*LARGE_MAPS[0], "large")
        if self.workload == "decompose":
            return decompose_request(next(s for s in DECOMPOSE_SLOTS
                                          if s[0] == "slowpoke-n6-small"), 0)
        return count_pool()[2]
