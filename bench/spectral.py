"""``spectral``: the test_06 query set, in-process, rescaled by a seeded c.

48 calls of ``capacities.spectral_lower_bound`` at cutoff 15c:

* the ball B(c), k = 2..44 step 3, no admissibility rule;
* E(c, 13c/2), k = 1..6, under ``one_positive_end``;
* P(c, 2c) and P(c, 3c), odd k while g <= cutoff, under
  ``polydisk_slice_rule``.

Scaling every action by c leaves the search tree unchanged and only moves
the denominators, so every seed does the same work.  c is a non-integer
p/q with q a two-digit prime: integer scales take a faster ``Fraction``
path and would make seeds incomparable.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import oracles

CUTOFF = 15
PRIMES = (11, 13, 17, 19, 23)
# odd k with g_k(P(1, x)) <= CUTOFF; scaling by c keeps the list, so it is
# fixed here, outside the timed set-up
POLYDISK_KS = {
    x: [k for k in range(1, 29, 2) if oracles.g_polydisk(Fraction(1), Fraction(x), k) <= CUTOFF]
    for x in (2, 3)
}


def scale_for(seed: int) -> Fraction:
    rng = random.Random(f"spectral-scale:{seed}")
    q = rng.choice(PRIMES)
    while True:
        p = rng.randint(q // 2 + 1, 2 * q - 1)
        if p != q:
            return Fraction(p, q)


def make_api():
    """Import the package; the namespace is the benchmark's boundary."""
    from symcap import capacities, spectra

    return SimpleNamespace(
        OrbitSpectrum=spectra.OrbitSpectrum,
        ellipsoid_orbits=spectra.ellipsoid_orbits,
        polydisk_orbits=spectra.polydisk_orbits,
        spectral_lower_bound=capacities.spectral_lower_bound,
        one_positive_end=capacities.one_positive_end,
        polydisk_slice_rule=capacities.polydisk_slice_rule,
    )


def build(api, root, seed: int):
    """Construct the four orbit spectra and the query list (set-up).  Each
    query carries its oracle, evaluated only when its answer is checked."""
    c = scale_for(seed)
    cutoff = CUTOFF * c

    def scaled_polydisk(x):
        unit = api.polydisk_orbits(x, CUTOFF)
        return api.OrbitSpectrum(
            f"P({c},{c * x})",
            [dataclasses.replace(o, action=o.action * c) for o in unit.orbits],
        )

    queries = []
    ball = api.ellipsoid_orbits([c, c], cutoff)
    for k in range(2, 45, 3):
        queries.append((f"B k={k}", ball, k, None, (oracles.g_ball, c, k)))
    x = Fraction(13, 2)
    skinny = api.ellipsoid_orbits([c, c * x], cutoff)
    for k in range(1, 7):
        queries.append((f"E k={k}", skinny, k, "one_positive_end", (oracles.g_ellipsoid, c, c * x, k)))
    for x, ks in POLYDISK_KS.items():
        spectrum = scaled_polydisk(x)
        for k in ks:
            want = (oracles.g_polydisk, c, c * x, k)
            queries.append((f"P(1,{x}) k={k}", spectrum, k, "polydisk_slice_rule", want))
    return SimpleNamespace(api=api, c=c, cutoff=cutoff, queries=queries)


def instrument(api, tracer) -> None:
    def records(args, kwargs, result):
        tracer.counts["spectra.orbits.records"] += len(result.orbits)

    tracer.span(api, "ellipsoid_orbits", "spectra.orbits", records)
    tracer.span(api, "polydisk_orbits", "spectra.orbits", records)
    tracer.span(api, "spectral_lower_bound", "capacities.spectral")
    for rule in ("one_positive_end", "polydisk_slice_rule"):
        fn = getattr(api, rule)

        def counted(ends, fn=fn):
            ok = fn(ends)
            tracer.counts["capacities.spectral.leaves"] += 1
            tracer.counts["capacities.spectral.accepted"] += bool(ok)
            return ok

        tracer.replace(api, rule, counted)


def run_pass(state, rng: random.Random, record) -> None:
    api = state.api
    order = list(state.queries)
    rng.shuffle(order)
    for label, spectrum, k, rule, (oracle, *args) in order:
        admissible = getattr(api, rule) if rule else None
        record(
            label,
            lambda: api.spectral_lower_bound(
                spectrum, 2 * k, state.cutoff, admissible=admissible
            ),
            lambda got, oracle=oracle, args=args: got == oracle(*args),
        )
