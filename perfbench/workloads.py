"""Seeded inputs for the four benchmark workloads.

Everything here is pure Python and depends only on the seed, so two runs of
one seed see the same inputs.  Inputs are plain JSON data (complex numbers as
``[re, im]`` pairs); the package only ever receives them through the worker.

The inputs follow a fixed design and the seed only jitters it: discrete
parameters cycle through all their values, and each continuous parameter is
drawn once per equal-width stratum, with the stratum of each request fixed
and only the draw inside it seeded.  Costs in the edge regimes hinge on a
few requests (a series near the ball boundary runs into the 1e4-term budget
or not), and a free pairing of strata made throughput differ by 20% between
seeds; with the design fixed, seeds differ by the jitter alone.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter

# Requests that share one space, as a Gram-matrix or grid-bound user sends them.
KERNEL_BLOCK = 12
KERNEL_BLOCKS = 48
EDGE_BLOCK = 4
EDGE_BLOCKS = 12  # per family
EDGE_SWEEPS = 6
# Regimes of kernels-edge that probe where the seed code is known to fail:
# their requests are evaluated once per run as a census, never timed.
CENSUS_REGIMES = frozenset({"ball-edge", "fock-cancel", "overflow"})
# Condition number that the long, well-posed edge requests aim to stay under.
LONG_COND = 100.0

# Spaces of the CLI's default verify grid (n = 2).
VERIFY_BALL = [(alpha, m) for alpha in (0.0, 0.5, 2.0) for m in range(4)]
VERIFY_FOCK = [(nu, m) for nu in (1.0, 2.0) for m in range(3)]
# Capacity of each verify block in turn: the CLI's 6 three times, then the
# library default 16 once, so the share of each is fixed on every seed.
VERIFY_CAPACITIES = (6, 6, 6, 16)
VERIFY_BLOCKS = 48
# Three capacity cycles, so that a round's tail falls among the capacity-16
# norms rather than on the edge between them and the cheaper cases.
VERIFY_ROUND_BLOCKS = 12
CLI_CYCLE = ("kernel", "norms", "kernel", "sweep", "kernel", "identities", "kernel", "verify-norms")


def pair(c: complex) -> list:
    return [c.real, c.imag]


def _stratified(rng: random.Random, tag: str, count: int) -> list:
    """One draw in each of ``count`` strata of [0, 1), in an order fixed by ``tag``."""
    order = list(range(count))
    random.Random(tag).shuffle(order)
    return [(k + rng.random()) / count for k in order]


def _unit(rng: random.Random, n: int) -> list:
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in v))
    return [x / norm for x in v]


def _points(rng: random.Random, n: int, t: complex, spread: float = 0.2) -> tuple:
    """Points z, w in C^n with <z, w> = t up to rounding and |z|^2 = |w|^2 <= |t|/0.95.

    ``w`` leans away from ``z`` by ``spread``; with spread 0 the two are
    parallel and |z|^2 = |t|, which keeps both inside the ball at |t| -> R^2.
    """
    while True:
        a = _unit(rng, n)
        g = _unit(rng, n)
        b = [x + spread * y for x, y in zip(a, g)]
        nb = math.sqrt(sum(abs(x) ** 2 for x in b))
        b = [x / nb for x in b]
        s = sum(x * y.conjugate() for x, y in zip(a, b))
        if abs(s) >= 0.95:
            break
    mu = math.sqrt(abs(t) / abs(s))
    lam = t / (mu * s)
    return [pair(lam * x) for x in a], [pair(mu * y) for y in b]


def _spaces(rng: random.Random, family: str, count: int) -> list:
    """``count`` spaces of one family with a balanced mix on every seed.

    (n, m) runs through all twelve pairs n in {1, 2, 3}, m in {0..3}, the
    radius through {1, 2, 5}, and alpha in (-1, 10] or nu in [0.5, 2] is
    stratified.
    """
    combos = [(n, m) for n in (1, 2, 3) for m in range(4)]
    picks = [combos[i % len(combos)] for i in range(count)]
    levels = _stratified(rng, f"{family}:{count}", count)
    spaces = []
    for i, ((n, m), level) in enumerate(zip(picks, levels)):
        if family == "bergman":
            spaces.append({"n": n, "alpha": -1.0 + 11.0 * (1.0 - level), "m": m,
                           "radius": (1.0, 2.0, 5.0)[i % 3]})
        else:
            spaces.append({"n": n, "nu": 0.5 + 1.5 * level, "m": m})
    return spaces


def _kernel_request(fn, space, z, w, regime):
    return {"fn": fn, "space": space, "z": z, "w": w, "regime": regime}


def kernels(seed: int) -> list:
    """Blocks of kernel requests, one space per block.

    Ball: |<z,w>|/R^2 <= 0.9, Fock: |nu <z,w>| <= 30, both with |.| and the
    phase stratified within the block.  About a fifth of the requests are
    not well posed (see oracle.py) and go to the census.  One request per block
    goes to the series oracle, which truncates at degree 200 and is therefore
    asked only where |u| <= 0.5 (ball), and one per ball block to
    ``pointwise_bound``.
    """
    rng = random.Random(f"kernels:{seed}")
    blocks = []
    for family in ("bergman", "bargmann"):
        for b, space in enumerate(_spaces(rng, family, KERNEL_BLOCKS // 2)):
            block = []
            # the phase is stratified too, in an order of its own for each block,
            # so that which requests are well posed barely depends on the seed
            phases = _stratified(rng, f"kernels:phase:{family}:{b}", KERNEL_BLOCK)
            for i, level in enumerate(_stratified(rng, "kernels:t", KERNEL_BLOCK)):
                phase = cmath.exp(2j * math.pi * phases[i])
                if family == "bergman":
                    top = (0.5 if i == 0 else 0.9) * space["radius"] ** 2
                else:
                    top = 30.0 / space["nu"]
                t = top * (1.0 - level) * phase
                if i == 0:
                    z, w = _points(rng, space["n"], t)
                    block.append(_kernel_request(f"{family}.kernel_series", space, z, w,
                                                 f"{family}-series"))
                elif i == 1 and family == "bergman":
                    z = [pair(math.sqrt(abs(t)) * x) for x in _unit(rng, space["n"])]
                    block.append(_kernel_request("bergman.pointwise_bound", space, z, z,
                                                 "bergman-bound"))
                else:
                    z, w = _points(rng, space["n"], t)
                    block.append(_kernel_request(f"{family}.kernel_closed", space, z, w, family))
            blocks.append(block)
    rng.shuffle(blocks)
    return blocks


def _long_blocks(rng: random.Random, family: str, count: int) -> list:
    """Blocks of long but well-conditioned series, near the positive axis.

    Ball: 1 - |u| = g log-uniform in [1e-2, 1e-1] (about 300 to 6,000
    terms), at a phase where |1 - u| <= g LONG_COND^(1/a), so that the sum
    of the terms' moduli is about at most LONG_COND times the kernel.  Fock:
    |nu t| uniform in [30, 200], at a phase where |nu t| - Re(nu t) <=
    ln LONG_COND.
    """
    blocks = []
    levels = iter(_stratified(rng, f"long:{family}", count * EDGE_BLOCK))
    for space in _spaces(rng, family, count):
        block = []
        for _ in range(EDGE_BLOCK):
            side = rng.uniform(-1.0, 1.0)
            if family == "bergman":
                gap = 10.0 ** (-2.0 + next(levels))
                a = space["alpha"] + space["n"] + 1.0
                slack = gap * gap * (LONG_COND ** (2.0 / a) - 1.0) / (2.0 * (1.0 - gap))
                theta = math.acos(max(-1.0, 1.0 - slack)) * side
                t = (1.0 - gap) * space["radius"] ** 2 * cmath.exp(1j * theta)
                z, w = _points(rng, space["n"], t, spread=0.0)
            else:
                size = 30.0 + 170.0 * next(levels)
                theta = math.acos(max(-1.0, 1.0 - math.log(LONG_COND) / size)) * side
                z, w = _points(rng, space["n"], size * cmath.exp(1j * theta) / space["nu"])
            block.append(_kernel_request(f"{family}.kernel_closed", space, z, w,
                                         "ball-long" if family == "bergman" else "fock-long"))
        blocks.append(block)
    return blocks


def kernels_edge(seed: int) -> list:
    """Blocks of kernel requests where the series is long, cancels or overflows.

    Long, well-conditioned series on both families (see ``_long_blocks``).
    Ball: 1 - |u| log-uniform in [1e-4, 1e-1] at any phase.  Fock: nu t in
    the half-disk Re <= 0, |nu t| <= 200, uniform by area.  Both are
    stratified over the whole pool.  Flat-limit sweeps reach
    alpha = nu R^2 = 1e4, with |arg nu t| <= 60 degrees.  Four requests have a true value beyond float
    range and must raise.  The ball-edge, fock-cancel and overflow regimes
    (CENSUS_REGIMES) go to the census, not the timed loop.  Half as many Fock
    as ball long series, so that the median op falls among the ball's
    continuous spread of costs, not between the two families.
    """
    rng = random.Random(f"kernels-edge:{seed}")
    blocks = _long_blocks(rng, "bergman", EDGE_BLOCKS) + _long_blocks(rng, "bargmann", EDGE_BLOCKS // 2)
    gaps = iter(_stratified(rng, "edge:gap", EDGE_BLOCKS * EDGE_BLOCK))
    for space in _spaces(rng, "bergman", EDGE_BLOCKS):
        block = []
        for _ in range(EDGE_BLOCK):
            gap = 10.0 ** (-4.0 + 3.0 * next(gaps))
            t = (1.0 - gap) * space["radius"] ** 2 * cmath.exp(2j * math.pi * rng.random())
            z, w = _points(rng, space["n"], t, spread=0.0)
            block.append(_kernel_request("bergman.kernel_closed", space, z, w, "ball-edge"))
        blocks.append(block)
    areas = iter(_stratified(rng, "edge:area", EDGE_BLOCKS * EDGE_BLOCK))
    for space in _spaces(rng, "bargmann", EDGE_BLOCKS):
        block = []
        for _ in range(EDGE_BLOCK):
            x = 200.0 * math.sqrt(next(areas)) * cmath.exp(1j * math.pi * (0.5 + rng.random()))
            z, w = _points(rng, space["n"], x / space["nu"])
            block.append(_kernel_request("bargmann.kernel_closed", space, z, w, "fock-cancel"))
        blocks.append(block)
    sweeps = []
    for i, level in enumerate(_stratified(rng, "edge:sweep", EDGE_SWEEPS)):
        nu = 0.5 + 1.5 * level
        count = 3 + i % 3
        top = math.sqrt(1e4 / nu)
        radii = [top * 10.0 ** (-0.5 * (count - 1 - j)) for j in range(count)]
        mag = min(radii[0] ** 2 * 0.5, 10.0 / nu) * (0.1 + 0.9 * rng.random())
        n = 1 + i % 3
        # within 60 degrees of the positive axis, where the Fock limit does not cancel
        z, w = _points(rng, n, mag * cmath.exp(1j * math.pi / 3 * rng.uniform(-1.0, 1.0)))
        sweeps.append({"fn": "asymptotics.convergence_sweep", "nu": nu, "m": i % 4,
                       "n": n, "z": z, "w": w, "radii": radii, "regime": "sweep"})
    blocks.append(sweeps)
    overflow = []
    for n in (1, 2):
        nu = 0.5 + 1.5 * rng.random()
        space = {"n": n, "nu": nu, "m": rng.randrange(3)}
        z, w = _points(rng, n, 800.0 / nu)
        overflow.append(_kernel_request("bargmann.kernel_closed", space, z, w, "overflow"))
        space = {"n": n, "alpha": 1e4, "m": rng.randrange(3), "radius": 100.0}
        z, w = _points(rng, n, 5000.0 + 0j)
        overflow.append(_kernel_request("bergman.kernel_closed", space, z, w, "overflow"))
    blocks.append(overflow)
    return blocks


def _indices(n: int, k: int) -> list:
    if n == 1:
        return [(k,)]
    return [(first, *rest) for first in range(k, -1, -1) for rest in _indices(n - 1, k - first)]


def _indices_upto(cap: int) -> list:
    return [p for k in range(cap + 1) for p in _indices(2, k)]


def _random_poly(rng, terms) -> list:
    return [[list(p), rng.gauss(0, 1), rng.gauss(0, 1)] for p in terms]


def verify(seed: int) -> list:
    """Verification blocks: a fresh grid for one space, then its cases.

    Capacity 6 blocks run the CLI's default suites in full: every |p| <= 6
    norm, every orthogonality pair of degree <= 4, and three dense random
    polynomials.  Capacity 16 blocks sample the library-default grid: six
    norms with degrees stratified over 0..16, six orthogonality pairs and one
    sparse eight-term polynomial of degree <= 16.  The spaces run through the
    CLI's default verify grid in a fixed order, for each capacity; the seed
    picks the sampled cases and the polynomial coefficients.
    """
    rng = random.Random(f"verify:{seed}")
    spaces = [{"kind": "ball", "n": 2, "alpha": a, "m": m, "radius": 1.0} for a, m in VERIFY_BALL]
    spaces += [{"kind": "gaussian", "n": 2, "nu": nu, "m": m} for nu, m in VERIFY_FOCK]
    random.Random("verify:order").shuffle(spaces)
    low = _indices_upto(4)
    pairs = [(p, q) for i, p in enumerate(low) for q in low[i + 1:]]
    used = Counter()
    blocks = []
    for b in range(VERIFY_BLOCKS):
        cap = VERIFY_CAPACITIES[b % len(VERIFY_CAPACITIES)]
        space = spaces[used[cap] % len(spaces)]
        used[cap] += 1
        if cap == 6:
            norms, block_pairs = _indices_upto(6), pairs
            polys = [_random_poly(rng, _indices_upto(6)) for _ in range(3)]
        else:
            degrees = _stratified(rng, "verify:degree", 6)
            norms = [rng.choice(_indices(2, int(d * 17))) for d in degrees]
            block_pairs = rng.sample(pairs, 6)
            polys = [_random_poly(rng, rng.sample(_indices_upto(16), 8))]
        cases = [["norm", list(p)] for p in norms]
        cases += [["ortho", list(p), list(q)] for p, q in block_pairs]
        cases += [["sobolev", poly] for poly in polys]
        blocks.append({"space": space, "capacity": cap, "cases": cases})
    return blocks


def _num(x: float) -> str:
    return repr(float(x))


def cli(seed: int) -> list:
    """A seeded mix of CLI invocations, as argument lists.

    The kinds follow a fixed cycle so every seed has the same mix; the
    parameters of each call are seeded.  Negative numbers are passed as
    ``--flag=value`` so that argparse does not read them as options.
    """
    rng = random.Random(f"cli:{seed}")
    calls = []
    for i in range(200):
        kind = CLI_CYCLE[i % len(CLI_CYCLE)]
        if kind == "kernel":
            ball = rng.random() < 0.5
            n, m = rng.choice((1, 2, 3)), rng.randrange(4)
            argv = ["kernel", "--space", "ball" if ball else "fock", f"--n={n}", f"--m={m}"]
            if ball:
                radius = rng.choice((1.0, 2.0, 5.0))
                argv += [f"--alpha={_num(-1.0 + 11.0 * (1.0 - rng.random()))}",
                         f"--radius={_num(radius)}"]
                # the series oracle truncates at degree 200: keep it to |u| <= 0.5
                series = rng.random() < 0.25
                t = (0.5 if series else 0.9) * (1.0 - rng.random()) * radius**2
            else:
                nu = 0.5 + 1.5 * rng.random()
                argv += [f"--nu={_num(nu)}"]
                series = rng.random() < 0.25
                t = 30.0 * (1.0 - rng.random()) / nu
            t *= cmath.exp(2j * math.pi * rng.random())
            method = "series" if series else "closed"
            argv += ["--method", method]
            if rng.random() < 0.5:
                argv += [f"--t={_num(t.real)},{_num(t.imag)}"]
            else:
                z, w = _points(rng, n, t)
                argv += ["--z=" + ",".join(repr(complex(*c)) for c in z),
                         "--w=" + ",".join(repr(complex(*c)) for c in w)]
        elif kind == "norms":
            ball = rng.random() < 0.5
            argv = ["norms", "--space", "ball" if ball else "fock", f"--n={rng.choice((1, 2, 3))}",
                    f"--m={rng.randrange(4)}", f"--max-total-degree={rng.randrange(2, 9)}"]
            if ball:
                argv += [f"--alpha={_num(-1.0 + 11.0 * (1.0 - rng.random()))}",
                         f"--radius={_num(rng.choice((1.0, 2.0, 5.0)))}"]
            else:
                argv += [f"--nu={_num(0.5 + 1.5 * rng.random())}"]
        elif kind == "sweep":
            nu = 0.5 + 1.5 * rng.random()
            count = rng.randrange(3, 6)
            start = rng.choice((2.0, 3.0, 5.0))
            radii = [start * 10.0**j for j in range(count)]
            t = start**2 * 0.5 * rng.random() * cmath.exp(2j * math.pi * rng.random())
            argv = ["sweep", f"--nu={_num(nu)}", f"--m={rng.randrange(4)}",
                    f"--n={rng.choice((1, 2, 3))}", f"--t={_num(t.real)},{_num(t.imag)}",
                    "--radii=" + ",".join(_num(r) for r in radii)]
        elif kind == "identities":
            argv = ["verify", "--suite", "identities"]
        else:
            if rng.random() < 0.5:
                alpha, m = rng.choice(VERIFY_BALL)
                argv = ["verify", "--suite", "norms", "--space", "ball", f"--alpha={alpha}",
                        f"--m={m}", "--degree-cap=4"]
            else:
                nu, m = rng.choice(VERIFY_FOCK)
                argv = ["verify", "--suite", "norms", "--space", "fock", f"--nu={nu}",
                        f"--m={m}", "--degree-cap=4"]
        if rng.random() < 0.25:
            argv += ["--format", "json"]
        calls.append(argv)
    return calls


GENERATORS = {"cli": cli, "kernels": kernels, "kernels-edge": kernels_edge, "verify": verify}
