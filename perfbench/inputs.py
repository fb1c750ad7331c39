"""Seeded inputs for the benchmark, built without the library.

Words use the library's encoding (``+k`` tail, ``-k`` head of arrow k,
labels 1..n) but every helper here is the benchmark's own, so the parent
and the child commit receive identical inputs, and the checks in
``workload.py`` do not rest on the code they check.
"""
from __future__ import annotations

import random
from collections import Counter

REDUCE_N = (8, 16)        # reduce-random: arrows per diagram, inclusive
POOL_SIZE = 30            # equiv-scrambled: base diagrams per seed
POOL_N = (3, 7)           # arrows per base diagram
GROWN_N = (10, 16)        # arrows after FR1/FR2 growth
FR2_VARIANTS = ("Nth", "Nht", "Ith", "Iht")


# ---------------------------------------------------------------------------
# diagram helpers
# ---------------------------------------------------------------------------

def relabel(word) -> tuple[int, ...]:
    """Labels renumbered 1, 2, ... by first appearance."""
    lab: dict[int, int] = {}
    out = []
    for t in word:
        k = lab.setdefault(abs(t), len(lab) + 1)
        out.append(k if t > 0 else -k)
    return tuple(out)


def class_key(word) -> tuple[int, ...]:
    """Equal exactly for words that differ by rotation and relabelling."""
    if not word:
        return ()
    return min(relabel(word[r:] + word[:r]) for r in range(len(word)))


def u_terms(word) -> tuple[tuple[int, int], ...]:
    """u-polynomial as sorted (exponent, coefficient) terms.

    The index of arrow e walks the arc from its head to its tail and adds
    +1 for each interlaced tail, -1 for each interlaced head.
    """
    size = len(word)
    pos = {t: i for i, t in enumerate(word)}
    coeffs: dict[int, int] = {}
    for e in range(1, size // 2 + 1):
        head, tail = pos[-e], pos[e]
        arc = [word[(head + 1 + i) % size] for i in range((tail - head - 1) % size)]
        counts = Counter(abs(t) for t in arc)
        idx = sum(1 if t > 0 else -1 for t in arc if counts[abs(t)] == 1)
        if idx:
            coeffs[abs(idx)] = coeffs.get(abs(idx), 0) + (1 if idx > 0 else -1)
    return tuple(sorted((k, c) for k, c in coeffs.items() if c))


def is_split(word, gap_a: int, gap_b: int) -> bool:
    """True when both arcs between the gaps hold whole arrows and neither
    arc is empty of arrows."""
    inside = word[gap_a:gap_b]
    labels = {abs(t) for t in inside}
    return 0 < len(inside) < len(word) and len(inside) == 2 * len(labels)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def random_word(rng: random.Random, n: int) -> tuple[int, ...]:
    """Uniform random pairing of 2n points with random arrow directions."""
    points = list(range(2 * n))
    rng.shuffle(points)
    word = [0] * (2 * n)
    for k in range(n):
        p, q = points[2 * k], points[2 * k + 1]
        if rng.random() < 0.5:
            p, q = q, p
        word[p], word[q] = k + 1, -(k + 1)
    return relabel(word)


def insert_kink(word, gap: int, variant: str):
    """FR1 kink at a gap (gap g sits before endpoint g); returns the new
    word and the two endpoint positions of the kink."""
    x = len(word) // 2 + 1
    block = [x, -x] if variant == "th" else [-x, x]
    return tuple(word[:gap]) + tuple(block) + tuple(word[gap:]), (gap, gap + 1)


def insert_bigon(word, gap_a: int, gap_b: int, variant: str):
    """FR2 bigon: two blocks of two fresh arrows at gaps gap_a <= gap_b.
    The first block holds one tail and one head; "N" puts the other
    endpoints in reverse order, "I" in the same order.  Returns the new
    word and the four endpoint positions."""
    x, y = len(word) // 2 + 1, len(word) // 2 + 2
    a = [x, -y] if variant[1:] == "th" else [-x, y]
    b = [-a[1], -a[0]] if variant[0] == "N" else [-a[0], -a[1]]
    w = tuple(word)
    new = w[:gap_a] + tuple(a) + w[gap_a:gap_b] + tuple(b) + w[gap_b:]
    return new, (gap_a, gap_a + 1, gap_b + 2, gap_b + 3)


def grow_steps(rng: random.Random, word, target_n: int):
    """Yield (word, positions) after each random FR1/FR2 insertion until
    the word has target_n arrows."""
    word = tuple(word)
    while len(word) // 2 < target_n:
        gaps = max(len(word), 1)
        if target_n - len(word) // 2 >= 2 and rng.random() < 0.5:
            ga, gb = sorted((rng.randrange(gaps), rng.randrange(gaps)))
            word, pos = insert_bigon(word, ga, gb, rng.choice(FR2_VARIANTS))
            yield word, pos
        else:
            word, pos = insert_kink(word, rng.randrange(gaps), rng.choice(("th", "ht")))
            yield word, pos


def scramble(rng: random.Random, word, target_n: int) -> tuple[int, ...]:
    """Grow by FR1/FR2 insertions, then rotate and permute labels."""
    for word, _ in grow_steps(rng, word, target_n):
        pass
    r = rng.randrange(len(word))
    perm = list(range(1, len(word) // 2 + 1))
    rng.shuffle(perm)
    return tuple(perm[t - 1] if t > 0 else -perm[-t - 1] for t in word[r:] + word[:r])


# ---------------------------------------------------------------------------
# workload streams
# ---------------------------------------------------------------------------

def _sizes(rng: random.Random, lo: int, hi: int):
    """Endless stream of sizes: each block of hi-lo+1 consecutive values
    holds every size in lo..hi once, in random order.  Every run then has
    the same size mix, which keeps run-to-run spread down."""
    block = list(range(lo, hi + 1))
    while True:
        rng.shuffle(block)
        yield from block


def reduce_random_inputs(seed: int):
    """Endless stream of distinct random words, n uniform in REDUCE_N."""
    rng = random.Random(f"reduce-random/{seed}")
    seen: set[tuple[int, ...]] = set()
    for n in _sizes(rng, *REDUCE_N):
        while True:
            word = random_word(rng, n)
            key = class_key(word)
            if key not in seen:
                seen.add(key)
                yield word
                break


def equiv_pool(seed: int) -> list[tuple[int, ...]]:
    """POOL_SIZE distinct base words, sizes spread evenly over POOL_N."""
    rng = random.Random(f"equiv-pool/{seed}")
    pool: list[tuple[int, ...]] = []
    keys: set[tuple[int, ...]] = set()
    sizes = _sizes(rng, *POOL_N)
    while len(pool) < POOL_SIZE:
        n = next(sizes)
        while True:
            word = random_word(rng, n)
            if class_key(word) not in keys:
                keys.add(class_key(word))
                pool.append(word)
                break
    return pool


def equiv_scrambled_inputs(seed: int):
    """Endless stream of (word1, word2, same_source) pairs.  About half
    the pairs grow both words from one base diagram, so they are
    equivalent by construction."""
    pool = equiv_pool(seed)
    rng = random.Random(f"equiv-scrambled/{seed}")
    while True:
        same = rng.random() < 0.5
        i = rng.randrange(POOL_SIZE)
        j = i if same else rng.choice([k for k in range(POOL_SIZE) if k != i])
        w1 = scramble(rng, pool[i], rng.randint(*GROWN_N))
        w2 = scramble(rng, pool[j], rng.randint(*GROWN_N))
        yield w1, w2, same
