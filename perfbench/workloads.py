"""Command lists of the benchmark workloads.

Each workload is a list of README-style ``antlion`` command lines, run in
order as one pass. Every ``--seed`` in them comes from the benchmark's seed,
reduced modulo ``REFERENCE_SEEDS`` so that each seed the benchmark can be
given maps onto an input set whose output digests are recorded in
``references.json``.

``FULL`` is what the benchmark measures. ``TINY`` runs the same commands at
small sizes, for the benchmark's own tests, which use only ``TINY_SEED``.
"""

from __future__ import annotations

REFERENCE_SEEDS = 32
TINY_SEED = 3

FULL = {
    # The exact enumerator and the standardized-CDF build do almost all the
    # work; Monte Carlo, bandit and reachability do none.
    "exact_law": [
        "cvm --targets arw,srw --alpha 1/10,1/2,9/10 --t 1..15 --mode exact",
        "cvm --targets arw --alpha 9/10 --t 20 --mode exact",
        "moments --alpha 9/10 --p 1/2 --t-max 18",
        "residence --alpha 1/2 --t 16 --mode exact",
    ],
    # Monte Carlo and the bandit sweep dominate; exact is never called.
    "sim_law": [
        "cvm --targets arw,srw --alpha 0.1,0.3,0.5,0.7,0.9 --t 100 --mode mc --seed {seed}",
        "cvm --targets arw --alpha 0.5,0.9 --t 200 --mode mc --n 200000 --seed {seed}",
        "residence --alpha 0.98 --t 100 --mode mc --n 50000 --seed {seed}",
        "bandit --pa 0.8 --pb 0.2 --horizon 5000 --sweep-alphas 0.5,0.9,1.0 --seeds 16"
        " --seed {seed}",
    ],
    # Heavy table writing in all three formats, light compute; the only
    # workload with real reachability load.
    "table_dump": [
        "dist --alpha 9/10 --p 1/2 --t 16 --mode exact",
        "dist --alpha 0.5 --t 60 --mode mc --n 50000 --format json --seed {seed}",
        "dist --alpha 0.9 --t 100 --mode mc --n 300 --store paths --format gnuplot"
        " --seed {seed}",
        "bandit --alpha 0.99 --pa 0.8 --pb 0.2 --horizon 10000 --signal uniform:-5,5"
        " --seed {seed}",
        "reach --alpha 0.5 --sweep 20000 --epsilon 0.000244140625 --seed {seed}",
        "reach --alpha 0.3 --sweep 20000 --epsilon 0.001 --seed {seed}",
        "cvm --targets arw,srw --alpha 9/10 --t 12 --mode exact --grid-table --format gnuplot",
    ],
}

TINY = {
    "exact_law": [
        "cvm --targets arw,srw --alpha 1/10,1/2,9/10 --t 1..5 --mode exact",
        "cvm --targets arw --alpha 9/10 --t 8 --mode exact",
        "moments --alpha 9/10 --p 1/2 --t-max 6",
        "residence --alpha 1/2 --t 6 --mode exact",
    ],
    "sim_law": [
        "cvm --targets arw,srw --alpha 0.1,0.9 --t 20 --mode mc --n 2000 --seed {seed}",
        "cvm --targets arw --alpha 0.5 --t 30 --mode mc --n 5000 --seed {seed}",
        "residence --alpha 0.98 --t 20 --mode mc --n 2000 --seed {seed}",
        "bandit --pa 0.8 --pb 0.2 --horizon 300 --sweep-alphas 0.5,1.0 --seeds 2"
        " --seed {seed}",
    ],
    "table_dump": [
        "dist --alpha 9/10 --p 1/2 --t 8 --mode exact",
        "dist --alpha 0.5 --t 20 --mode mc --n 2000 --format json --seed {seed}",
        "dist --alpha 0.9 --t 20 --mode mc --n 30 --store paths --format gnuplot"
        " --seed {seed}",
        "bandit --alpha 0.99 --pa 0.8 --pb 0.2 --horizon 500 --signal uniform:-5,5"
        " --seed {seed}",
        "reach --alpha 0.5 --sweep 300 --epsilon 0.000244140625 --seed {seed}",
        "reach --alpha 0.3 --sweep 300 --epsilon 0.001 --seed {seed}",
        "cvm --targets arw,srw --alpha 9/10 --t 5 --mode exact --grid-table --format gnuplot",
    ],
}

WORKLOADS = tuple(FULL)


def commands(workload: str, seed: int, table: dict = None) -> list:
    """The workload's argv lists (without ``--out``) for ``seed``, from
    ``table`` (``FULL`` when not given)."""
    reduced = seed % REFERENCE_SEEDS
    lines = (FULL if table is None else table)[workload]
    return [line.format(seed=reduced).split() for line in lines]
