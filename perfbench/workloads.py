"""Seeded workload definitions for the rinclose benchmark.

A workload is a list of input matrices (instances) and, for each instance,
one or more ``rinclose mine`` argument lists (jobs).  One pass runs every job
once.  Instances are drawn from the run's seed modulo INPUT_SETS, and the
output of every job on each of those input sets is pinned by SHA-256 in
``expected.json``, so every run checks that its outputs are complete.
Several independent instances per pass keep the seed-to-seed spread of the
pass time small where the node count of a single instance varies with its
seed.

Imports numpy and rinclose lazily (inside functions), so the parent process
of a run stays small before it starts the measuring child.
"""

from __future__ import annotations

from dataclasses import dataclass

INPUT_SETS = 32


def input_set(seed: int) -> int:
    """The input set a run seed draws from: every one has pinned outputs."""
    return seed % INPUT_SETS


@dataclass(frozen=True)
class Instance:
    """One generated input: the matrix values and, if planted, the truth."""

    values: object  # numpy.ndarray
    truth: object = None  # rinclose.BiclusterSolution or None
    well_posed: bool = True  # every planted residue fits under epsilon


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int
    jobs: tuple[tuple[str, ...], ...]  # mine flags, without --input/--output
    shape: tuple[int, int]
    small_shape: tuple[int, int]  # oracle-sized variant for the self-test
    small_jobs: tuple[tuple[str, ...], ...]

    def make(self, seed: int, index: int, small: bool = False) -> Instance:
        """The index-th input of this workload for a seed; same seed, same input."""
        return _MAKERS[self.name](self, _sub_seed(input_set(seed), index), small)


def _sub_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _planted(wl: Workload, seed: int, small: bool, pattern: str, bic_rows: int,
             bic_cols: int, num_bics: int, epsilon: float) -> Instance:
    from rinclose import GenConfig, generate

    n, m = wl.small_shape if small else wl.shape
    if small:
        bic_rows, bic_cols, num_bics = 5, 3, 2
    cfg = GenConfig(n=n, m=m, num_bics=num_bics, bic_rows=bic_rows, bic_cols=bic_cols,
                    overlap=0.2, noise_sigma=0.01, seed=seed, pattern=pattern)
    mat, truth = generate(cfg)
    well_posed = max(truth.stats.extras["planted_residues"]) <= epsilon
    return Instance(mat.values, truth, well_posed)


def _uniform_ints(wl: Workload, seed: int, small: bool, high: int) -> Instance:
    import numpy as np

    shape = wl.small_shape if small else wl.shape
    return Instance(np.random.default_rng(seed).integers(0, high, size=shape).astype(float))


def _bernoulli(wl: Workload, seed: int, small: bool, p: float) -> Instance:
    import numpy as np

    shape = wl.small_shape if small else wl.shape
    return Instance((np.random.default_rng(seed).random(shape) < p).astype(float))


_MAKERS = {
    "cvc-tall": lambda wl, s, small: _planted(wl, s, small, "cvc", 200, 6, 10, 0.1),
    "chv-wide": lambda wl, s, small: _planted(wl, s, small, "chv-shift", 50, 6, 5, 0.1),
    "ctv-dense": lambda wl, s, small: _bernoulli(wl, s, small, 0.3),
    "perfect-int": lambda wl, s, small: _uniform_ints(wl, s, small, 3),
}


def _mine(alg: str, epsilon: str | None, min_rows: int, min_cols: int) -> tuple[str, ...]:
    eps = ("--epsilon", epsilon) if epsilon is not None else ()
    return ("mine", "--alg", alg, *eps, "--min-rows", str(min_rows), "--min-cols", str(min_cols))


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "cvc-tall",
            instances=6,
            jobs=(_mine("cvc", "0.1", 200, 6),),
            shape=(5000, 60),
            small_shape=(16, 10),
            small_jobs=(_mine("cvc", "0.1", 5, 3),),
        ),
        Workload(
            "chv-wide",
            instances=8,
            jobs=(_mine("chv", "0.1", 50, 6),),
            shape=(500, 60),
            small_shape=(12, 8),
            small_jobs=(_mine("chv", "0.1", 5, 3),),
        ),
        Workload(
            "ctv-dense",
            instances=1,
            jobs=(_mine("ctv-binary", None, 20, 3),),
            shape=(1000, 40),
            small_shape=(16, 10),
            small_jobs=(_mine("ctv-binary", None, 2, 2),),
        ),
        Workload(
            "perfect-int",
            instances=1,
            jobs=(_mine("chv-p", None, 3, 3), _mine("cvc-p", None, 3, 3)),
            shape=(150, 12),
            small_shape=(16, 8),
            small_jobs=(_mine("chv-p", None, 2, 2), _mine("cvc-p", None, 2, 2)),
        ),
    )
}
