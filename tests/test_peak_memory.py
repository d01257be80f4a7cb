import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from nhssh import LatticeParams, PacketSpec, build_initial_state, evolve, full_spectrum, revival_period
from nhssh.cli import EXIT_OK, _write_csv, main
from nhssh.lattice import Boundary, build_chain
from nhssh.propagate import decompose

LARGE = LatticeParams(1000, 0.9, 1.8)  # 2N = 2000, where one 2N x 2N float64 array is 32 MiB


def _cli(*argv):
    def run():
        assert main([*argv, "--out", "out"]) == EXIT_OK

    return run


def _on_large_chain(solver, boundary):
    chain = build_chain(replace(LARGE, boundary=boundary))
    return lambda: solver(chain)


def _evolve_on_given_modes():
    modes = decompose(build_chain(LARGE))
    psi0 = build_initial_state(PacketSpec(np.pi / 2, 0.02), LARGE)
    dt = 0.3 * revival_period(LARGE) / 1999
    return lambda: evolve(psi0, modes, dt, 1999)


def _norms_table():
    t = np.linspace(0.0, 40.0, 2000)
    norms = 1.0 + 0.5 * np.sin(t) ** 2
    return partial(_write_csv, Path("norms.csv"), ["t", "P_numeric", "P_closed_form"], [t, norms, norms * (1 + 1e-9)])


# Peak traced memory, one row per run: label -> (setup, bound in MiB). setup builds the run's inputs, untraced,
# and returns the call whose peak is measured.
PEAK_MIB = {
    # at 2N = 500 and 2000 samples the profile stack alone is 7.6 MiB; fig6 and fig7 reduce one 64-sample
    # block at a time (18.6 and 26.7 MiB when they read the whole stack), and each pass forms U (0.5 MiB) and
    # drops it. fig6: 1.93 MiB measured. fig7 keeps each single's intervals and norms, not the run: 2.11 MiB
    # measured, 3.42 MiB while the shared decomposition cached U and both singles lived through the pairs
    "fig6-profile-readers": (partial(_cli, "fig6", "--cells", "250", "--samples", "2000"), 2.5),
    "fig7-profile-readers": (partial(_cli, "fig7", "--cells", "250", "--samples", "2000"), 2.75),
    # fig4 at 2N = 2000 holds U's two angle-addition tables (0.5 MiB each) and evolve's transient beside them,
    # and forms no N x N array: 6.41 MiB measured, 13.24 MiB while the decomposition held U (7.6 MiB), 22.3 MiB
    # while it also stored the loss vectors V
    "fig4-2000": (partial(_cli, "fig4", "--cells", "1000", "--samples", "2000"), 8),
    # oracle-compare evolves nothing: it reads its three profiles from the tables, one row block of U at a time,
    # 2.15 MiB measured, 6.71 MiB while it evolved all 2000 samples
    "oracle-compare-2000": (partial(_cli, "oracle-compare", "--cells", "1000", "--samples", "2000"), 3),
    # on either boundary the spectrum needs no matrix at all (0.12 MiB measured on the ring)
    **{f"spectrum-{b.value}": (partial(_on_large_chain, full_spectrum, b), 1) for b in Boundary},
    # the decomposition holds U as two angle-addition tables and forms no N x N array, the open chain's column
    # norms come in closed form, and V, U's parity image, is never stored: 1.83 MiB open and 1.56 MiB ring
    # measured, 8.9 and 8.8 MiB while it formed U (7.6 MiB)
    **{f"decompose-{b.value}": (partial(_on_large_chain, decompose, b), 3) for b in Boundary},
    # with 2 000 samples (32 blocks), on a given decomposition: the c and s tables at the 64 offsets and 32
    # block starts (1.5 MiB), the [c^2, c*s, s^2] table (1.5 MiB), and per component its alpha and beta (1 MiB)
    # and GEMM rows (0.7 MiB); 5.6 MiB measured, as each component's alpha, beta and rows are freed before the
    # next one's are formed (6.6 MiB while they stayed alive)
    "evolve-2000": (_evolve_on_given_modes, 6),
    # the CSV writer on fig3-fig6's norms table at 2000 samples formats 1024 rows at a time and builds a chunk's
    # text once the formatting's temporaries are freed: 0.30 MiB measured, against 0.44 MiB for the cell-by-cell
    # writer and 0.57 MiB for this one unchunked
    "csv-norms-2000": (_norms_table, 0.4),
}


@pytest.mark.parametrize("setup, bound", PEAK_MIB.values(), ids=PEAK_MIB)
def test_peak_memory(tmp_path, monkeypatch, setup, bound):
    monkeypatch.chdir(tmp_path)
    run = setup()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 2**20, peak / 2**20
