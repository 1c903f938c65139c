import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dtc2d
from dtc2d.blas import THREAD_VARIABLES, limit_blas_threads
from dtc2d.circuit import FloquetParams, build_cycle, initial_state, sample_disorder
from dtc2d.exact import StateVector
from dtc2d.lattice import build_lattice, unroll

# the suite runs with the program's own thread policy, as the CLI does
limit_blas_threads()


@pytest.fixture(scope="session")
def hexagon():
    return build_lattice(1, 1)


@pytest.fixture(scope="session")
def hexagon_order(hexagon):
    return unroll(hexagon)


@pytest.fixture(scope="session")
def lattice_2x2():
    return build_lattice(2, 2)


@pytest.fixture(scope="session")
def dtc_cycle(hexagon):
    """Floquet cycle at the time-crystal point, fixed disorder seed."""
    disorder = sample_disorder(hexagon, seed=7)
    params = FloquetParams(epsilon=0.05, phi=0.45 * np.pi)
    return build_cycle(hexagon, disorder, params)


@pytest.fixture(scope="session")
def hexagon_neel(hexagon):
    return initial_state(hexagon, "neel")


@pytest.fixture(scope="session")
def evolve():
    """Dense oracle run: ``evolve(state, cycle, n_cycles)`` applies the
    Floquet cycle n_cycles times to a product state and returns the
    StateVector."""

    def run(state, cycle, n_cycles):
        sv = StateVector.from_product(state)
        for _ in range(n_cycles):
            sv.apply_cycle(cycle)
        return sv

    return run


@pytest.fixture(scope="session")
def fresh_python():
    """``run(code, **variables)`` runs ``code`` in a new interpreter that
    imports dtc2d from this tree, with no BLAS thread variable set but the
    given environment ``variables``, and returns the JSON value of its last
    output line."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    paths = [str(Path(dtc2d.__file__).resolve().parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))

    def run(code, **variables):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**env, **variables},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    return run
