"""The synthetic generator's bits do not depend on the BLAS kernel.

Each case reruns the generator in a child process whose OpenBLAS is told
to use another CPU kernel (``OPENBLAS_CORETYPE``, set in the child's
environment only) and compares a digest of its trials with this
process's.  ``digest_in_child`` serves the other modules' kernel tests
too."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fallsense
from fallsense.synthetic import SyntheticSpec, generate_synthetic_trial

SPECS = (SyntheticSpec(duration_s=6.0),
         SyntheticSpec(kind="walk", duration_s=4.0),
         SyntheticSpec(kind="sit", duration_s=4.0),
         SyntheticSpec(duration_s=6.0, tilt_axis=(0.3, -0.7, 0.2)))


def generator_digest() -> str:
    digest = hashlib.sha256()
    for seed, spec in enumerate(SPECS):
        annotated, truth = generate_synthetic_trial(spec, seed=seed)
        trial = annotated.trial
        for array in (trial.accel_adxl345, trial.accel_mma8451q,
                      trial.gyro_itg3200, truth.quats, truth.theta):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def digest_in_child(function: str, coretype: str) -> str:
    """``function()`` of this folder's test modules (``"module.name"``),
    run in a child process whose OpenBLAS uses the ``coretype`` kernel."""
    module, name = function.split(".")
    paths = [str(Path(fallsense.__file__).parents[1]),
             str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join(paths))
    child = subprocess.run(
        [sys.executable, "-c", f"import {module}; print({module}.{name}())"],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return child.stdout.strip()


# Haswell is the kernel OpenBLAS picks on AMD Zen and on Intel CPUs
# without AVX-512.
@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_generator_bits_do_not_depend_on_the_blas_kernel(coretype):
    assert (digest_in_child("test_synthetic.generator_digest", coretype)
            == generator_digest())
