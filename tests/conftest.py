import warnings

import numpy as np
import pytest

from fsosr.dataset_io import write_dataset
from fsosr.episode import SyntheticConfig, benchmark_config, generate_synthetic

pytest_plugins = ["pytester"]

# Hypothesis imports libcst, when installed, to print a failing example. Its
# first import warns (DeprecationWarning), and under filterwarnings("error")
# that warning is raised inside pytest's report hook: an INTERNALERROR in place
# of the failure report. Imported once here, it has warned before any test runs.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import libcst  # noqa: F401
except ImportError:
    pass


@pytest.fixture(scope="session")
def benchmark_dataset(tmp_path_factory):
    """The standard benchmark written to disk once per session: (path, dataset, masks)."""
    ds, masks = generate_synthetic(benchmark_config())
    path = tmp_path_factory.mktemp("bench") / "benchmark.fsof"
    write_dataset(ds, path)
    return path, ds, masks


@pytest.fixture(scope="session")
def default_dataset():
    """The default 5-class synthetic dataset, in memory: (dataset, masks)."""
    return generate_synthetic(SyntheticConfig())


def random_feature_map_values(rng: np.random.Generator, h=4, w=4, d=6):
    return rng.normal(size=(h, w, d))
