import pytest
from hypothesis import settings

from richads import harness

# a failing property test prints the `@reproduce_failure` blob that replays
# it, so a failure seen only in CI can be rerun locally; every other setting
# keeps hypothesis's default
settings.register_profile("richads", print_blob=True)
settings.load_profile("richads")


@pytest.fixture(scope="session")
def small_corpus():
    """300 mixed instances for module-level checks (seed pinned)."""
    cfg = harness.ExperimentConfig(seed=7, instances=300, max_advertisers=4, max_ads=3)
    return harness.generate_corpus(cfg)


@pytest.fixture(scope="session")
def tie_corpus():
    """Tie-heavy instances: tiny integer grids where exact ties are routine."""
    return harness.generate_corpus(harness.tie_prone_config(seed=3, instances=60))
