import os

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


@pytest.fixture
def exchange_partitions(monkeypatch):
    """Shrinks the hash exchange's bytes per partition to 16 so that
    test-sized inputs fan out to several partitions, and returns the
    list of partition counts the exchanges of the test chose."""
    from pyspider_ray import neardup
    seen = []
    real = neardup._partitioned

    def spy(*sides, **kw):
        parts = real(*sides, **kw)
        seen.append(len(parts))
        return parts

    monkeypatch.setattr(neardup, "_PARTITION_BYTES", 16)
    monkeypatch.setattr(neardup, "_partitioned", spy)
    return seen
