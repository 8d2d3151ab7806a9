"""Pinned exec cache keys.

A fingerprint is the key every cached result row is stored under, so a
change to the canonical encoding orphans every existing cache entry.
These literal digests pin the encoding for three representative
configurations; a change that must move them has to bump
``CODE_VERSION`` and re-pin them on purpose.
"""

from repro.core.config import DistributedConfig, SingleSiteConfig
from repro.exec import config_fingerprint
from repro.faults.plan import FaultPlan


def test_default_single_site_key_is_pinned():
    assert config_fingerprint(SingleSiteConfig()) == (
        "14d7ac003d998fe3523c83ad8fe6c9cedc26f936ed67bc79b970f103094160ea")


def test_default_distributed_key_is_pinned():
    assert config_fingerprint(DistributedConfig()) == (
        "33f5b47c54db6c58eb4c343ae3c6b050435df20fa1cd20f0e61035ab1fb26123")


def test_lossy_fault_plan_key_is_pinned():
    plan = FaultPlan(loss_rate=0.1, delay_jitter=1.0, duplicate_rate=0.05,
                     rpc_timeout=8.0)
    config = DistributedConfig(mode="global", faults=plan)
    assert config_fingerprint(config) == (
        "ad1eb34eac8602536ae95d9927f7a31960d69101febb45486c70cb3daa82abfd")
