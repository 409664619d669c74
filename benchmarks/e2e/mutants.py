"""Deliberately broken deployments, for proving the benchmark's gate fails.

Passed to ``run.py --mutator mutants:<name>``; the chaos workload applies
the function through ``ChaosEngine``'s public ``mutator=`` hook before the
monitors attach.  Never part of a measured run.
"""

from repro.crypto import ThresholdSignature


def weaken_proxy_gate(deployment) -> None:
    """The field proxy accepts a delivery after a single share and vouches
    for it with a forged combined signature — the bug class the chaos
    proxy-gate monitor exists to catch."""
    collector = deployment.proxy.collector
    accepted = set()

    def gullible_add(share):
        record = share.record
        if record.key() in accepted:
            return None
        accepted.add(record.key())
        collector.verified += 1
        return record, ThresholdSignature(collector.group, "forged")

    collector.add = gullible_add
