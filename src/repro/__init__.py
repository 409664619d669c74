"""repro: reproduction of "Network-Attack-Resilient Intrusion-Tolerant
SCADA for the Power Grid" (Spire, IEEE/IFIP DSN 2018).

Subpackages
-----------
``repro.simnet``     deterministic discrete-event substrate (virtual time)
``repro.obs``        observability: typed metrics, structured events
``repro.crypto``     RSA / threshold-RSA / providers, from scratch
``repro.spines``     intrusion-tolerant overlay network
``repro.prime``      Prime: BFT replication with bounded delay under attack
``repro.pbft``       PBFT-style baseline (static timeouts)
``repro.scada``      power grid, Modbus-like protocol, RTU/PLC devices
``repro.core``       Spire itself: replicas, proxies, HMIs, deployments
``repro.attacks``    Byzantine / DoS / overlay attacks, red-team campaign
``repro.baselines``  traditional SCADA comparison system
``repro.chaos``      seeded chaos schedules, judged by an output oracle + monitors
``repro.analysis``   table/figure rendering + scenario reports

Quickstart: see ``examples/quickstart.py`` or

    from repro.core import SpireDeployment, SpireOptions
    deployment = SpireDeployment(SpireOptions())
    deployment.start()
    deployment.run_for(10_000)           # 10 s of virtual time
    print(deployment.status_recorder.stats().row())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
