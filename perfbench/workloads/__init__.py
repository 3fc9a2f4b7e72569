"""The benchmark's workloads.

Each module builds one op cycle from a workload seed with ``build(seed,
workdir)``, names the Monte Carlo thread counts it passes in
``MC_THREADS`` and states in ``CYCLE_SECONDS`` how long one cycle's ops
take on the reference machine; a run is ``ceil(seconds / CYCLE_SECONDS)``
cycles.

``cli_coarse``, ``simulate`` and ``spectral`` are the parts of one
workload, cli-mc-spectral.
"""

from . import cli_mc_spectral, decide_probe

WORKLOADS = {
    "decide-probe": decide_probe,
    "cli-mc-spectral": cli_mc_spectral,
}
