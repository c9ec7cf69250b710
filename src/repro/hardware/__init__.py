"""Hardware model: device/link specifications, cluster topology, arrangements.

The paper's testbed is TACC Frontera ``rtx`` nodes: 4 NVIDIA Quadro RTX 5000
GPUs per node, nodes interconnected with Mellanox InfiniBand.  We model a
cluster as a two-level tree of GPUs, hosts (node-local buses) and a switch
(one NIC per host), whose paths have a closed form, and derive
α–β communication parameters per process group from the rank→GPU arrangement
(naive vs the paper's "bunched" arrangement, Fig. 8).
"""

from repro.hardware.arrangement import (
    Arrangement,
    bunched_arrangement,
    linear_arrangement,
    make_arrangement,
    naive_arrangement,
)
from repro.hardware.specs import (
    IB_EDR,
    PCIE3_X16,
    RTX5000,
    ClusterSpec,
    DeviceSpec,
    LinkSpec,
    frontera_rtx,
)
from repro.hardware.topology import ClusterTopology

__all__ = [
    "DeviceSpec",
    "LinkSpec",
    "ClusterSpec",
    "RTX5000",
    "PCIE3_X16",
    "IB_EDR",
    "frontera_rtx",
    "ClusterTopology",
    "Arrangement",
    "naive_arrangement",
    "bunched_arrangement",
    "linear_arrangement",
    "make_arrangement",
]
