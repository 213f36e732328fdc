"""Cluster messaging fabric.

* :mod:`repro.net.message` — tagged-dataclass message codec (JSON wire
  format with support for bytes, sets, tuples, and nested messages),
  encoded through per-class cached field names and decoded in one pass
  of the JSON scanner; a golden-bytes test holds its output to the
  bytes older builds wrote, so their WAL files and checkpoints stay
  readable.
* :mod:`repro.net.topology` — nodes, regions, and the region-aware latency
  model (intra-region delay δ, inter-region delay Δ).
* :mod:`repro.net.sim_transport` — the simulated network: per-link delays,
  crash-stop failures, link cuts, optional message loss, and an optional
  codec round-trip that proves every message is serializable.
* :mod:`repro.net.asyncio_transport` — a real TCP transport with
  length-prefixed frames, used by the asyncio runtime: sends are
  synchronous posts (no task per send) coalesced into one buffered write
  per destination and loop iteration, FIFO per link; a node's messages
  to itself are handed over in process, without codec or socket.
"""

from repro.net.message import Message, decode_message, encode_message, message, registry
from repro.net.sim_transport import SimNetwork
from repro.net.topology import NodeSpec, RegionLatencyModel, Topology

__all__ = [
    "Message",
    "message",
    "encode_message",
    "decode_message",
    "registry",
    "SimNetwork",
    "Topology",
    "NodeSpec",
    "RegionLatencyModel",
]
