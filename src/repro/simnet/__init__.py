"""Network substrate for the OBIWAN reproduction.

The paper's prototype ran over Java RMI on a 10 Mb/s LAN.  This package
provides the equivalent message layer with two interchangeable
transports:

:class:`~repro.simnet.loopback.LoopbackNetwork`
    Synchronous in-process delivery that charges a simulated clock
    according to a :class:`~repro.simnet.link.Link` cost model.  Fully
    deterministic; used by every figure benchmark.
:class:`~repro.simnet.tcp.TcpNetwork`
    Length-prefixed frames over pooled localhost TCP connections — the
    closest analogue of the paper's RMI-over-LAN deployment, and the one
    wall-clock transport: handlers run on serving threads, concurrently
    with callers.

All transports share partition/disconnection injection (the mobility
scenarios of the paper) and per-link traffic statistics.
"""

from repro.simnet.link import (
    LAN_10MBPS,
    LOCAL,
    WAN,
    WIRELESS_GPRS,
    WIRELESS_WLAN,
    Link,
)
from repro.simnet.loopback import LoopbackNetwork
from repro.simnet.message import Message, MessageKind
from repro.simnet.network import Endpoint, Network
from repro.simnet.partition import ConnectivityMap
from repro.simnet.stats import LinkStats, NetworkStats
from repro.simnet.tcp import TcpNetwork

__all__ = [
    "Link",
    "LOCAL",
    "LAN_10MBPS",
    "WAN",
    "WIRELESS_WLAN",
    "WIRELESS_GPRS",
    "Message",
    "MessageKind",
    "Network",
    "Endpoint",
    "ConnectivityMap",
    "NetworkStats",
    "LinkStats",
    "LoopbackNetwork",
    "TcpNetwork",
]
