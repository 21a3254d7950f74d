"""Simulated cloud substrate: HDFS, HBase, document pool, portals, MapReduce.

Reproduces the deployment of paper §3/§4.2: portal servers in front of a
pool of DRA4WfMS documents stored in an HBase-like region-sharded store
over a replicated block store, with MapReduce monitoring jobs.
"""

from .hbase import Cell, Region, RegionServer, SimHBase
from .hdfs import BlockInfo, DataNode, SimHdfs
from .mapreduce import JobStats, MapReduceEngine
from .network import LAN, WAN, NetworkModel
from .notify import Notification, NotificationService
from .pool import DOC_TABLE, TODO_TABLE, DocumentPool, PoolEntry, ProcessSummary
from .portal import PortalServer, Session
from .sharding import DEFAULT_VNODES, HashRing, PortalPlacement, placement_skew
from .simclock import SimClock
from .system import CloudClient, CloudSystem, run_process_in_cloud

__all__ = [
    "BlockInfo",
    "Cell",
    "CloudClient",
    "CloudSystem",
    "DEFAULT_VNODES",
    "DOC_TABLE",
    "DataNode",
    "DocumentPool",
    "HashRing",
    "JobStats",
    "LAN",
    "MapReduceEngine",
    "NetworkModel",
    "Notification",
    "NotificationService",
    "PoolEntry",
    "PortalPlacement",
    "ProcessSummary",
    "PortalServer",
    "Region",
    "RegionServer",
    "Session",
    "SimClock",
    "SimHBase",
    "SimHdfs",
    "TODO_TABLE",
    "WAN",
    "placement_skew",
    "run_process_in_cloud",
]
