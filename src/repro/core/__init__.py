"""The Fremont system core: Journal, Explorer Modules, Discovery
Manager, cross-correlation, analysis, and presentation."""

from .avl import AvlTree
from .client import (
    LocalClient,
    PendingReply,
    QueryCache,
    RemoteChangeFeed,
    RemoteClient,
    ReplyTimeout,
    connect,
    format_replica_targets,
    format_targets,
    parse_replica_targets,
    parse_targets,
)
from .correlate import Correlator, FederatedCorrelator
from .durability import JournalStore, RecoveryReport, shard_store_path
from .failover import FailoverClient, StandbyReplica
from .inquiry import NetworkPicture
from .journal import (
    FeedSubscription,
    Journal,
    JournalChanges,
    JournalCorruptError,
)
from .manager import DiscoveryManager
from .records import (
    Attribute,
    GatewayRecord,
    InterfaceRecord,
    Observation,
    Quality,
    SubnetRecord,
)
from .replicate import FederatedView, JournalReplicator
from .server import JournalDispatcher, JournalServer
from .shard import (
    ShardFlushError,
    ShardMap,
    ShardedChangeFeed,
    ShardedClient,
    VectorCursor,
    global_id,
    parse_shard_spec,
    shard_of_id,
)
from .sink import BatchingSink, FlushStats, ObservationSink
from .telemetry import (
    MetricsExporter,
    MetricsRegistry,
    Span,
    parse_prometheus,
    render_fleet_stats,
    render_stats,
    snapshot_to_prometheus,
    telemetry_of,
)
from .topology import TopologyImpact, TopologyPath, TopologyStore

__all__ = [
    "Attribute",
    "AvlTree",
    "BatchingSink",
    "Correlator",
    "DiscoveryManager",
    "FailoverClient",
    "FederatedCorrelator",
    "FederatedView",
    "FeedSubscription",
    "FlushStats",
    "GatewayRecord",
    "InterfaceRecord",
    "Journal",
    "JournalChanges",
    "JournalCorruptError",
    "JournalDispatcher",
    "JournalReplicator",
    "JournalServer",
    "JournalStore",
    "LocalClient",
    "MetricsExporter",
    "MetricsRegistry",
    "NetworkPicture",
    "Observation",
    "ObservationSink",
    "PendingReply",
    "Quality",
    "QueryCache",
    "RecoveryReport",
    "RemoteChangeFeed",
    "RemoteClient",
    "ReplyTimeout",
    "ShardFlushError",
    "ShardMap",
    "ShardedChangeFeed",
    "ShardedClient",
    "Span",
    "StandbyReplica",
    "SubnetRecord",
    "TopologyImpact",
    "TopologyPath",
    "TopologyStore",
    "VectorCursor",
    "connect",
    "format_replica_targets",
    "format_targets",
    "global_id",
    "parse_prometheus",
    "parse_replica_targets",
    "parse_shard_spec",
    "parse_targets",
    "render_fleet_stats",
    "render_stats",
    "shard_of_id",
    "shard_store_path",
    "snapshot_to_prometheus",
    "telemetry_of",
]
