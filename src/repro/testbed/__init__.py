"""CARAT testbed simulator.

A discrete-event simulation of the CARAT distributed database testbed
(paper §2): TM/DM server processes, two-phase locking with local
wait-for-graph search and probe-based global deadlock detection,
before-image write-ahead journaling, and centralized two-phase commit.
Shares its cost tables with the analytical model so the two can be
compared like the paper's model-vs-measurement studies.
"""

from repro.testbed.batchmeans import (BatchMeansResult, batch_means,
                                      lag1_autocorrelation)
from repro.testbed.deadlock import GlobalDetector
from repro.testbed.des import (Event, Fork, Process, Serve, Simulator,
                               Timeout, Wait)
from repro.testbed.locks import LockManager, LockMode, LockRequestOutcome
from repro.testbed.serializability import (AccessRecord,
                                           CommittedTransaction,
                                           SerializabilityReport,
                                           check_serializable,
                                           conflict_graph)
from repro.testbed.metrics import (Metrics, SimulationMeasurement,
                                   SiteMeasurement)
from repro.testbed.node import CaratNode
from repro.testbed.resources import CountingPool, FcfsResource, Mailbox
from repro.testbed.replication import (Estimate, ReplicatedMeasurement,
                                       run_replications)
from repro.testbed.storage import BlockStorage
from repro.testbed.system import (CaratSimulation, OpenCaratSimulation,
                                  SimulationConfig, simulate)
from repro.testbed.telemetry import (Telemetry, TimeSeriesSample,
                                     TransactionSpans)
from repro.testbed.tracing import TraceEvent, TraceEventKind, Tracer
from repro.testbed.wal import (Journal, LogRecord, RecordType,
                               RecoveryReport, recover)

__all__ = [
    "Simulator", "Event", "Timeout", "Wait", "Fork", "Serve", "Process",
    "FcfsResource", "CountingPool", "Mailbox",
    "LockManager", "LockMode", "LockRequestOutcome",
    "BlockStorage", "Journal", "LogRecord", "RecordType", "recover",
    "RecoveryReport",
    "CaratNode", "Metrics", "SiteMeasurement", "SimulationMeasurement",
    "CaratSimulation", "OpenCaratSimulation", "SimulationConfig",
    "simulate",
    "GlobalDetector",
    "AccessRecord", "CommittedTransaction", "SerializabilityReport",
    "check_serializable", "conflict_graph",
    "Tracer", "TraceEvent", "TraceEventKind",
    "Telemetry", "TransactionSpans", "TimeSeriesSample",
    "Estimate", "ReplicatedMeasurement", "run_replications",
    "BatchMeansResult", "batch_means", "lag1_autocorrelation",
]
