"""netevolve: longitudinal analysis of evolving collaboration networks.

Cumulative temporal snapshots, the small-world measure battery, power-law
degree-distribution fitting, attachment-logic proxy analysis, and small-world
classification, with seeded synthetic generators and a CSV/JSONL ingestion
CLI.
"""

from .errors import (
    InsufficientDataError,
    NetevolveError,
    ParseError,
    PipelineError,
    UndefinedMetricError,
)
from .evolution import (
    CorrelationPair,
    CorrelationReport,
    ProxyRow,
    SmallWorldThresholds,
    SmallWorldVerdict,
    StaticCheck,
    classify_small_world,
    correlate_attachment,
    normality_gate,
    pearson,
    proxy_series,
    spearman,
    static_attributes,
)
from .generators import barabasi_albert, erdos_renyi, watts_strogatz
from .graph_core import (
    GraphSnapshot,
    InteractionEvent,
    PublicationRecord,
    build_cumulative_snapshots,
    connected_components,
    giant_component,
)
from .ingest import (
    parse_edge_events,
    parse_edge_events_text,
    parse_publications,
    parse_publications_text,
    parse_timestamp,
    write_edge_events,
    write_edge_events_text,
)
from .metrics import (
    MetricsRow,
    assortativity,
    avg_clustering,
    avg_neighbor_degree,
    avg_neighbor_degree_mean,
    betweenness,
    centralization,
    closeness,
    degree_histogram,
    density_simple,
    density_weighted,
    local_clustering,
    metrics_row,
    path_stats,
    transitivity,
)
from .pipeline import (
    AnalysisConfig,
    ReportBundle,
    bundle_to_csv,
    bundle_to_json,
    run_analysis,
)
from .powerlaw import PowerLawFit, fit_powerlaw, loglog_points

__version__ = "0.1.0"
