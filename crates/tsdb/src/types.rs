//! Core identifiers and value types.

use std::fmt;

/// Seconds since an arbitrary epoch (the simulator's clock).
pub type Timestamp = u64;

/// One sample of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataPoint {
    /// Sample time.
    pub timestamp: Timestamp,
    /// Sample value.
    pub value: f64,
}

impl DataPoint {
    /// Creates a data point.
    pub fn new(timestamp: Timestamp, value: f64) -> Self {
        DataPoint { timestamp, value }
    }
}

/// The kind of performance metric a series records.
///
/// Matches the paper's metric inventory (§3): CPU, memory, throughput,
/// latency, error rate, coredump count, and application-defined metrics.
/// `GCpu` is the normalized subroutine-level CPU metric of §2/§4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MetricKind {
    /// Normalized subroutine CPU (fraction of stack-trace samples).
    GCpu,
    /// Endpoint-level aggregated cost from end-to-end tracing (§3).
    EndpointCost,
    /// Process-level CPU utilization.
    Cpu,
    /// Resident memory.
    Memory,
    /// Requests per second.
    Throughput,
    /// Request latency.
    Latency,
    /// Fraction of failed requests.
    ErrorRate,
    /// Count of coredumps.
    CoredumpCount,
    /// An application-defined metric.
    Application,
}

impl MetricKind {
    /// Short lowercase name used in metric IDs (e.g. `"gcpu"`).
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::GCpu => "gcpu",
            MetricKind::EndpointCost => "endpoint_cost",
            MetricKind::Cpu => "cpu",
            MetricKind::Memory => "memory",
            MetricKind::Throughput => "throughput",
            MetricKind::Latency => "latency",
            MetricKind::ErrorRate => "error_rate",
            MetricKind::CoredumpCount => "coredumps",
            MetricKind::Application => "application",
        }
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifies a monitored time series.
///
/// The `target` distinguishes what within the service is measured: a
/// subroutine name for gCPU series, an endpoint for endpoint-level series,
/// or an empty string for service-wide metrics.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId {
    /// Owning service (e.g. `"FrontFaaS"`).
    pub service: String,
    /// What is measured.
    pub metric: MetricKind,
    /// Subroutine, endpoint, or other sub-target; empty for service-wide.
    pub target: String,
}

impl SeriesId {
    /// Creates a series id.
    pub fn new(service: impl Into<String>, metric: MetricKind, target: impl Into<String>) -> Self {
        SeriesId {
            service: service.into(),
            metric,
            target: target.into(),
        }
    }

    /// The paper's "metric ID": subroutine name concatenated with metric
    /// name — the text feature SOMDedup hashes with TF-IDF (§5.5.1).
    pub fn metric_id(&self) -> String {
        if self.target.is_empty() {
            format!("{}.{}", self.service, self.metric)
        } else {
            format!("{}::{}.{}", self.service, self.target, self.metric)
        }
    }
}

impl fmt::Display for SeriesId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.metric_id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_id_includes_target() {
        let id = SeriesId::new("FrontFaaS", MetricKind::GCpu, "foo::bar");
        assert_eq!(id.metric_id(), "FrontFaaS::foo::bar.gcpu");
    }

    #[test]
    fn metric_id_service_wide() {
        let id = SeriesId::new("TAO", MetricKind::Throughput, "");
        assert_eq!(id.metric_id(), "TAO.throughput");
    }

    #[test]
    fn series_ids_hash_and_order() {
        use std::collections::HashSet;
        let a = SeriesId::new("S", MetricKind::Cpu, "x");
        let b = SeriesId::new("S", MetricKind::Cpu, "y");
        let mut set = HashSet::new();
        set.insert(a.clone());
        set.insert(b.clone());
        set.insert(a.clone());
        assert_eq!(set.len(), 2);
        assert!(a < b);
    }

    #[test]
    fn metric_names_are_stable() {
        assert_eq!(MetricKind::GCpu.to_string(), "gcpu");
        assert_eq!(MetricKind::ErrorRate.to_string(), "error_rate");
    }
}
