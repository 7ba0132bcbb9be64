//! Result-row plumbing shared by the `repro` binary and the Criterion
//! benches: every experiment runner returns [`Row`]s; failures the paper
//! plots as gaps are carried as [`Outcome::Failed`] rows.

use pangea_common::PangeaError;
use std::fmt;
use std::time::Duration;

/// A measured value, or the gap the paper plots for failed systems.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Wall-clock seconds.
    Seconds(f64),
    /// Bytes (memory reports).
    Bytes(u64),
    /// A count.
    Count(u64),
    /// A dimensionless ratio (a share, a fraction of objects).
    Ratio(f64),
    /// The system failed (plotted as a gap); carries the failure text.
    Failed(String),
}

impl Outcome {
    /// Wraps a duration.
    pub fn secs(d: Duration) -> Self {
        Outcome::Seconds(d.as_secs_f64())
    }

    /// Converts an error into the gap representation.
    pub fn failed(e: &PangeaError) -> Self {
        Outcome::Failed(e.to_string())
    }

    /// The numeric value, if the run succeeded.
    pub fn value(&self) -> Option<f64> {
        match self {
            Outcome::Seconds(s) => Some(*s),
            Outcome::Bytes(b) => Some(*b as f64),
            Outcome::Count(c) => Some(*c as f64),
            Outcome::Ratio(r) => Some(*r),
            Outcome::Failed(_) => None,
        }
    }

    /// True when this row is a gap.
    pub fn is_failure(&self) -> bool {
        matches!(self, Outcome::Failed(_))
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Seconds(s) => write!(f, "{s:.3}s"),
            Outcome::Bytes(b) => {
                write!(f, "{}", pangea_common::units::fmt_bytes(*b as usize))
            }
            Outcome::Count(c) => write!(f, "{c}"),
            Outcome::Ratio(r) => write!(f, "{r:.4}"),
            Outcome::Failed(_) => write!(f, "FAILED"),
        }
    }
}

/// One data point of one experiment.
#[derive(Debug, Clone)]
pub struct Row {
    /// The series (system/configuration) label.
    pub series: String,
    /// The x-axis value label (scale point, query id, …).
    pub x: String,
    /// The metric label (`write`, `read`, `latency`, `memory`, …).
    pub metric: String,
    /// The measurement.
    pub outcome: Outcome,
}

impl Row {
    /// Builds one row.
    pub fn new(
        series: impl Into<String>,
        x: impl Into<String>,
        metric: impl Into<String>,
        outcome: Outcome,
    ) -> Self {
        Self {
            series: series.into(),
            x: x.into(),
            metric: metric.into(),
            outcome,
        }
    }
}

/// Prints one experiment's rows as an aligned table.
pub fn print_rows(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    let w1 = rows
        .iter()
        .map(|r| r.series.len())
        .max()
        .unwrap_or(6)
        .max(6);
    let w2 = rows.iter().map(|r| r.x.len()).max().unwrap_or(4).max(4);
    let w3 = rows
        .iter()
        .map(|r| r.metric.len())
        .max()
        .unwrap_or(6)
        .max(6);
    println!("{:<w1$}  {:<w2$}  {:<w3$}  value", "series", "x", "metric");
    for r in rows {
        println!(
            "{:<w1$}  {:<w2$}  {:<w3$}  {}",
            r.series, r.x, r.metric, r.outcome
        );
    }
}

/// A scratch directory for one experiment run.
pub fn bench_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pangea-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_format_and_classify() {
        assert_eq!(Outcome::Seconds(1.5).to_string(), "1.500s");
        assert_eq!(Outcome::Count(7).to_string(), "7");
        let gap = Outcome::failed(&PangeaError::SystemFailure("x".into()));
        assert_eq!(gap.to_string(), "FAILED");
        assert!(gap.is_failure());
        assert!(gap.value().is_none());
        assert_eq!(Outcome::Seconds(2.0).value(), Some(2.0));
    }

    #[test]
    fn ratios_render_without_a_unit() {
        assert_eq!(Outcome::Ratio(0.0113).to_string(), "0.0113");
        assert_eq!(Outcome::Ratio(1.0).to_string(), "1.0000");
        assert_eq!(Outcome::Ratio(0.25).value(), Some(0.25));
    }
}
