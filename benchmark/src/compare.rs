//! Compares two directories of end-to-end result files: for every
//! workload and metric, the relative difference of the medians beside
//! the metric's bound, and the run-to-run spread of each side.

use crate::json;
use crate::spec::{self, Better};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// `workload -> metric -> one value per run` from a directory's
/// `*.e2e.*.json` files.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_dir(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || !name.contains(".e2e.") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc
            .get("workload")
            .and_then(|w| w.as_str())
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let metrics = doc
            .get("metrics")
            .map(json::metric_values)
            .unwrap_or_default();
        let slot = runs.entry(workload.to_string()).or_default();
        for (metric, value) in metrics {
            slot.entry(metric).or_default().push(value);
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no end-to-end result files", dir.display()));
    }
    Ok(runs)
}

/// By how much of `a` the side `b` is worse, given which way is better;
/// negative when `b` is better.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Prints the comparison; `Ok(false)` when `b` is worse than `a` by
/// more than a bound anywhere.
pub fn compare_dirs(a: &Path, b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (read_dir(a)?, read_dir(b)?);
    println!("#### {} (A) against {} (B)", a.display(), b.display());
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>8} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "bound", "spread A", "spread B"
    );
    let mut within = true;
    for w in spec::WORKLOADS {
        let (Some(ma), Some(mb)) = (runs_a.get(w.name), runs_b.get(w.name)) else {
            continue;
        };
        for def in spec::end_to_end() {
            let (Some(va), Some(vb)) = (ma.get(&def.name), mb.get(&def.name)) else {
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let (med_a, med_b) = (stats::median(va), stats::median(vb));
            let worse = worsening(med_a, med_b, def.better);
            let spread = |v: &[f64]| stats::quartile_spread(v);
            let fmt = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            // With several runs a side, a spread wider than the bound
            // means the pairing cannot be resolved either way.
            let noisy = [spread(va), spread(vb)]
                .iter()
                .flatten()
                .any(|s| *s > bound);
            let verdict = if worse > bound {
                within = false;
                "REGRESSED"
            } else if noisy {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<16} {:<26} {:>14.4} {:>14.4} {:>7.1}% {:>5.0}% {:>8} {:>8}  {verdict}",
                w.name,
                def.name,
                med_a,
                med_b,
                worse * 100.0,
                bound * 100.0,
                fmt(spread(va)),
                fmt(spread(vb)),
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, Better::Lower) - 0.25).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn directories_compare_against_the_bounds() {
        let root =
            std::env::temp_dir().join(format!("pangea-benchmark-compare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let write = |dir: &str, file: &str, job: f64| {
            let d = root.join(dir);
            std::fs::create_dir_all(&d).unwrap();
            let doc = format!(
                r#"{{"workload": "shuffle-wide", "metrics": {{"job_rec_per_s": {{"value": {job}, "unit": "1/s"}}, "setup_s": {{"value": 0.5, "unit": "s"}}}}}}"#
            );
            std::fs::write(d.join(file), doc).unwrap();
        };
        write("a", "shuffle-wide.e2e.seed1.json", 1000.0);
        write("a", "shuffle-wide.e2e.seed2.json", 1010.0);
        write("a", "shuffle-wide.traced.seed1.json", 1.0); // not an end-to-end file
        write("same", "shuffle-wide.e2e.seed1.json", 960.0);
        write("slow", "shuffle-wide.e2e.seed1.json", 700.0);
        assert_eq!(compare_dirs(&root.join("a"), &root.join("same")), Ok(true));
        assert_eq!(compare_dirs(&root.join("a"), &root.join("slow")), Ok(false));
        assert!(compare_dirs(&root.join("a"), &root.join("missing")).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }
}
