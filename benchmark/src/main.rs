//! `pangea-benchmark`: drives a real process fleet (one `pangea-mgr`,
//! three `pangead`) through four workloads and reports end-to-end
//! metrics, or — traced — one number per layer. See `README.md`.
//!
//! ```text
//! pangea-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! pangea-benchmark [--traced] [--smoke] [--seed N] [--seconds S]
//!                  [--strategy NAME] [--out DIR] [--sets N]
//! pangea-benchmark --compare DIR_A DIR_B
//! pangea-benchmark --describe
//! ```

mod compare;
mod counters;
mod fleet;
mod gen;
mod json;
mod pass;
mod probes;
mod procfs;
mod run;
mod spans;
mod spec;
mod stats;

use json::Value;
use run::{Options, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pangea-benchmark [--workload NAME] [--seed N] [--seconds S] \
    [--trace 0|1 | --traced] [--smoke] [--strategy NAME] [--out DIR] [--sets N]\n       \
    pangea-benchmark --compare DIR_A DIR_B\n       pangea-benchmark --describe";

/// How long the job phase of one run measures, as in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 30;

struct Args {
    workload: Option<&'static spec::Workload>,
    traced: bool,
    sets: usize,
    compare: Option<(PathBuf, PathBuf)>,
    describe: bool,
    opts: Options,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        traced: false,
        sets: 1,
        compare: None,
        describe: false,
        opts: Options {
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            smoke: false,
            strategy: "data-aware".to_string(),
            out_dir: PathBuf::from("benchmark/out"),
        },
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    spec::workload(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => args.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.opts.smoke = true,
            "--strategy" => args.opts.strategy = value()?,
            "--out" => args.opts.out_dir = PathBuf::from(value()?),
            "--sets" => {
                args.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?;
                if !(1..=20).contains(&args.sets) {
                    return Err("--sets must be between 1 and 20".to_string());
                }
            }
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--describe" => args.describe = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// The content of `BENCHMARK.json`, from the catalog in `spec`.
fn describe() -> Value {
    let metric = |m: &spec::MetricDef| {
        let mut pairs = vec![
            ("name", Value::Str(m.name.clone())),
            ("unit", Value::Str(m.unit.to_string())),
            ("better", Value::Str(m.better.as_str().to_string())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Value::Num(bound)));
        }
        Value::obj(pairs)
    };
    let strs =
        |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str(s.to_string())).collect());
    Value::obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(spec::end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(spec::per_layer().iter().map(metric).collect()),
        ),
    ])
}

/// One run of one workload: printed, and written to the output
/// directory, which also holds the fleets' data while the run lasts.
fn run_one(w: &'static spec::Workload, traced: bool, opts: &Options) -> Result<Outcome, String> {
    let tmp = opts.out_dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let _awake = fleet::KeepAwake::start();
    let outcome = if traced {
        run::run_traced(w, opts)
    } else {
        run::run_end_to_end(w, opts)
    };
    run::print_human(&outcome);
    let file = opts.out_dir.join(format!(
        "{}.{}.seed{}.json",
        w.name,
        if traced { "traced" } else { "e2e" },
        opts.seed
    ));
    if let Err(e) = std::fs::write(&file, outcome.to_file(opts).to_line() + "\n") {
        eprintln!("cannot write {}: {e}", file.display());
    }
    let _ = std::fs::remove_dir(&tmp);
    Ok(outcome)
}

/// Every workload once; true when nothing failed. A failed workload
/// does not stop the ones after it.
fn run_suite(traced: bool, opts: &Options) -> Result<bool, String> {
    let mut ok = true;
    for w in &spec::WORKLOADS {
        ok &= run_one(w, traced, opts)?.correct();
    }
    Ok(ok)
}

/// The untraced suite `sets` times, each into a directory of its own,
/// then the first set against the last.
fn run_sets(sets: usize, opts: &Options) -> Result<bool, String> {
    let dirs: Vec<PathBuf> = (1..=sets)
        .map(|i| opts.out_dir.join(format!("set{i}")))
        .collect();
    let mut ok = true;
    for dir in &dirs {
        println!("#### {}", dir.display());
        let opts = Options {
            out_dir: dir.clone(),
            ..opts.clone()
        };
        ok &= run_suite(false, &opts)?;
    }
    Ok(compare::compare_dirs(&dirs[0], &dirs[dirs.len() - 1])? && ok)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--spin") {
        fleet::spin_until_stdin_closes();
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("pangea-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        println!("{}", describe().to_line());
        return ExitCode::SUCCESS;
    }
    let ok = if let Some((a, b)) = &args.compare {
        compare::compare_dirs(a, b)
    } else if let Some(w) = args.workload {
        // Driver mode: one workload, the result object as the last line.
        // Failures are in that line, which the caller reads.
        run_one(w, args.traced, &args.opts).map(|outcome| {
            println!("{}", outcome.result_line().to_line());
            true
        })
    } else if args.sets > 1 {
        run_sets(args.sets, &args.opts)
    } else {
        run_suite(args.traced, &args.opts)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pangea-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse("--workload shuffle-wide --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(a.workload.unwrap().name, "shuffle-wide");
        assert_eq!((a.opts.seed, a.opts.seconds, a.traced), (7, 15.0, true));
        assert!(!parse("--trace 0").unwrap().traced);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
        let c = parse("--compare a b").unwrap();
        assert_eq!(c.compare, Some((PathBuf::from("a"), PathBuf::from("b"))));
    }

    #[test]
    fn describe_carries_exactly_the_contract_keys() {
        let doc = describe();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(doc.to_line().len() < 64 * 1024);
    }
}
