//! End-to-end and per-layer benchmark of the spamward workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mail_day --seed 1 --seconds 12 --trace 0
//! ```
//!
//! One run builds the workload's inputs from `--seed`, makes one checked
//! warm-up pass, then repeats timed passes of identical work until
//! `--seconds` have elapsed (see README.md for the statistics reported).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes and prints the per-layer metrics. The last
//! stdout line is one JSON object; everything before it is a
//! human-readable report.

mod harness;
mod layers;
mod mail_day;
mod paper_repro;
mod scan_survey;
mod spam_run;
mod stats;
mod trace;

use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <mail_day|spam_run|scan_survey|paper_repro> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match opts.workload.as_str() {
        "mail_day" => harness::execute(&mail_day::MailDay::new(opts.seed), &opts),
        "spam_run" => harness::execute(&spam_run::SpamRun::new(opts.seed), &opts),
        "scan_survey" => harness::execute(&scan_survey::ScanSurvey::new(opts.seed), &opts),
        "paper_repro" => match paper_repro::PaperRepro::new(opts.seed) {
            Ok(w) => harness::execute(&w, &opts),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        },
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.trace {
        if let Err(e) = harness::write_spans(&opts, &report) {
            eprintln!("error: cannot write the span file: {e}");
            return ExitCode::from(1);
        }
    }
    print!("{}", report.render(&opts));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    /// (name, unit) of every metric in one section of BENCHMARK.json.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let start = text.find(&format!("\"{section}\"")).expect("section is present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |entry: &str, key: &str| {
            let from =
                entry.find(&format!("\"{key}\": \"")).expect("field is present") + key.len() + 5;
            entry[from..].split('"').next().unwrap_or_default().to_owned()
        };
        body.split("{\"name\"")
            .skip(1)
            .map(|e| {
                let e = format!("{{\"name\"{e}");
                (field(&e, "name"), field(&e, "unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
        };
        assert_eq!(listed("end_to_end"), owned(&harness::END_TO_END));
        assert_eq!(listed("per_layer"), owned(layers::LAYER_METRICS));
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse_args(&args("--workload spam_run --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(o, Opts { workload: "spam_run".into(), seed: 7, seconds: 12.0, trace: true });
        assert!(parse_args(&args("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds 3 --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1 --seconds 3")).is_err());
        assert!(parse_args(&args("--workload x --seed")).is_err());
    }
}
