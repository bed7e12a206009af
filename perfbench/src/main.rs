//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--record-reference]`: runs one benchmark workload and prints its
//! metrics, the last line being the JSON result.

use std::path::PathBuf;
use std::process::ExitCode;
use ziv_perfbench::bench::{self, Expect, Options};
use ziv_perfbench::check;
use ziv_perfbench::grid::{Size, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <llc-bound|private-bound|sweep> \
[--seed N] [--seconds S] [--trace 0|1] [--record-reference]";

struct Args {
    opts: Options,
    record: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut record = false;
    while let Some(flag) = it.next() {
        if flag == "--record-reference" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = parse_u64(&value).ok_or_else(|| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if record && seed != DEFAULT_SEED {
        return Err("--record-reference records the default seed only".into());
    }
    Ok(Args {
        opts: Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            size: Size::Full,
            work_dir: PathBuf::from(".perfbench"),
        },
        record,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = &args.opts;
    let name = opts.workload.name();
    let expect = if args.record || opts.seed != DEFAULT_SEED {
        Expect::FirstPass
    } else {
        match check::load_reference(check::REFERENCE_JSON, name) {
            Ok(d) => Expect::Reference(d),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    };
    println!(
        "perfbench {name}: seed {:#x}, {} s, {} run, threads available {}",
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let outcome = match bench::run(opts, &expect) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    if matches!(expect, Expect::FirstPass) {
        // Not compared (no reference for these inputs), but printed so
        // two runs can be diffed.
        for (cell, d) in &outcome.digests {
            eprintln!("digest {cell} {d:016x}");
        }
    }
    if args.record && outcome.report.failed > 0 {
        eprintln!("perfbench: not recording a reference from a run with failed cells");
        return ExitCode::from(1);
    }
    if args.record {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");
        let stored = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|old| check::store_reference(&old, name, &outcome.digests))
            .and_then(|text| std::fs::write(path, text).map_err(|e| e.to_string()));
        if let Err(e) = stored {
            eprintln!("perfbench: record reference: {e}");
            return ExitCode::from(1);
        }
        println!(
            "  note: recorded {} digests for {name}",
            outcome.digests.len()
        );
    }
    for line in outcome.report.lines() {
        println!("{line}");
    }
    println!("{}", outcome.report.to_json());
    ExitCode::SUCCESS
}
