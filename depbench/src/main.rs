//! The depchaos benchmark: host time of the engine on four real workload
//! streams, end to end with tracing off, and per layer in a separate
//! traced run. See `README.md` for the workloads and the metrics.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path depbench/Cargo.toml -- \
//!     --workload stochastic_sweep --seed 0 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits 0
//! when every output check passed and 1 when a check or an operation
//! failed, a failed set-up included. It exits 2, without a result line,
//! only on a usage error.

mod check;
mod inputs;
mod metrics;
mod mirror;
mod run;
mod trace;

use inputs::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, inputs::DEFAULT_SEED, 25, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => match value.parse() {
                Ok(s) if (1..=600).contains(&s) => seconds = s,
                _ => return Err(format!("--seconds must be 1..=600, got {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or(format!("--workload is required ({})", names.join(", ")))?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("depbench: {e}");
            eprintln!("usage: depbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let out = run::run(args.workload, args.seed, args.seconds, args.trace);
    for line in &out.notes {
        println!("{line}");
    }
    println!("{}", out.json());
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let a = args("--workload whatif_stream --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::WhatifStream, 7, 3, true));
        for bad in [
            "",
            "--workload nope",
            "--workload whatif_stream --trace 2",
            "--workload whatif_stream --seconds 0",
            "--workload whatif_stream --seed",
            "--workload whatif_stream --frobnicate 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
