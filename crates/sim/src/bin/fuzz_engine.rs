//! Seeded interleaving fuzzer for the protocol engine.
//!
//! Runs `--seeds` fuzz cases per protocol (plus a cross-protocol differential sweep) and
//! exits non-zero on the first failure, printing a minimal, paste-ready regression test
//! that reproduces it from the seed alone.
//!
//! ```text
//! fuzz_engine [--seeds N] [--start-seed S] [--steps K] [--protocol pocc|cure|ha|adaptive|all]
//!             [--no-chaos] [--no-cross] [--quiet]
//! ```

use pocc_sim::fuzz::{check_case, cross_protocol_check, FuzzCase};
use pocc_sim::ProtocolKind;
use std::process::ExitCode;

struct Args {
    seeds: u64,
    start_seed: u64,
    steps: usize,
    protocols: Vec<ProtocolKind>,
    chaos: bool,
    cross: bool,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz_engine [--seeds N] [--start-seed S] [--steps K] \
         [--protocol pocc|cure|ha|adaptive|all] [--no-chaos] [--no-cross] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 100,
        start_seed: 0,
        steps: FuzzCase::default().steps,
        protocols: ProtocolKind::ALL.to_vec(),
        chaos: true,
        cross: true,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--seeds" => {
                args.seeds = value("--seeds").parse().unwrap_or_else(|_| usage());
            }
            "--start-seed" => {
                args.start_seed = value("--start-seed").parse().unwrap_or_else(|_| usage());
            }
            "--steps" => {
                args.steps = value("--steps").parse().unwrap_or_else(|_| usage());
            }
            "--protocol" => {
                args.protocols = match value("--protocol").as_str() {
                    "all" => ProtocolKind::ALL.to_vec(),
                    name => vec![name.parse().unwrap_or_else(|err| {
                        eprintln!("{err}");
                        usage()
                    })],
                };
            }
            "--no-chaos" => args.chaos = false,
            "--no-cross" => args.cross = false,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut cases = 0u64;
    let mut ops = 0u64;

    for protocol in &args.protocols {
        for seed in args.start_seed..args.start_seed + args.seeds {
            let case = FuzzCase {
                protocol: *protocol,
                seed,
                steps: args.steps,
                chaos: args.chaos,
                ..FuzzCase::default()
            };
            match check_case(&case) {
                Ok(outcome) => {
                    cases += 1;
                    ops += outcome.ops_completed;
                }
                Err(failure) => {
                    eprintln!("{failure}");
                    return ExitCode::FAILURE;
                }
            }
            if !args.quiet && (seed - args.start_seed + 1).is_multiple_of(500) {
                println!(
                    "[{protocol}] {}/{} seeds clean",
                    seed - args.start_seed + 1,
                    args.seeds
                );
            }
        }
        if !args.quiet {
            println!("[{protocol}] {} seeds clean", args.seeds);
        }
    }

    if args.cross {
        for seed in args.start_seed..args.start_seed + args.seeds {
            if let Err(divergence) = cross_protocol_check(seed, 150) {
                eprintln!("cross-protocol divergence: {divergence}");
                return ExitCode::FAILURE;
            }
        }
        if !args.quiet {
            println!("[cross-protocol] {} seeds equal", args.seeds);
        }
    }

    println!(
        "fuzz_engine: {} cases clean ({} client operations exercised)",
        cases, ops
    );
    ExitCode::SUCCESS
}
