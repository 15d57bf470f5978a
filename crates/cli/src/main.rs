//! `sdnprobe` — command-line interface to the SDNProbe reproduction.
//!
//! ```text
//! sdnprobe synth   --switches 20 --links 36 --flows 40 --seed 7 -o scenario.json
//! sdnprobe synth   --campus -o campus.json
//! sdnprobe plan    scenario.json [--verbose] [--threads N]
//! sdnprobe diagnose scenario.json
//! sdnprobe detect  scenario.json [--randomized --rounds 20] [--seed 7] [--threads N]
//! sdnprobe monitor scenario.json [--rounds 50] [--seed 7] [--threads N]
//! sdnprobe trace   scenario.json --at 0 --header 00000000...
//! ```
//!
//! Scenarios are JSON documents (see `spec` module): topology, flow
//! rules, and optional injected faults. `synth` generates them from the
//! evaluation workload generator; the other commands consume them.
//!
//! `--threads N` caps the worker threads used by the parallel pipeline
//! stages (path expansion, witness solving, probe sends). The default is
//! every available core; `--threads 1` forces the sequential path.
//! Results are identical at any setting.
//!
//! `detect` and `monitor` also accept the error-prone-environment
//! flags: `--loss-rate P` (benign per-link packet loss),
//! `--ctrl-loss-rate P` (packet-in loss), `--flowmod-failure-rate P`
//! (transient flow-mod failures), `--chaos-seed N` (deterministic
//! impairment stream), and `--confirm-retries N` (re-sends that
//! distinguish benign loss from real faults before raising suspicion).
//! The same chaos seed replays the same losses at any `--threads`.
//!
//! Each command takes only its own flags. An unknown flag, a stray
//! argument, a flag given without a value, a value that does not parse,
//! or a rate outside `[0, 1]` is a usage error (exit code 2), never a
//! silent default. Output piped into a reader that stops early (`| head`)
//! ends quietly with exit code 0.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod commands;
mod spec;

use std::io::{self, Write};
use std::process::ExitCode;
use std::str::FromStr;

use spec::ScenarioSpec;

/// Why a command did not produce output.
#[derive(Debug, PartialEq)]
enum Failure {
    /// Bad command line: print the message (if any) and the usage text,
    /// exit 2.
    Usage(Option<String>),
    /// The command ran and failed: print the message, exit 1.
    Run(String),
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sdnprobe synth [--switches N] [--links N] [--flows N] [--faults N] [--seed N] [-o FILE]\n  sdnprobe synth --campus [--seed N] [-o FILE]\n  sdnprobe plan FILE [--verbose] [--threads N]\n  sdnprobe diagnose FILE\n  sdnprobe detect FILE [--randomized] [--rounds N] [--seed N] [--threads N] [chaos flags]\n  sdnprobe trace FILE --at SWITCH --header BITS\n  sdnprobe monitor FILE [--rounds N] [--seed N] [--threads N] [chaos flags]\n\nchaos flags (error-prone environment):\n  --loss-rate P --ctrl-loss-rate P --flowmod-failure-rate P\n  --chaos-seed N --confirm-retries N"
    );
    ExitCode::from(2)
}

/// The flags of the error-prone environment, shared by `detect` and
/// `monitor`.
const CHAOS_FLAGS: [&str; 5] = [
    "--loss-rate P",
    "--ctrl-loss-rate P",
    "--flowmod-failure-rate P",
    "--chaos-seed N",
    "--confirm-retries N",
];

/// Checks a command's arguments: after the command word come
/// `positional` arguments (the scenario file), then only the flags in
/// `flags`, each written as in the usage text: `"--threads N"` takes a
/// value, `"--verbose"` does not. Anything else, and a flag given
/// twice (only its first value would count), is a usage error.
fn check_flags(args: &[String], positional: usize, flags: &[&str]) -> Result<(), Failure> {
    let mut rest = args.iter().skip(1 + positional);
    let mut seen = Vec::new();
    while let Some(a) = rest.next() {
        let spec = flags
            .iter()
            .find(|f| f.split(' ').next() == Some(a.as_str()))
            .ok_or_else(|| Failure::Usage(Some(format!("unknown argument {a:?}"))))?;
        if seen.contains(spec) {
            return Err(Failure::Usage(Some(format!("{a} given twice"))));
        }
        seen.push(spec);
        if spec.contains(' ') && rest.next().is_none() {
            return Err(Failure::Usage(Some(format!("{a} needs a value"))));
        }
    }
    Ok(())
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The parsed value after `name`; `None` when the flag is absent. A
/// missing or unparsable value is a usage error.
fn value<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, Failure> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let Some(raw) = args.get(pos + 1) else {
        return Err(Failure::Usage(Some(format!("{name} needs a value"))));
    };
    raw.parse()
        .map(Some)
        .map_err(|_| Failure::Usage(Some(format!("{name}: cannot parse {raw:?}"))))
}

/// A probability flag: defaults to 0, and must lie in `[0, 1]` (NaN
/// included in the rejects).
fn rate(args: &[String], name: &str) -> Result<f64, Failure> {
    let r = value(args, name)?.unwrap_or(0.0);
    if (0.0..=1.0).contains(&r) {
        Ok(r)
    } else {
        Err(Failure::Usage(Some(format!(
            "{name} must be in [0, 1], got {r}"
        ))))
    }
}

fn chaos_opts(args: &[String]) -> Result<commands::ChaosOpts, Failure> {
    Ok(commands::ChaosOpts {
        loss_rate: rate(args, "--loss-rate")?,
        ctrl_loss_rate: rate(args, "--ctrl-loss-rate")?,
        flowmod_failure_rate: rate(args, "--flowmod-failure-rate")?,
        chaos_seed: value(args, "--chaos-seed")?.unwrap_or(0),
        confirm_retries: value(args, "--confirm-retries")?.unwrap_or(0),
    })
}

fn load(path: &str) -> Result<ScenarioSpec, Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| Failure::Run(format!("{path}: {e}")))?;
    ScenarioSpec::from_json(&text).map_err(|e| Failure::Run(e.to_string()))
}

/// The scenario file argument of a command.
fn scenario(args: &[String]) -> Result<ScenarioSpec, Failure> {
    load(args.get(1).ok_or(Failure::Usage(None))?)
}

fn run_failed(e: impl std::fmt::Display) -> Failure {
    Failure::Run(e.to_string())
}

fn run(args: &[String]) -> Result<Vec<String>, Failure> {
    let command = args.first().ok_or(Failure::Usage(None))?;
    let with_chaos = |own: &[&'static str]| [own, &CHAOS_FLAGS[..]].concat();
    match command.as_str() {
        "synth" => {
            // The campus backbone has a fixed shape.
            let campus = flag(args, "--campus");
            let shape: &[&str] = if campus {
                &["--campus"]
            } else {
                &["--switches N", "--links N", "--flows N", "--faults N"]
            };
            check_flags(
                args,
                0,
                &[shape, &["--seed N", "-o FILE", "--out FILE"]].concat(),
            )?;
            let out = match (value::<String>(args, "-o")?, value(args, "--out")?) {
                (Some(_), Some(_)) => {
                    return Err(Failure::Usage(Some(
                        "-o and --out name one file".to_string(),
                    )))
                }
                (o, out) => o.or(out),
            };
            let spec = if campus {
                commands::synth_campus(value(args, "--seed")?.unwrap_or(2018))
            } else {
                commands::synth(
                    value(args, "--switches")?.unwrap_or(20),
                    value(args, "--links")?.unwrap_or(36),
                    value(args, "--flows")?.unwrap_or(40),
                    value(args, "--faults")?.unwrap_or(0),
                    value(args, "--seed")?.unwrap_or(7),
                )
            };
            match out {
                Some(path) => std::fs::write(&path, spec.to_json())
                    .map(|()| vec![format!("wrote {} rules to {path}", spec.rules.len())])
                    .map_err(|e| Failure::Run(format!("{path}: {e}"))),
                None => Ok(vec![spec.to_json()]),
            }
        }
        "plan" => {
            check_flags(args, 1, &["--verbose", "--threads N"])?;
            let threads = value(args, "--threads")?;
            commands::plan(&scenario(args)?, flag(args, "--verbose"), threads).map_err(run_failed)
        }
        "diagnose" => {
            check_flags(args, 1, &[])?;
            commands::diagnose(&scenario(args)?).map_err(run_failed)
        }
        "monitor" => {
            check_flags(
                args,
                1,
                &with_chaos(&["--rounds N", "--seed N", "--threads N"]),
            )?;
            let (rounds, seed) = (value(args, "--rounds")?, value(args, "--seed")?);
            let (threads, chaos) = (value(args, "--threads")?, chaos_opts(args)?);
            commands::monitor(
                &scenario(args)?,
                rounds.unwrap_or(20),
                seed.unwrap_or(7),
                threads,
                chaos,
            )
            .map_err(run_failed)
        }
        "trace" => {
            check_flags(args, 1, &["--at SWITCH", "--header BITS"])?;
            let at = value(args, "--at")?.unwrap_or(0usize);
            let header: String = value(args, "--header")?
                .ok_or_else(|| Failure::Usage(Some("trace needs --header BITS".to_string())))?;
            commands::trace(&scenario(args)?, at, &header).map_err(run_failed)
        }
        "detect" => {
            let own = ["--randomized", "--rounds N", "--seed N", "--threads N"];
            check_flags(args, 1, &with_chaos(&own))?;
            let (rounds, seed) = (value(args, "--rounds")?, value(args, "--seed")?);
            let (threads, chaos) = (value(args, "--threads")?, chaos_opts(args)?);
            commands::detect(
                &scenario(args)?,
                flag(args, "--randomized"),
                rounds.unwrap_or(10),
                seed.unwrap_or(7),
                threads,
                chaos,
            )
            .map_err(run_failed)
        }
        _ => Err(Failure::Usage(None)),
    }
}

/// Writes the output lines. A reader that closes the pipe before the
/// end (`| head`) has all it asked for, so that ends the output quietly.
fn write_lines(out: &mut impl Write, lines: &[String]) -> io::Result<()> {
    let written = lines
        .iter()
        .try_for_each(|line| writeln!(out, "{line}"))
        .and_then(|()| out.flush());
    match written {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(lines) => match write_lines(&mut io::stdout().lock(), &lines) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: writing output: {e}");
                ExitCode::FAILURE
            }
        },
        Err(Failure::Usage(message)) => {
            if let Some(m) = message {
                eprintln!("error: {m}");
            }
            usage()
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn value_parses_present_flags_and_skips_absent_ones() {
        let a = args("detect s.json --threads 4 --seed 9");
        assert_eq!(value::<usize>(&a, "--threads"), Ok(Some(4)));
        assert_eq!(value::<u64>(&a, "--seed"), Ok(Some(9)));
        assert_eq!(value::<usize>(&a, "--rounds"), Ok(None));
    }

    #[test]
    fn value_rejects_unparsable_and_missing_values() {
        let a = args("detect s.json --threads abc");
        assert!(matches!(
            value::<usize>(&a, "--threads"),
            Err(Failure::Usage(Some(_)))
        ));
        let a = args("detect s.json --rounds -3");
        assert!(matches!(
            value::<usize>(&a, "--rounds"),
            Err(Failure::Usage(Some(_)))
        ));
        let a = args("detect s.json --threads");
        assert!(matches!(
            value::<usize>(&a, "--threads"),
            Err(Failure::Usage(Some(_)))
        ));
    }

    #[test]
    fn rate_accepts_the_unit_interval_only() {
        assert_eq!(rate(&args("detect s.json"), "--loss-rate"), Ok(0.0));
        assert_eq!(rate(&args("x --loss-rate 0"), "--loss-rate"), Ok(0.0));
        assert_eq!(rate(&args("x --loss-rate 0.25"), "--loss-rate"), Ok(0.25));
        assert_eq!(rate(&args("x --loss-rate 1"), "--loss-rate"), Ok(1.0));
        for bad in ["1.5", "-0.1", "nan", "NaN", "inf", "x"] {
            let a = args(&format!("x --loss-rate {bad}"));
            assert!(
                matches!(rate(&a, "--loss-rate"), Err(Failure::Usage(Some(_)))),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn bad_flags_fail_before_the_scenario_is_read() {
        for line in [
            "detect missing.json --loss-rate 1.5",
            "detect missing.json --threads abc",
            "monitor missing.json --ctrl-loss-rate nan",
            "plan missing.json --threads",
            // Misspelled, foreign and stray arguments.
            "plan missing.json --thread 1",
            "detect missing.json --loss-rat 0.5",
            "plan missing.json --bogus",
            "diagnose missing.json --verbose",
            "plan missing.json extra.json",
            "synth --campus stray",
            "trace missing.json --at 0 --header 0010 --verbose",
            "monitor missing.json --randomized",
            "detect missing.json --rounds 3 --randomized --rounds 1",
            "synth -o a.json --out b.json",
            "synth --campus --switches 5",
            // `trace` has nothing to inject without a header.
            "trace missing.json --at 0",
        ] {
            assert!(
                matches!(run(&args(line)), Err(Failure::Usage(Some(_)))),
                "{line}"
            );
        }
        assert!(matches!(
            run(&args("detect missing.json")),
            Err(Failure::Run(_))
        ));
        assert!(matches!(
            run(&args(
                "detect missing.json --randomized --rounds 3 --chaos-seed 4"
            )),
            Err(Failure::Run(_))
        ));
        assert!(matches!(
            run(&args("trace missing.json --at 0 --header 0010")),
            Err(Failure::Run(_))
        ));
        assert_eq!(run(&args("")), Err(Failure::Usage(None)));
        assert_eq!(run(&args("bogus")), Err(Failure::Usage(None)));
        assert_eq!(run(&args("plan")), Err(Failure::Usage(None)));
    }

    /// A writer that takes `room` bytes, then fails with `kind`.
    struct Closing {
        room: usize,
        kind: io::ErrorKind,
    }

    impl Write for Closing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::Error::from(self.kind));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_ends_the_output_quietly() {
        let lines: Vec<String> = (0..100).map(|i| format!("probe {i}")).collect();
        let mut buf = Vec::new();
        write_lines(&mut buf, &lines).unwrap();
        assert_eq!(buf, format!("{}\n", lines.join("\n")).into_bytes());

        for room in [0, 5, 40] {
            let mut pipe = Closing {
                room,
                kind: io::ErrorKind::BrokenPipe,
            };
            assert!(write_lines(&mut pipe, &lines).is_ok(), "room {room}");
            let mut disk = Closing {
                room,
                kind: io::ErrorKind::StorageFull,
            };
            let err = write_lines(&mut disk, &lines).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "room {room}");
        }
    }
}
