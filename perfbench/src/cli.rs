//! Strict command-line parsing: every flag must be known, carry a
//! value, appear once and parse completely. Only `--trace` may be left
//! out (it then means 0); nothing else has a default.

use std::fmt;

/// The workloads; `BENCHMARK.json` lists the ones the benchmark gates
/// and why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BlockingSystem,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::BlockingSystem, Workload::ServeWarm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BlockingSystem => "blocking_system",
            Workload::ServeWarm => "serve_warm",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    UnknownFlag(String),
    MissingValue(&'static str),
    BadValue { flag: &'static str, value: String },
    Repeated(&'static str),
    MissingFlag(&'static str),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(s) => write!(f, "unknown argument '{s}'"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadValue { flag, value } => write!(f, "invalid value '{value}' for {flag}"),
            CliError::Repeated(flag) => write!(f, "{flag} given more than once"),
            CliError::MissingFlag(flag) => write!(f, "{flag} is required"),
        }
    }
}

pub const USAGE: &str = "usage: perfbench --workload <blocking_system|serve_warm> \
--seed <u64> --seconds <positive u64> [--trace <0|1>]";

const FLAGS: [&str; 4] = ["--workload", "--seed", "--seconds", "--trace"];

/// Parse the arguments after the program name. `--workload`, `--seed`
/// and `--seconds` are required; `--trace` is 0 when absent.
pub fn parse<I, S>(args: I) -> Result<Args, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut values: [Option<String>; 4] = Default::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_ref();
        let Some(slot) = FLAGS.iter().position(|f| *f == arg) else {
            return Err(CliError::UnknownFlag(arg.to_string()));
        };
        let flag = FLAGS[slot];
        let value = it.next().ok_or(CliError::MissingValue(flag))?;
        if values[slot].is_some() {
            return Err(CliError::Repeated(flag));
        }
        values[slot] = Some(value.as_ref().to_string());
    }
    let [workload, seed, seconds, trace] = values;
    let bad = |flag: &'static str, value: &str| CliError::BadValue {
        flag,
        value: value.to_string(),
    };
    let workload = workload.ok_or(CliError::MissingFlag("--workload"))?;
    let workload = Workload::parse(&workload).ok_or_else(|| bad("--workload", &workload))?;
    let seed = seed.ok_or(CliError::MissingFlag("--seed"))?;
    let seed = seed.parse::<u64>().map_err(|_| bad("--seed", &seed))?;
    let seconds = seconds.ok_or(CliError::MissingFlag("--seconds"))?;
    let seconds = seconds
        .parse::<u64>()
        .ok()
        .filter(|n| *n > 0)
        .ok_or_else(|| bad("--seconds", &seconds))?;
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(bad("--trace", other)),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_flag_set() {
        let args = parse([
            "--workload",
            "serve_warm",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::ServeWarm,
                seed: 7,
                seconds: 15,
                trace: true
            }
        );
    }

    #[test]
    fn an_absent_trace_flag_means_untraced() {
        let args = parse([
            "--seed",
            "1",
            "--workload",
            "blocking_system",
            "--seconds",
            "3",
        ])
        .unwrap();
        assert_eq!(args.seconds, 3);
        assert!(!args.trace);
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            let args = parse(["--workload", w.name(), "--seed", "0", "--seconds", "1"]).unwrap();
            assert_eq!(args.workload, w);
        }
    }

    #[test]
    fn rejects_unknown_flags_and_typos() {
        assert_eq!(
            parse([
                "--workload",
                "blocking_system",
                "--seed",
                "1",
                "--secs",
                "5"
            ]),
            Err(CliError::UnknownFlag("--secs".into()))
        );
        assert_eq!(
            parse(["blocking_system"]),
            Err(CliError::UnknownFlag("blocking_system".into()))
        );
    }

    #[test]
    fn rejects_unparsable_values() {
        let base = ["--workload", "blocking_system", "--seconds", "5", "--seed"];
        for (extra, flag) in [
            (vec!["x1"], "--seed"),
            (vec!["-1"], "--seed"),
            (vec!["1", "--trace", "yes"], "--trace"),
            (vec!["1", "--trace", "2"], "--trace"),
        ] {
            let argv: Vec<&str> = base.iter().copied().chain(extra).collect();
            match parse(argv) {
                Err(CliError::BadValue { flag: f, .. }) => assert_eq!(f, flag),
                other => panic!("expected a bad {flag} value, got {other:?}"),
            }
        }
        for seconds in ["0", "1.5", "-3", ""] {
            assert!(matches!(
                parse([
                    "--workload",
                    "blocking_system",
                    "--seed",
                    "1",
                    "--seconds",
                    seconds
                ]),
                Err(CliError::BadValue {
                    flag: "--seconds",
                    ..
                })
            ));
        }
        assert!(matches!(
            parse([
                "--workload",
                "blocking-system",
                "--seed",
                "1",
                "--seconds",
                "5"
            ]),
            Err(CliError::BadValue {
                flag: "--workload",
                ..
            })
        ));
    }

    #[test]
    fn rejects_missing_repeated_and_valueless_flags() {
        assert_eq!(
            parse(["--seed", "1", "--seconds", "5"]),
            Err(CliError::MissingFlag("--workload"))
        );
        assert_eq!(
            parse(["--workload", "blocking_system", "--seconds", "5"]),
            Err(CliError::MissingFlag("--seed"))
        );
        assert_eq!(
            parse(["--workload", "blocking_system", "--seed", "1"]),
            Err(CliError::MissingFlag("--seconds"))
        );
        assert_eq!(
            parse(["--workload", "blocking_system", "--seed"]),
            Err(CliError::MissingValue("--seed"))
        );
        assert_eq!(
            parse([
                "--seed",
                "1",
                "--seed",
                "2",
                "--workload",
                "blocking_system"
            ]),
            Err(CliError::Repeated("--seed"))
        );
    }
}
