//! Shared infrastructure for the SDNProbe experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index): it prints the same
//! rows/series the paper reports, plus a `paper-vs-measured` summary,
//! and optionally dumps machine-readable JSON under `results/`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::path::Path;

use sdnprobe::Parallelism;
use sdnprobe_workloads::json::Value;

/// A printable, JSON-exportable result table.
#[derive(Debug, Clone)]
pub struct ResultTable {
    /// Table title (e.g. `Figure 8(a)`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header count.
    pub fn push<D: Display>(&mut self, row: &[D]) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row.iter().map(|c| c.to_string()).collect());
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.headers);
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        for row in &self.rows {
            line(row);
        }
    }

    /// Writes the table as JSON under `results/<name>.json` (best
    /// effort: failures are reported but not fatal).
    pub fn save(&self, name: &str) {
        let dir = Path::new("results");
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let path = dir.join(format!("{name}.json"));
        let strings =
            |cells: &[String]| Value::Array(cells.iter().map(|c| c.as_str().into()).collect());
        let json = Value::object([
            ("title", self.title.as_str().into()),
            ("headers", strings(&self.headers)),
            (
                "rows",
                Value::Array(self.rows.iter().map(|r| strings(r)).collect()),
            ),
        ])
        .to_pretty();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("  [saved {}]", path.display());
        }
    }
}

/// Checks the command line against the flags a binary accepts, each
/// written as in its usage line: `"--runs N"` for a flag that takes a
/// value, `"--full"` for one that does not. Call it first in `main`:
/// `--help` prints the usage line and exits 0, and an undeclared flag or
/// a stray argument is a usage error, exit 2. Either way nothing runs
/// and nothing is written.
pub fn declare_flags(bin: &str, flags: &[&str]) {
    let args: Vec<String> = std::env::args().collect();
    let usage = format!(
        "Usage: {bin} {}",
        flags
            .iter()
            .map(|f| format!("[{f}]"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    match check_flags(&args, flags) {
        Ok(false) => {}
        Ok(true) => {
            println!("{usage}");
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            std::process::exit(2)
        }
    }
}

/// [`declare_flags`] over an explicit argument list (program name
/// first): `Ok(true)` when `--help` is asked for, `Err` for an argument
/// the binary does not accept.
fn check_flags(args: &[String], flags: &[&str]) -> Result<bool, String> {
    let mut rest = args.iter().skip(1);
    while let Some(a) = rest.next() {
        if a == "--help" {
            return Ok(true);
        }
        let spec = flags
            .iter()
            .find(|f| f.split(' ').next() == Some(a.as_str()))
            .ok_or_else(|| format!("unknown argument {a:?}"))?;
        if spec.contains(' ') && rest.next().is_none() {
            return Err(format!("{a} needs a value"));
        }
    }
    Ok(false)
}

/// True if `--flag` appears on the command line.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

/// The value after `--name` on the command line, parsed; `None` when
/// the flag is absent. A missing or unparsable value is a usage error:
/// the binary exits with code 2 instead of falling back to a default.
pub fn arg<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// [`arg`] over an explicit argument list, reporting bad values as
/// `Err` instead of exiting.
pub fn parse_arg<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let flag = format!("--{name}");
    let Some(pos) = args.iter().position(|a| *a == flag) else {
        return Ok(None);
    };
    let raw = args
        .get(pos + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

/// The `--threads N` cap shared by every experiment binary: `None`
/// (flag absent) means all available cores.
pub fn parallelism() -> Parallelism {
    Parallelism {
        threads: arg("threads"),
    }
}

/// Nanoseconds → seconds for display.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Prints the paper-vs-measured comparison block.
pub fn summary(lines: &[(&str, String)]) {
    println!("\n-- paper vs measured --");
    for (k, v) in lines {
        println!("  {k}: {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trip() {
        let mut t = ResultTable::new("test", &["a", "b"]);
        t.push(&[1, 2]);
        t.push(&[30, 40]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1][1], "40");
        t.print();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut t = ResultTable::new("test", &["a", "b"]);
        t.push(&[1]);
    }

    #[test]
    fn parse_arg_is_strict() {
        let args: Vec<String> = ["bin", "--runs", "5", "--scale", "x", "--threads"]
            .map(String::from)
            .to_vec();
        assert_eq!(parse_arg::<usize>(&args, "runs"), Ok(Some(5)));
        assert_eq!(parse_arg::<usize>(&args, "rounds"), Ok(None));
        assert!(parse_arg::<f64>(&args, "scale").is_err());
        assert!(parse_arg::<usize>(&args, "threads").is_err());
    }

    #[test]
    fn undeclared_flags_are_rejected() {
        let flags = ["--scale F", "--full", "--threads N"];
        let check = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            check_flags(&args, &flags)
        };
        assert_eq!(check(&["bin"]), Ok(false));
        assert_eq!(check(&["bin", "--scale", "0.2", "--full"]), Ok(false));
        assert_eq!(check(&["bin", "--threads", "2", "--help"]), Ok(true));
        assert!(check(&["bin", "--bogus-flag"]).is_err());
        assert!(check(&["bin", "--full", "0.2"]).is_err());
        assert!(check(&["bin", "--scale"]).is_err());
        assert!(check(&["bin", "--runs", "5"]).is_err());
    }

    #[test]
    fn helpers() {
        assert_eq!(secs(1_500_000_000), 1.5);
        assert_eq!(f3(1.23456), "1.235");
    }
}
