//! The command line shared by the table and figure binaries.
//!
//! Each binary declares its optional positionals, in order, and whether
//! it takes `--json` (accepted anywhere on the line). Anything else — an
//! unknown flag, one positional too many, a value that does not parse or
//! is out of range — prints the usage line and exits with status 2: a
//! typo never runs silently with the defaults, and never panics.

use std::str::FromStr;

/// One binary's parsed command line; read the positionals in declaration
/// order with [`Cli::next`], [`Cli::workers`] and [`Cli::count`].
pub struct Cli {
    usage: String,
    json: bool,
    names: &'static [&'static str],
    given: Vec<String>,
    taken: usize,
}

impl Cli {
    /// Parses the process arguments of binary `bin`, which takes up to
    /// `names.len()` positionals (named for the usage line) and, if
    /// `json_flag`, the `--json` flag.
    pub fn parse(bin: &str, names: &'static [&'static str], json_flag: bool) -> Cli {
        let mut usage = format!("usage: {bin}");
        if json_flag {
            usage.push_str(" [--json]");
        }
        for name in names {
            usage.push_str(&format!(" [{name}]"));
        }
        let mut json = false;
        let mut given = Vec::new();
        for arg in std::env::args().skip(1) {
            if json_flag && arg == "--json" {
                json = true;
            } else if arg.starts_with('-') {
                fail(&usage, &format!("unknown flag {arg:?}"));
            } else if given.len() == names.len() {
                fail(&usage, &format!("unexpected argument {arg:?}"));
            } else {
                given.push(arg);
            }
        }
        Cli {
            usage,
            json,
            names,
            given,
            taken: 0,
        }
    }

    /// Whether `--json` was given.
    pub fn json(&self) -> bool {
        self.json
    }

    /// The next positional parsed as `T`, or `default` if it was not
    /// given.
    pub fn next<T: FromStr>(&mut self, default: T) -> T {
        let i = self.taken;
        self.taken += 1;
        match self.given.get(i) {
            None => default,
            Some(s) => s.parse().unwrap_or_else(|_| {
                fail(
                    &self.usage,
                    &format!("cannot parse {} {s:?}", self.names[i]),
                )
            }),
        }
    }

    /// The next positional as a workload worker count (default 4),
    /// refused below 2 like [`require_workers`].
    pub fn workers(&mut self) -> usize {
        let workers = self.next(4);
        require_workers(workers);
        workers
    }

    /// The next positional as a count of runs or seeds, or `default`;
    /// refused at 0, which would average over nothing.
    pub fn count(&mut self, default: u64) -> u64 {
        let n = self.next(default);
        if n == 0 {
            let name = self.names[self.taken - 1];
            fail(&self.usage, &format!("{name} must be at least 1"));
        }
        n
    }
}

/// Exits with status 2 unless `workers` is at least 2: every bundled
/// workload needs concurrent workers to have anything to detect.
pub fn require_workers(workers: usize) {
    if workers < 2 {
        eprintln!("workers must be at least 2 (the workloads need concurrency), got {workers}");
        std::process::exit(2);
    }
}

fn fail(usage: &str, msg: &str) -> ! {
    eprintln!("{msg}\n{usage}");
    std::process::exit(2);
}
