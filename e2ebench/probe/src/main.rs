//! `e2eprobe` — the in-process half of the end-to-end benchmark.
//!
//! The benchmark command (`e2ebench/run.py`) measures the release
//! `ethainter` binary from outside. This tool does the work that has to
//! link the repository's crates:
//!
//! - `gen` turns a seed into the benchmark's inputs: realistic-scale
//!   contracts from `corpus::stream`, stratified by bytecode size so
//!   every seed gets the same size mix, written as hex files plus their
//!   ground-truth labels.
//! - `reference` computes the verdict each end-to-end op must reproduce:
//!   `driver::analyze_one(..).verdict_only()`, with witnesses on so the
//!   finding classes are known for the ground-truth check.
//! - `trace` replays the ops of an end-to-end run in process, timing the
//!   call into each layer's public functions once per op.

mod inputs;
mod reference;
mod trace;

use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = Flags::parse(rest).and_then(|flags| match cmd.as_str() {
        "gen" => inputs::cmd_gen(&flags),
        "reference" => reference::cmd_reference(&flags),
        "trace" => trace::cmd_trace(&flags),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2eprobe: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
USAGE:
    e2eprobe gen --seed s --count n --out dir
    e2eprobe reference --inputs dir --names file --jobs j --out file
                       [--fill-cache dir]
    e2eprobe trace --inputs dir --ops file --jobs j --miss-cache dir
                   [--hit-cache dir] --out file";

/// `--name value` pairs; every flag takes exactly one value.
pub struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{a}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    /// The value of `--name`, which must be present.
    pub fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// The value of `--name`, if given.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// `--name` parsed as a number, or `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name} `{v}`")),
        }
    }
}

/// Runs `work(i)` for `i in 0..n` on `jobs` scoped threads, returning
/// the results in index order.
pub fn parallel_map<R: Send>(n: usize, jobs: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs.clamp(1, n.max(1)) {
            s.spawn(|| loop {
                // Relaxed: the counter only hands out indices; results
                // are published through the mutex.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = work(i);
                results
                    .lock()
                    .expect("a worker panicked while holding the results")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("a worker panicked while holding the results")
        .into_iter()
        .map(|r| r.expect("every index was processed"))
        .collect()
}

/// Writes `lines` (one JSON document each) to `path`.
pub fn write_lines(path: &str, lines: &[String]) -> Result<(), String> {
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
