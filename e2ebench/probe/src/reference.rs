//! Reference verdicts for the end-to-end ops.
//!
//! The reference is what the library itself says about a contract:
//! `driver::analyze_one(..).verdict_only()` — the exact projection
//! `merged.jsonl` and the result cache store. Witnesses are switched on
//! so the reference also names each finding's class (one witness per
//! finding), which is what the ground-truth rule needs; `verdict_only`
//! strips them again, and witness on/off verdicts are identical.
//!
//! With `--fill-cache dir` the same results are also inserted into a
//! result cache through `store::SharedCache::insert` — the call the
//! daemon makes after a fresh analysis — so a workload that needs a
//! filled cache and references pays for one analysis per contract.

use crate::inputs::{load_bytecode, read_names};
use crate::{parallel_map, write_lines, Flags};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;
use store::SharedCache;

/// One line of the reference file.
#[derive(Serialize)]
struct ReferenceRecord {
    name: String,
    /// `Status::verdict_only()` of the in-process analysis.
    verdict: driver::Status,
    /// The class of each finding, from its witness.
    classes: Vec<ethainter::Vuln>,
    /// Findings without a witness (0 unless witnesses are broken).
    unexplained: usize,
}

/// The finding classes a status's witnesses name, and how many findings
/// have no witness.
pub fn classes_of(status: &driver::Status) -> (Vec<ethainter::Vuln>, usize) {
    match status {
        driver::Status::Analyzed {
            findings, witness, ..
        } => {
            let classes: Vec<ethainter::Vuln> = witness.iter().flatten().map(|w| w.vuln).collect();
            let unexplained = findings.saturating_sub(classes.len());
            (classes, unexplained)
        }
        _ => (Vec::new(), 0),
    }
}

/// `reference --inputs dir --names file --jobs j --out file
/// [--fill-cache dir]`.
pub fn cmd_reference(flags: &Flags) -> Result<(), String> {
    let inputs = Path::new(flags.get("inputs")?);
    let names = read_names(flags.get("names")?)?;
    let jobs: usize = flags.num("jobs", 1)?;
    let cache = flags.opt("fill-cache").map(SharedCache::open).transpose()?;
    let config = ethainter::Config {
        witness: true,
        ..Default::default()
    };
    let lines = parallel_map(names.len(), jobs, |i| -> Result<String, String> {
        let code = load_bytecode(inputs, &names[i])?;
        let started = Instant::now();
        let status = driver::analyze_one(&code, &config);
        if let Some(cache) = &cache {
            let elapsed_ms = started.elapsed().as_millis() as u64;
            let key = store::cache_key(&code, &ethainter::Config::default());
            cache.insert(
                key,
                store::CachedResult {
                    status: status.clone(),
                    elapsed_ms,
                },
            )?;
        }
        let (classes, unexplained) = classes_of(&status);
        let rec = ReferenceRecord {
            name: names[i].clone(),
            verdict: status.verdict_only(),
            classes,
            unexplained,
        };
        serde_json::to_string(&rec).map_err(|e| e.to_string())
    });
    let lines: Vec<String> = lines.into_iter().collect::<Result<_, _>>()?;
    write_lines(flags.get("out")?, &lines)
}
