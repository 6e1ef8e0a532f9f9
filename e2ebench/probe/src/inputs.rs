//! Seeded, size-stratified benchmark inputs.
//!
//! Per-contract analysis time tracks program size closely (correlation
//! ≈ 0.9 between statement count and `total_us` at realistic scale),
//! and a realistic population mixes ~24% few-hundred-byte templates
//! with 10–23 KB DeFi-shaped contracts. A plain random sample of a few
//! hundred contracts therefore moves throughput by 20% from one seed to
//! the next. `gen` removes that mixture noise: it draws from the seeded
//! corpus stream and keeps a contract only while its size stratum still
//! has room, so every seed yields the same number of contracts per
//! stratum and only the within-stratum variation is left.

use crate::{write_lines, Flags};
use corpus::{CorpusContract, PopulationConfig, Scale};
use serde::Serialize;
use std::path::Path;

/// Bytecodes below this many bytes come from the small templates.
const SMALL_MAX: usize = 4096;

/// Share of small-template contracts in a realistic-scale population:
/// bytecodes under `SMALL_MAX` were 0.232 of the first 4000 contracts of
/// the realistic corpus stream of seed 0xCA1B.
const SMALL_SHARE: f64 = 0.232;

/// Upper bounds (exclusive) of the adversarial size strata: the
/// sixteenths of the sorted bytecode sizes of the contracts of at least
/// `SMALL_MAX` bytes among those 4000 (the k-th edge is the size at
/// index k·len/16). The last stratum is open-ended.
const ADV_EDGES: [usize; 15] = [
    12_234, 12_884, 13_384, 13_850, 14_254, 14_686, 15_137, 15_507, 15_951, 16_419, 16_902, 17_469,
    18_082, 18_772, 19_854,
];

/// Number of strata: the small templates plus the adversarial sixteenths.
const STRATA: usize = ADV_EDGES.len() + 2;

/// Gives up when this many draws per requested contract did not fill
/// every stratum (never reached by the realistic population).
const MAX_DRAWS_PER_CONTRACT: usize = 50;

/// The stratum of a bytecode of `len` bytes.
fn stratum(len: usize) -> usize {
    if len < SMALL_MAX {
        return 0;
    }
    1 + ADV_EDGES.iter().take_while(|&&edge| len >= edge).count()
}

/// Contracts per stratum for a sample of `n`.
fn quotas(n: usize) -> [usize; STRATA] {
    let small = (n as f64 * SMALL_SHARE).round() as usize;
    let adv = n - small;
    let mut q = [0usize; STRATA];
    q[0] = small;
    for (i, slot) in q[1..].iter_mut().enumerate() {
        *slot = adv / (STRATA - 1) + usize::from(i < adv % (STRATA - 1));
    }
    q
}

/// Draws `n` contracts from the realistic corpus stream of `seed`, with
/// exactly `quotas(n)` per size stratum, ordered so that every prefix
/// is close to stratified too (workloads that stop early use a prefix).
pub fn stratified(seed: u64, n: usize) -> Result<Vec<CorpusContract>, String> {
    let quota = quotas(n);
    let mut taken: [Vec<CorpusContract>; STRATA] = Default::default();
    let cfg = PopulationConfig {
        seed,
        scale: Scale::Realistic,
        ..Default::default()
    };
    let mut remaining = n;
    for (draws, c) in corpus::stream(&cfg).enumerate() {
        if remaining == 0 {
            break;
        }
        if draws >= n * MAX_DRAWS_PER_CONTRACT {
            return Err(format!(
                "seed {seed}: strata not filled after {draws} draws"
            ));
        }
        let s = stratum(c.bytecode.len());
        if taken[s].len() < quota[s] {
            taken[s].push(c);
            remaining -= 1;
        }
    }
    // Interleave: the k-th contract of a stratum with quota q sits at
    // position (k + 0.5) / q of the run.
    let mut keyed: Vec<(f64, usize, CorpusContract)> = Vec::with_capacity(n);
    for (s, group) in taken.into_iter().enumerate() {
        let q = group.len() as f64;
        for (k, c) in group.into_iter().enumerate() {
            keyed.push(((k as f64 + 0.5) / q, s, c));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Ok(keyed.into_iter().map(|(_, _, c)| c).collect())
}

/// One line of `inputs.jsonl`.
#[derive(Serialize)]
struct InputRecord {
    name: String,
    family: String,
    bytes: usize,
    stratum: usize,
    exploitable: Vec<ethainter::Vuln>,
    decoy: Vec<ethainter::Vuln>,
}

/// The file name stem of the `i`-th input.
fn input_name(i: usize) -> String {
    format!("c{i:04}")
}

/// `gen --seed s --count n --out dir`: writes `dir/hex/<name>.hex` and
/// `dir/inputs.jsonl`.
pub fn cmd_gen(flags: &Flags) -> Result<(), String> {
    let seed: u64 = flags.num("seed", 1)?;
    let count: usize = flags.num("count", 100)?;
    let out = Path::new(flags.get("out")?);
    let hex_dir = out.join("hex");
    std::fs::create_dir_all(&hex_dir)
        .map_err(|e| format!("creating {}: {e}", hex_dir.display()))?;
    let mut lines = Vec::with_capacity(count);
    for (i, c) in stratified(seed, count)?.into_iter().enumerate() {
        let name = input_name(i);
        let path = hex_dir.join(format!("{name}.hex"));
        std::fs::write(&path, to_hex(&c.bytecode))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let rec = InputRecord {
            name,
            family: c.family.to_string(),
            bytes: c.bytecode.len(),
            stratum: stratum(c.bytecode.len()),
            exploitable: c.truth.exploitable.iter().copied().collect(),
            decoy: c.truth.decoy.iter().copied().collect(),
        };
        lines.push(serde_json::to_string(&rec).map_err(|e| e.to_string())?);
    }
    write_lines(&out.join("inputs.jsonl").to_string_lossy(), &lines)
}

/// Lower-case hex with a `0x` prefix (the form `ethainter` reads).
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(2 + bytes.len() * 2);
    s.push_str("0x");
    for b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0xf) as usize] as char);
    }
    s
}

/// Reads the bytecode of input `name` from an inputs directory.
pub fn load_bytecode(inputs: &Path, name: &str) -> Result<Vec<u8>, String> {
    let path = inputs.join("hex").join(format!("{name}.hex"));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    store::parse_hex(text.trim())
}

/// Reads a file of one name per line.
pub fn read_names(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_sum_to_the_sample_size() {
        for n in [1, 9, 60, 199, 240] {
            assert_eq!(quotas(n).iter().sum::<usize>(), n, "n = {n}");
        }
    }

    #[test]
    fn strata_cover_every_size() {
        assert_eq!(stratum(100), 0);
        assert_eq!(stratum(SMALL_MAX), 1);
        assert_eq!(stratum(ADV_EDGES[0]), 2);
        assert_eq!(stratum(usize::MAX), STRATA - 1);
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_strata_are_exact() {
        let a = stratified(3, 30).unwrap();
        let b = stratified(3, 30).unwrap();
        assert_eq!(
            a.iter().map(|c| &c.bytecode).collect::<Vec<_>>(),
            b.iter().map(|c| &c.bytecode).collect::<Vec<_>>()
        );
        let mut per = [0usize; STRATA];
        for c in &a {
            per[stratum(c.bytecode.len())] += 1;
        }
        assert_eq!(per, quotas(30));
        let other = stratified(4, 30).unwrap();
        assert_ne!(
            a[0].bytecode, other[0].bytecode,
            "another seed gives other contracts"
        );
    }

    #[test]
    fn hex_round_trips_through_the_store_parser() {
        let bytes = vec![0x60, 0x00, 0xff, 0x0a];
        assert_eq!(store::parse_hex(&to_hex(&bytes)).unwrap(), bytes);
    }
}
