//! Output checks: what every workload's simulated results must be.
//!
//! A campaign's journal is read back into [`Row`]s keyed by what each
//! point *is* (kernel, flow and design point, or fabric, width and
//! accelerator count), never by journal index, because the workload seed
//! permutes point order. The sorted rows hash to a digest that is pinned
//! per campaign, so a change that moves any point's cycles, energy or
//! energy-delay product (and with them its power) fails the run.

use std::collections::BTreeMap;
use std::path::Path;

use aladdin_core::{FlowResult, MultiSocResult};

/// Digest of every point of the evaluation sweep (`campaign-cold` and
/// `campaign-warm`): cycles, energy and EDP bits per point.
pub const SWEEP_DIGEST: u64 = 0x2c1d_1869_224e_0fb1;
/// Digest of every point of the topology-contention campaign: the SoC's
/// end cycle and each accelerator's latency per point.
pub const CONTENTION_DIGEST: u64 = 0x948a_69d8_6bb0_4267;

/// Simulated totals over every point of the sweep campaign.
pub const SWEEP_COUNTS: Counts = Counts {
    sim_cycles: 2_857_828,
    events: 10_237_680,
    stepped_cycles: 2_765_300,
    cache_accesses: 1_445_656,
    cache_misses: 34_043,
    tlb_misses: 496,
    dma_bursts: 12_404,
    bus_bytes: 793_216,
};
/// Simulated totals over every point of the contention campaign.
pub const CONTENTION_COUNTS: Counts = Counts {
    sim_cycles: 691_088,
    bus_bytes: 577_984,
    ..Counts::ZERO
};

/// The streamed 5M-node kernel's simulated cycles.
pub const STREAM_CYCLES: u64 = 7_500_006;

/// Simulated totals a speed-only change must leave identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub sim_cycles: u64,
    pub events: u64,
    pub stepped_cycles: u64,
    pub cache_accesses: u64,
    pub cache_misses: u64,
    pub tlb_misses: u64,
    pub dma_bursts: u64,
    /// Bytes moved over the system bus: DMA bytes of single points, every
    /// accelerator's bus traffic of multi points.
    pub bus_bytes: u64,
}

impl Counts {
    pub const ZERO: Counts = Counts {
        sim_cycles: 0,
        events: 0,
        stepped_cycles: 0,
        cache_accesses: 0,
        cache_misses: 0,
        tlb_misses: 0,
        dma_bursts: 0,
        bus_bytes: 0,
    };

    pub fn add_flow(&mut self, r: &FlowResult) {
        self.sim_cycles += r.total_cycles;
        self.events += r.sched_events;
        self.stepped_cycles += r.sched_stepped_cycles;
        if let Some(c) = &r.cache_stats {
            self.cache_accesses += c.accesses();
            self.cache_misses += c.misses;
        }
        if let Some(t) = &r.tlb_stats {
            self.tlb_misses += t.misses;
        }
        if let Some(d) = &r.dma_stats {
            self.dma_bursts += d.bursts;
            self.bus_bytes += d.bytes;
        }
    }

    pub fn add_multi(&mut self, r: &MultiSocResult) {
        self.sim_cycles += r.end;
        self.bus_bytes += r.bus_bytes;
    }
}

/// One finished point, as the journal records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// What the point is.
    pub key: String,
    /// Its simulated outcome (exact bits), or `None` for an error record.
    pub value: Option<String>,
    /// Simulated cycles: `total_cycles` of a single point, the SoC's end
    /// cycle of a multi point.
    pub cycles: u64,
}

/// The key of a single point. `cache` is `(bytes, ports)` for cache-flow
/// points.
pub fn single_key(
    kernel: &str,
    mem: &str,
    lanes: u64,
    partition: u64,
    cache: Option<(u64, u64)>,
) -> String {
    let cache = cache.map_or_else(String::new, |(b, p)| format!("|c{b}x{p}"));
    format!("{kernel}|{mem}|l{lanes}|p{partition}{cache}")
}

/// The outcome string of a single point.
pub fn single_value(cycles: u64, energy_j: f64, edp: f64) -> String {
    format!(
        "{cycles}|{:016x}|{:016x}",
        energy_j.to_bits(),
        edp.to_bits()
    )
}

/// The key of a multi point.
pub fn multi_key(topology: &str, width: u64, count: u64, stagger: u64) -> String {
    format!("{topology}|w{width}|n{count}|s{stagger}")
}

/// The outcome string of a multi point.
pub fn multi_value(end: u64, latencies: &[u64]) -> String {
    let l: Vec<String> = latencies.iter().map(u64::to_string).collect();
    format!("{end}|{}", l.join(","))
}

/// The `"key": value` pairs of one flat JSON object line. String values
/// come back unquoted, arrays and scalars as their raw text.
fn fields(line: &str) -> Option<BTreeMap<String, String>> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let b = body.as_bytes();
    let mut out = BTreeMap::new();
    let mut i = 0;
    loop {
        while i < b.len() && (b[i] == b',' || b[i].is_ascii_whitespace()) {
            i += 1;
        }
        if i == b.len() {
            return Some(out);
        }
        if b[i] != b'"' {
            return None;
        }
        let kend = i + 1 + body[i + 1..].find('"')?;
        let key = body[i + 1..kend].to_owned();
        i = kend + 1;
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if b.get(i) != Some(&b':') {
            return None;
        }
        i += 1;
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        let value = match b.get(i)? {
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                let v = body.get(i + 1..j)?.to_owned();
                i = j + 1;
                v
            }
            b'[' => {
                let j = i + body[i..].find(']')?;
                let v = body[i..=j].to_owned();
                i = j + 1;
                v
            }
            _ => {
                let j = body[i..].find(',').map_or(b.len(), |k| i + k);
                let v = body[i..j].trim().to_owned();
                i = j;
                v
            }
        };
        out.insert(key, value);
    }
}

fn num<T: std::str::FromStr>(f: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    f.get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("journal record lacks a numeric {key:?}"))
}

/// Read a campaign journal back into one [`Row`] per finished point.
pub fn read_journal(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
    let mut rows = Vec::new();
    for line in text.lines().skip(1) {
        let f = fields(line).ok_or_else(|| format!("malformed journal record: {line}"))?;
        let ok = f.get("status").map(String::as_str) == Some("ok");
        let row = if let Some(kernel) = f.get("kernel") {
            let mem = f.get("mem").cloned().unwrap_or_default();
            let cache = if mem == "cache" {
                Some((num(&f, "cache_bytes")?, num(&f, "cache_ports")?))
            } else {
                None
            };
            let key = single_key(
                kernel,
                &mem,
                num(&f, "lanes")?,
                num(&f, "partition")?,
                cache,
            );
            let (value, cycles) = if ok {
                let cycles = num(&f, "cycles")?;
                let v = single_value(cycles, num(&f, "energy_j")?, num(&f, "edp")?);
                (Some(v), cycles)
            } else {
                (None, 0)
            };
            Row { key, value, cycles }
        } else {
            let topology = f.get("topology").cloned().unwrap_or_default();
            let key = multi_key(
                &topology,
                num(&f, "bus_width")?,
                num(&f, "count")?,
                num(&f, "stagger")?,
            );
            let (value, cycles) = if ok {
                let end = num(&f, "end")?;
                let lat = f
                    .get("latencies")
                    .map(|l| l.trim_matches(['[', ']']).to_owned())
                    .unwrap_or_default();
                let lat: Vec<u64> = lat
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().parse().map_err(|_| format!("bad latency {s:?}")))
                    .collect::<Result<_, _>>()?;
                (Some(multi_value(end, &lat)), end)
            } else {
                (None, 0)
            };
            Row { key, value, cycles }
        };
        rows.push(row);
    }
    Ok(rows)
}

/// Order-independent FNV-1a digest of `(key, value)` pairs.
pub fn digest<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> u64 {
    let mut lines: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("{k}={v}\n"))
        .collect();
    lines.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.concat().bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of journal rows (error rows hash as `error`).
pub fn rows_digest(rows: &[Row]) -> u64 {
    digest(
        rows.iter()
            .map(|r| (r.key.as_str(), r.value.as_deref().unwrap_or("error"))),
    )
}

/// How many of `rows` differ from `reference` (missing, erroring, or
/// with other outcome bits). Both are keyed by point.
pub fn mismatches(rows: &[Row], reference: &BTreeMap<String, Option<String>>) -> usize {
    let mut bad = reference.len().abs_diff(rows.len());
    for r in rows {
        if r.value.is_none() || reference.get(&r.key) != Some(&r.value) {
            bad += 1;
        }
    }
    bad.min(rows.len().max(reference.len()))
}

/// Rows as a key → outcome map.
pub fn row_map(rows: &[Row]) -> BTreeMap<String, Option<String>> {
    rows.iter()
        .map(|r| (r.key.clone(), r.value.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_strings_arrays_and_numbers() {
        let f = fields(
            r#"{"point":3,"topology":"mesh:3x3:1:32","latencies":[10,20],"energy_j":1.5e-9,"status":"ok"}"#,
        )
        .expect("parses");
        assert_eq!(f["point"], "3");
        assert_eq!(f["topology"], "mesh:3x3:1:32");
        assert_eq!(f["latencies"], "[10,20]");
        assert_eq!(f["energy_j"].parse::<f64>().unwrap(), 1.5e-9);
        assert_eq!(f["status"], "ok");
    }

    #[test]
    fn digest_ignores_order() {
        let a = digest([("x", "1"), ("y", "2")]);
        let b = digest([("y", "2"), ("x", "1")]);
        assert_eq!(a, b);
        assert_ne!(a, digest([("x", "1"), ("y", "3")]));
    }
}
