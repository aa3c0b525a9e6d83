//! Plain-text trace serialization.
//!
//! gem5-Aladdin's workflow stores dynamic traces on disk (LLVM-Tracer
//! output) and re-schedules them under many configurations. This module
//! provides the same capability: a stable, line-oriented text format so
//! traces can be captured once, inspected with ordinary tools, and
//! re-loaded for sweeps.
//!
//! Format (one record per line, whitespace-separated):
//!
//! ```text
//! trace <name>
//! array <id> <name> <kind> <base-hex> <elem_bytes> <len>
//! node <opcode> <iteration> [@ <array-id> <addr-hex> <bytes> <r|w>] : <dep>*
//! ```

use std::fmt::Write as _;
use std::str::FromStr;

use crate::array::{ArrayId, ArrayInfo, ArrayKind};
use crate::deps::DepList;
use crate::opcode::Opcode;
use crate::trace::{MemAccessKind, MemRef, NodeId, Trace, TraceNode};

/// Error produced when parsing a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    message: String,
}

impl ParseTraceError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseTraceError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

impl FromStr for Opcode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        use Opcode::*;
        Ok(match s {
            "add" => Add,
            "sub" => Sub,
            "mul" => Mul,
            "div" => Div,
            "rem" => Rem,
            "shift" => Shift,
            "bitop" => BitOp,
            "icmp" => Icmp,
            "select" => Select,
            "fadd" => FAdd,
            "fsub" => FSub,
            "fmul" => FMul,
            "fdiv" => FDiv,
            "fsqrt" => FSqrt,
            "fcmp" => FCmp,
            "cast" => Cast,
            "gep" => Gep,
            "load" => Load,
            "store" => Store,
            "dmaload" => DmaLoad,
            "dmastore" => DmaStore,
            other => return Err(format!("unknown opcode {other:?}")),
        })
    }
}

impl FromStr for ArrayKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "input" => ArrayKind::Input,
            "output" => ArrayKind::Output,
            "inout" => ArrayKind::InOut,
            "internal" => ArrayKind::Internal,
            other => return Err(format!("unknown array kind {other:?}")),
        })
    }
}

impl Trace {
    /// Serialize to the line-oriented text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace {}", self.name());
        for a in self.arrays() {
            let _ = writeln!(
                out,
                "array {} {} {} {:#x} {} {}",
                a.id.index(),
                a.name,
                a.kind,
                a.base_addr,
                a.elem_bytes,
                a.len
            );
        }
        for n in self.nodes() {
            let _ = write!(out, "node {} {}", n.opcode, n.iteration);
            if let Some(m) = n.mem {
                let _ = write!(
                    out,
                    " @ {} {:#x} {} {}",
                    m.array.index(),
                    m.addr,
                    m.bytes,
                    if m.kind == MemAccessKind::Read {
                        "r"
                    } else {
                        "w"
                    }
                );
            }
            let _ = write!(out, " :");
            for d in &n.deps {
                let _ = write!(out, " {}", d.index());
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Parse a trace from the text format produced by
    /// [`to_text`](Trace::to_text).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseTraceError`] naming the offending line for any
    /// syntactic problem, and a final validation error if the parsed trace
    /// violates structural invariants (forward dependences, out-of-bounds
    /// memory references, …).
    pub fn from_text(text: &str) -> Result<Trace, ParseTraceError> {
        let mut name: Option<String> = None;
        let mut arrays: Vec<ArrayInfo> = Vec::new();
        let mut nodes: Vec<TraceNode> = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tok = line.split_whitespace();
            let Some(tag) = tok.next() else { continue };
            let err = |m: String| ParseTraceError::new(lineno, m);
            match tag {
                "trace" => {
                    name = Some(tok.collect::<Vec<_>>().join(" "));
                }
                "array" => {
                    let mut next =
                        |what: &str| tok.next().ok_or_else(|| err(format!("missing {what}")));
                    let id: u32 = parse(next("id")?, lineno)?;
                    if id as usize != arrays.len() {
                        return Err(err(format!("array ids must be dense; got {id}")));
                    }
                    let aname = next("name")?.to_owned();
                    let kind: ArrayKind = next("kind")?.parse().map_err(|e: String| err(e))?;
                    let base_addr = parse_hex(next("base")?, lineno)?;
                    let elem_bytes: u32 = parse(next("elem_bytes")?, lineno)?;
                    let len: u64 = parse(next("len")?, lineno)?;
                    arrays.push(ArrayInfo {
                        id: ArrayId::from_index(id as usize),
                        name: aname,
                        kind,
                        base_addr,
                        elem_bytes,
                        len,
                    });
                }
                "node" => {
                    let mut next =
                        |what: &str| tok.next().ok_or_else(|| err(format!("missing {what}")));
                    let opcode: Opcode = next("opcode")?.parse().map_err(|e: String| err(e))?;
                    let iteration: u32 = parse(next("iteration")?, lineno)?;
                    let mut mem = None;
                    let sep = next("separator")?;
                    let sep = if sep == "@" {
                        let array: u32 = parse(next("array")?, lineno)?;
                        let addr = parse_hex(next("addr")?, lineno)?;
                        let bytes: u32 = parse(next("bytes")?, lineno)?;
                        let kind = match next("r/w")? {
                            "r" => MemAccessKind::Read,
                            "w" => MemAccessKind::Write,
                            other => return Err(err(format!("expected r or w, got {other:?}"))),
                        };
                        mem = Some(MemRef {
                            array: ArrayId::from_index(array as usize),
                            addr,
                            bytes,
                            kind,
                        });
                        next("separator")?
                    } else {
                        sep
                    };
                    if sep != ":" {
                        return Err(err(format!("expected ':', got {sep:?}")));
                    }
                    let mut deps = DepList::new();
                    for d in tok.by_ref() {
                        let idx: u32 = parse(d, lineno)?;
                        deps.push(NodeId::from_index(idx as usize));
                    }
                    nodes.push(TraceNode {
                        id: NodeId::from_index(nodes.len()),
                        opcode,
                        deps,
                        mem,
                        iteration,
                    });
                }
                other => return Err(err(format!("unknown record {other:?}"))),
            }
        }

        let trace = Trace::new(
            name.ok_or_else(|| ParseTraceError::new(0, "missing 'trace' header"))?,
            nodes,
            arrays,
        );
        let report = trace.check();
        if let Some(d) = report.first_error() {
            return Err(ParseTraceError::new(0, format!("invalid trace: {d}")));
        }
        Ok(trace)
    }
}

fn parse<T: FromStr>(s: &str, line: usize) -> Result<T, ParseTraceError>
where
    T::Err: std::fmt::Display,
{
    s.parse()
        .map_err(|e| ParseTraceError::new(line, format!("bad number {s:?}: {e}")))
}

fn parse_hex(s: &str, line: usize) -> Result<u64, ParseTraceError> {
    let stripped = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X"));
    match stripped {
        Some(h) => u64::from_str_radix(h, 16)
            .map_err(|e| ParseTraceError::new(line, format!("bad hex {s:?}: {e}"))),
        None => parse(s, line),
    }
}

impl ArrayId {
    /// Construct from a dense index (used by deserialization).
    #[must_use]
    pub fn from_index(idx: usize) -> Self {
        ArrayId(u32::try_from(idx).expect("too many arrays"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TVal, Tracer};

    fn sample() -> Trace {
        let mut t = Tracer::new("roundtrip sample");
        let a = t.array_f64("a", &[1.0, 2.0, 3.0], ArrayKind::Input);
        let mut o = t.array_f64("o", &[0.0], ArrayKind::Output);
        t.begin_iteration(0);
        let x = t.load(&a, 0);
        let y = t.load(&a, 2);
        let s = t.binop(Opcode::FAdd, x, y);
        t.begin_iteration(1);
        let q = t.fsqrt(s);
        let c = t.fcmp_lt(q, TVal::lit(10.0));
        let sel = t.select(c, q, s);
        t.store(&mut o, 0, sel);
        t.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let orig = sample();
        let text = orig.to_text();
        let parsed = Trace::from_text(&text).expect("parse back");
        assert_eq!(parsed.name(), orig.name());
        assert_eq!(parsed.arrays(), orig.arrays());
        assert_eq!(parsed.nodes(), orig.nodes());
    }

    #[test]
    fn text_is_human_readable() {
        let text = sample().to_text();
        assert!(text.starts_with("trace roundtrip sample\n"));
        assert!(text.contains("array 0 a input"));
        assert!(text.contains("node load 0 @ 0"));
        assert!(text.contains("node fadd 0"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::from_text("nonsense").is_err());
        assert!(Trace::from_text("").is_err()); // no header
        let bad_opcode = "trace t\nnode explode 0 :\n";
        let e = Trace::from_text(bad_opcode).unwrap_err();
        assert!(e.to_string().contains("unknown opcode"));
    }

    #[test]
    fn parse_rejects_forward_deps() {
        let forward = "trace t\nnode fadd 0 : 1\nnode fadd 0 :\n";
        let e = Trace::from_text(forward).unwrap_err();
        assert!(e.to_string().contains("invalid trace"), "{e}");
    }

    #[test]
    fn parse_rejects_bad_memref() {
        let oob = "trace t\narray 0 a input 0x1000 8 2\nnode load 0 @ 0 0x2000 8 r :\n";
        let e = Trace::from_text(oob).unwrap_err();
        assert!(e.to_string().contains("invalid trace"), "{e}");
    }

    #[test]
    fn all_opcodes_round_trip_through_strings() {
        use Opcode::*;
        for op in [
            Add, Sub, Mul, Div, Rem, Shift, BitOp, Icmp, Select, FAdd, FSub, FMul, FDiv, FSqrt,
            FCmp, Cast, Gep, Load, Store, DmaLoad, DmaStore,
        ] {
            let s = op.to_string();
            assert_eq!(s.parse::<Opcode>().unwrap(), op, "{s}");
        }
        assert!("bogus".parse::<Opcode>().is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# comment\n\ntrace t\n# another\nnode fadd 3 :\n";
        let tr = Trace::from_text(text).unwrap();
        assert_eq!(tr.nodes().len(), 1);
        assert_eq!(tr.nodes()[0].iteration, 3);
    }
}
