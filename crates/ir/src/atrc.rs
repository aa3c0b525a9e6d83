//! `.atrc` — the compact binary trace encoding.
//!
//! gem5-Aladdin's methodology is trace driven, and the trace is the scale
//! bottleneck: a materialized [`Trace`] holds every [`TraceNode`] plus a
//! dependence vector per node, so paper-scale++ inputs (millions of dynamic
//! operations) exhaust memory before the scheduler is ever the limit. The
//! `.atrc` format stores the same information as a delta/varint-encoded
//! byte stream that a [`TraceWriter`] can produce *while the kernel is
//! being traced* and an [`AtrcTrace`] can replay node-by-node without ever
//! materializing the vector.
//!
//! # Layout
//!
//! Version 2 ([`ATRC_VERSION`]):
//!
//! ```text
//! magic  "ATRC" | version u8 | name: varint len + bytes
//! block* tag 0x01 | node count varint | mode u8 (0 raw, 1 RLE)
//!        | payload len varint | payload
//! footer tag 0x02 | arrays (count varint, then per array:
//!            name varint-len+bytes, kind u8, base varint,
//!            elem_bytes varint, len varint)
//!        | total node count varint | fingerprint 16 B LE
//!        | checksum over all preceding bytes, 8 B LE ([`atrc_checksum`])
//!        | closing magic "CRTA"
//! ```
//!
//! Each node record inside a block payload is, in order: opcode byte,
//! dependence count varint followed by `id − dep` deltas (varints),
//! a memory tag byte (0 none, 1 read, 2 write) followed for memory ops by
//! array index varint, zigzag delta of the address against the previous
//! memory access, and the access size varint, and finally the zigzag delta
//! of the iteration label against the previous node. Block payloads may be
//! RLE-compressed (literal/repeat byte runs, kept in-tree like
//! `aladdin-rng`) when that is smaller than the raw bytes.
//!
//! The footer fingerprint is computed by the writer *while streaming* and
//! equals [`Trace::fingerprint`] of the decoded trace bit-for-bit, so the
//! DSE result cache can key file-backed traces without a decode. The
//! trailing checksum and closing magic turn truncation or bit corruption
//! into the typed diagnostic `L0280` instead of garbage simulation input.
//! Fingerprint and checksum both come from the word-at-a-time
//! [`ContentHasher`](crate::ContentHasher); version 1 checksummed byte-at-a-time with FNV-1a,
//! and its files are refused by version (`L0280`, re-capture them).
//!
//! # Reading
//!
//! A reader never holds a trace whole. [`AtrcTrace::open`] validates a
//! file in one sequential pass, 64 KiB at a time (checksum, block framing,
//! footer), then keeps the header, the footer and the open file. Each
//! [`AtrcTrace::nodes`] pass reads one block at a time with positional
//! reads into buffers it reuses, so reading costs O(block) memory and a
//! windowed schedule O(window + block). A pass re-hashes every byte it
//! reads and ends in `L0280` if the file no longer matches the checksum
//! validated at open. [`AtrcTrace::from_bytes`] runs the same validator
//! and block reader over bytes in memory.
//!
//! [`AtrcTrace::nodes_ahead`] runs that same pass on a second thread and
//! hands its nodes over in batches of one block's worth (4096), through a
//! channel sixteen batches deep, so decoding overlaps whatever consumes
//! the nodes; it yields the same items in the same order, the closing
//! `L0280` included, and holds up to 18 blocks of decoded nodes. The thread
//! is joined when the stream ends or is dropped. It is meant for one long
//! run on an otherwise idle core: the one-shot `simulate_source` in
//! `aladdin-core` uses it, while sweep workers, which already fill every
//! core, decode inline with [`AtrcTrace::nodes`].

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use crate::array::{ArrayId, ArrayInfo, ArrayKind};
use crate::deps::DepList;
use crate::diag::Diagnostic;
use crate::hash::ByteHasher;
use crate::opcode::Opcode;
use crate::stats::TraceStats;
use crate::trace::{MemAccessKind, MemRef, NodeId, Trace, TraceHasher, TraceNode};

/// Leading file magic.
pub const ATRC_MAGIC: [u8; 4] = *b"ATRC";
/// Trailing file magic (leading magic reversed).
pub const ATRC_END_MAGIC: [u8; 4] = *b"CRTA";
/// Current format version.
pub const ATRC_VERSION: u8 = 2;

const TAG_BLOCK: u8 = 0x01;
const TAG_FOOTER: u8 = 0x02;
const MODE_RAW: u8 = 0;
const MODE_RLE: u8 = 1;
/// Nodes per encoded block; bounds the reader's transient decode buffer.
const BLOCK_NODES: usize = 4096;

/// Stable opcode ↔ byte table. Table order is load-bearing: bytes are
/// persisted in `.atrc` files, so entries are only ever appended.
const OPCODE_TABLE: [Opcode; 21] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Div,
    Opcode::Rem,
    Opcode::Shift,
    Opcode::BitOp,
    Opcode::Icmp,
    Opcode::Select,
    Opcode::FAdd,
    Opcode::FSub,
    Opcode::FMul,
    Opcode::FDiv,
    Opcode::FSqrt,
    Opcode::FCmp,
    Opcode::Cast,
    Opcode::Gep,
    Opcode::Load,
    Opcode::Store,
    Opcode::DmaLoad,
    Opcode::DmaStore,
];

fn opcode_byte(op: Opcode) -> u8 {
    // The enum is #[non_exhaustive]; an opcode missing from the table is a
    // bug in this module, not a recoverable input condition.
    u8::try_from(
        OPCODE_TABLE
            .iter()
            .position(|&o| o == op)
            .expect("opcode missing from .atrc table"),
    )
    .expect("opcode table fits a byte")
}

fn corrupt(message: impl Into<String>) -> Diagnostic {
    Diagnostic::error("L0280", message)
}

fn truncated() -> Diagnostic {
    corrupt("unexpected end of data (truncated .atrc)")
}

// ---------------------------------------------------------------------------
// Varint / zigzag primitives.

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Byte-at-a-time input, shared by the node decoder, the block framing
/// and the open-time scan.
trait ReadBytes {
    fn u8(&mut self) -> Result<u8, Diagnostic>;

    fn varint(&mut self) -> Result<u64, Diagnostic> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(corrupt("varint longer than 64 bits"))
    }
}

/// A cursor over bytes in memory: a block's records or a block header.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Diagnostic> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(truncated)?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }
}

impl ReadBytes for ByteReader<'_> {
    fn u8(&mut self) -> Result<u8, Diagnostic> {
        let b = *self.bytes.get(self.pos).ok_or_else(truncated)?;
        self.pos += 1;
        Ok(b)
    }
}

// ---------------------------------------------------------------------------
// In-tree RLE: literal runs (control < 0x80 → control+1 literal bytes) and
// repeat runs (control ≥ 0x80 → next byte repeated control−0x80+2 times).

fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 8);
    let mut i = 0;
    let mut lit_start = 0;
    let flush_literals = |out: &mut Vec<u8>, lit: &[u8]| {
        for chunk in lit.chunks(128) {
            out.push((chunk.len() - 1) as u8);
            out.extend_from_slice(chunk);
        }
    };
    while i < data.len() {
        let b = data[i];
        let mut run = 1;
        while run < 129 && i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        if run >= 3 {
            flush_literals(&mut out, &data[lit_start..i]);
            out.push(0x80 + (run - 2) as u8);
            out.push(b);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&mut out, &data[lit_start..]);
    out
}

/// Unpack `data` into `out` (cleared first), refusing to grow it past
/// `expect_max` bytes.
fn rle_decompress(data: &[u8], expect_max: usize, out: &mut Vec<u8>) -> Result<(), Diagnostic> {
    out.clear();
    let mut r = ByteReader::new(data);
    while r.remaining() > 0 {
        let c = r.u8()?;
        if c < 0x80 {
            out.extend_from_slice(r.take(usize::from(c) + 1)?);
        } else {
            let b = r.u8()?;
            out.resize(out.len() + usize::from(c - 0x80) + 2, b);
        }
        if out.len() > expect_max {
            return Err(corrupt("RLE block inflates past its node budget"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Writer.

/// Summary returned when a [`TraceWriter`] finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtrcSummary {
    /// Nodes written.
    pub nodes: u64,
    /// Encoded bytes emitted (the final file size).
    pub bytes: u64,
    /// Content fingerprint, equal to [`Trace::fingerprint`] of the decoded
    /// trace.
    pub fingerprint: u128,
}

/// Streaming `.atrc` encoder.
///
/// Nodes are appended one at a time ([`TraceWriter::push_node`]) and flushed
/// in fixed-size blocks, so encoding a trace never requires holding it in
/// memory; the [`Tracer`](crate::Tracer) can target a writer directly via
/// [`Tracer::stream_to`](crate::Tracer::stream_to). The writer maintains
/// the running content fingerprint and the whole-file [`atrc_checksum`]
/// (carrying a partial word between writes), both sealed into the footer
/// by [`TraceWriter::finish`].
pub struct TraceWriter<W: Write> {
    sink: W,
    /// The running [`atrc_checksum`] over every byte written so far.
    check: ByteHasher,
    written: u64,
    fp: TraceHasher,
    block: Vec<u8>,
    block_nodes: usize,
    nodes: u64,
    prev_addr: u64,
    prev_iter: u32,
}

impl<W: Write> fmt::Debug for TraceWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceWriter")
            .field("nodes", &self.nodes)
            .field("written", &self.written)
            .finish_non_exhaustive()
    }
}

impl<W: Write> TraceWriter<W> {
    /// Start an `.atrc` stream for a kernel named `name`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(mut sink: W, name: &str) -> io::Result<Self> {
        let mut header = Vec::with_capacity(name.len() + 16);
        header.extend_from_slice(&ATRC_MAGIC);
        header.push(ATRC_VERSION);
        put_varint(&mut header, name.len() as u64);
        header.extend_from_slice(name.as_bytes());
        sink.write_all(&header)?;
        let mut check = ByteHasher::default();
        check.write(&header);
        let fp = TraceHasher::new(name);
        Ok(TraceWriter {
            sink,
            check,
            written: header.len() as u64,
            fp,
            block: Vec::with_capacity(BLOCK_NODES * 8),
            block_nodes: 0,
            nodes: 0,
            prev_addr: 0,
            prev_iter: 0,
        })
    }

    fn emit(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.check.write(bytes);
        self.written += bytes.len() as u64;
        self.sink.write_all(bytes)
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block_nodes == 0 {
            return Ok(());
        }
        let rle = rle_compress(&self.block);
        // `emit` needs &mut self, so move the chosen payload out first.
        let (mode, payload) = if rle.len() < self.block.len() {
            (MODE_RLE, rle)
        } else {
            (MODE_RAW, std::mem::take(&mut self.block))
        };
        let mut head = Vec::with_capacity(16);
        head.push(TAG_BLOCK);
        put_varint(&mut head, self.block_nodes as u64);
        head.push(mode);
        put_varint(&mut head, payload.len() as u64);
        self.emit(&head)?;
        self.emit(&payload)?;
        self.block.clear();
        self.block_nodes = 0;
        Ok(())
    }

    /// Append one node. Nodes must arrive in program order with
    /// backward-pointing dependences (the [`Trace`] invariants).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    ///
    /// # Panics
    ///
    /// Panics if `node.id` is out of order or a dependence does not point
    /// backwards — those traces are invalid under [`Trace::check`] and
    /// must not be persisted.
    pub fn push_node(&mut self, node: &TraceNode) -> io::Result<()> {
        assert_eq!(
            node.id.index() as u64,
            self.nodes,
            "nodes must be pushed in dense program order"
        );
        self.fp.node(node);
        let id = node.id.index() as u64;
        let b = &mut self.block;
        b.push(opcode_byte(node.opcode));
        put_varint(b, node.deps.len() as u64);
        for d in &node.deps {
            let delta = id
                .checked_sub(d.index() as u64)
                .filter(|&d| d > 0)
                .expect("dependences must point strictly backwards");
            put_varint(b, delta);
        }
        match &node.mem {
            None => b.push(0),
            Some(m) => {
                b.push(match m.kind {
                    MemAccessKind::Read => 1,
                    MemAccessKind::Write => 2,
                });
                put_varint(b, m.array.index() as u64);
                put_varint(b, zigzag(m.addr as i64 - self.prev_addr as i64));
                put_varint(b, u64::from(m.bytes));
                self.prev_addr = m.addr;
            }
        }
        put_varint(
            b,
            zigzag(i64::from(node.iteration) - i64::from(self.prev_iter)),
        );
        self.prev_iter = node.iteration;
        self.nodes += 1;
        self.block_nodes += 1;
        if self.block_nodes >= BLOCK_NODES {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Seal the stream: flush the last block, write the footer (arrays,
    /// node count, fingerprint, checksum, closing magic) and return the
    /// summary.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self, arrays: &[ArrayInfo]) -> io::Result<AtrcSummary> {
        self.flush_block()?;
        let fingerprint = self.fp.finish(self.nodes, arrays);

        let mut foot = Vec::with_capacity(64);
        foot.push(TAG_FOOTER);
        put_varint(&mut foot, arrays.len() as u64);
        for a in arrays {
            put_varint(&mut foot, a.name.len() as u64);
            foot.extend_from_slice(a.name.as_bytes());
            foot.push(match a.kind {
                ArrayKind::Input => 0,
                ArrayKind::Output => 1,
                ArrayKind::InOut => 2,
                ArrayKind::Internal => 3,
            });
            put_varint(&mut foot, a.base_addr);
            put_varint(&mut foot, u64::from(a.elem_bytes));
            put_varint(&mut foot, a.len);
        }
        put_varint(&mut foot, self.nodes);
        foot.extend_from_slice(&fingerprint.to_le_bytes());
        self.emit(&foot)?;
        let check = std::mem::take(&mut self.check).finish();
        self.emit(&check.to_le_bytes())?;
        self.emit(&ATRC_END_MAGIC)?;
        self.sink.flush()?;
        Ok(AtrcSummary {
            nodes: self.nodes,
            bytes: self.written,
            fingerprint,
        })
    }
}

/// The `.atrc` whole-file checksum of `bytes` (everything before the
/// stored checksum): `bytes` as 8-byte little-endian words, the tail
/// zero-padded, then the length, absorbed by the word-at-a-time content
/// hasher; the two 64-bit lanes are xor-folded.
#[must_use]
pub fn atrc_checksum(bytes: &[u8]) -> u64 {
    let mut h = ByteHasher::default();
    h.write(bytes);
    h.finish()
}

/// Encode a materialized [`Trace`] into `.atrc` bytes.
#[must_use]
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = TraceWriter::new(&mut out, trace.name()).expect("Vec sink cannot fail");
    for node in trace.nodes() {
        w.push_node(node).expect("Vec sink cannot fail");
    }
    let summary = w.finish(trace.arrays()).expect("Vec sink cannot fail");
    debug_assert_eq!(summary.fingerprint, trace.fingerprint());
    out
}

// ---------------------------------------------------------------------------
// Reader.

/// Bytes after the checksummed region: the checksum and the closing magic.
const TRAILER: usize = 8 + ATRC_END_MAGIC.len();
/// Bytes a [`Cursor`] reads per positional read.
const CHUNK: usize = 64 * 1024;

/// Where an `.atrc` trace's bytes live. Both are read by offset into
/// buffers the reader owns, so a file is never held in memory whole.
#[derive(Debug)]
enum Source {
    Bytes(Vec<u8>),
    File(File),
}

impl Source {
    fn len(&self) -> Result<u64, Diagnostic> {
        match self {
            Source::Bytes(b) => Ok(b.len() as u64),
            Source::File(f) => f
                .metadata()
                .map(|m| m.len())
                .map_err(|e| corrupt(format!("cannot read: {e}"))),
        }
    }

    /// Fill `buf` from offset `pos`. A short read is `L0280`: the data
    /// ends early, or the file shrank since it was opened.
    fn read_at(&self, pos: u64, buf: &mut [u8]) -> Result<(), Diagnostic> {
        match self {
            Source::Bytes(b) => {
                let src = usize::try_from(pos)
                    .ok()
                    .and_then(|p| b.get(p..p.checked_add(buf.len())?))
                    .ok_or_else(truncated)?;
                buf.copy_from_slice(src);
                Ok(())
            }
            Source::File(f) => read_exact_at(f, buf, pos).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    truncated()
                } else {
                    corrupt(format!("cannot read: {e}"))
                }
            }),
        }
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], pos: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, pos)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut pos: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, pos)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                buf = &mut buf[n..];
                pos += n as u64;
            }
        }
    }
    Ok(())
}

/// A forward cursor over `[start, end)` of a source: it reads a chunk at
/// a time with positional reads into one reused buffer, and hashes every
/// byte it passes into the running `.atrc` checksum. The open-time scan
/// walks the whole checksummed region with one; each node iterator walks
/// the blocks with its own.
#[derive(Debug)]
struct Cursor {
    source: Arc<Source>,
    end: u64,
    chunk: Vec<u8>,
    /// Source offset of `chunk[0]`.
    base: u64,
    /// Next unread byte of `chunk`.
    at: usize,
    /// The checksum state over every byte before the cursor.
    hash: ByteHasher,
    /// While `Some`, every byte passed is also kept here.
    keep: Option<Vec<u8>>,
}

impl Cursor {
    fn new(source: Arc<Source>, start: u64, end: u64, hash: ByteHasher) -> Self {
        Cursor {
            source,
            end,
            chunk: Vec::new(),
            base: start,
            at: 0,
            hash,
            keep: None,
        }
    }

    fn pos(&self) -> u64 {
        self.base + self.at as u64
    }

    fn remaining(&self) -> u64 {
        self.end - self.pos()
    }

    /// Pass `n` bytes, handing them to `f` a piece at a time.
    fn take_with(&mut self, mut n: u64, mut f: impl FnMut(&[u8])) -> Result<(), Diagnostic> {
        if n > self.remaining() {
            return Err(truncated());
        }
        while n > 0 {
            if self.at == self.chunk.len() {
                self.base += self.chunk.len() as u64;
                self.at = 0;
                self.chunk.clear();
                self.chunk
                    .resize((self.end - self.base).min(CHUNK as u64) as usize, 0);
                if let Err(d) = self.source.read_at(self.base, &mut self.chunk) {
                    self.chunk.clear();
                    return Err(d);
                }
            }
            let k = (self.chunk.len() - self.at).min(usize::try_from(n).unwrap_or(usize::MAX));
            let piece = &self.chunk[self.at..self.at + k];
            self.hash.write(piece);
            if let Some(keep) = &mut self.keep {
                keep.extend_from_slice(piece);
            }
            f(piece);
            self.at += k;
            n -= k as u64;
        }
        Ok(())
    }

    fn str(&mut self) -> Result<String, Diagnostic> {
        let len = usize::try_from(self.varint()?)
            .map_err(|_| corrupt("string length overflows usize"))?;
        if len as u64 > self.remaining() {
            return Err(corrupt("string length exceeds remaining data"));
        }
        let mut bytes = Vec::with_capacity(len);
        self.take_with(len as u64, |p| bytes.extend_from_slice(p))?;
        String::from_utf8(bytes).map_err(|_| corrupt("string is not valid UTF-8"))
    }

    /// Parse everything after the magic and version: the name, the block
    /// framing (payloads are hashed, not decoded) and the footer.
    fn envelope(&mut self, checksum: u64) -> Result<Envelope, Diagnostic> {
        self.take_with((ATRC_MAGIC.len() + 1) as u64, |_| ())?;
        let name = self.str()?;
        let body = self.pos();
        let head = self.hash.clone();
        let footer = loop {
            let at = self.pos();
            match frame(self)? {
                Frame::Block { len, .. } => self.take_with(len, |_| ())?,
                Frame::Footer => break at,
            }
        };
        self.keep = Some(vec![TAG_FOOTER]);
        let array_count =
            usize::try_from(self.varint()?).map_err(|_| corrupt("array count overflows usize"))?;
        if array_count as u64 > self.remaining() {
            return Err(corrupt("array count exceeds remaining data"));
        }
        let mut arrays = Vec::with_capacity(array_count);
        for i in 0..array_count {
            let name = self.str()?;
            let kind = match self.u8()? {
                0 => ArrayKind::Input,
                1 => ArrayKind::Output,
                2 => ArrayKind::InOut,
                3 => ArrayKind::Internal,
                other => return Err(corrupt(format!("unknown array kind {other}"))),
            };
            let array = ArrayInfo {
                id: ArrayId::from_index(i),
                name,
                kind,
                base_addr: self.varint()?,
                elem_bytes: u32::try_from(self.varint()?)
                    .map_err(|_| corrupt("array elem_bytes overflows u32"))?,
                len: self.varint()?,
            };
            if array
                .len
                .checked_mul(u64::from(array.elem_bytes))
                .and_then(|size| size.checked_add(array.base_addr))
                .is_none()
            {
                return Err(corrupt(format!(
                    "array {} extends past the address space",
                    array.name
                )));
            }
            arrays.push(array);
        }
        let node_count = self.varint()?;
        let mut fingerprint = Vec::with_capacity(16);
        self.take_with(16, |p| fingerprint.extend_from_slice(p))?;
        if self.remaining() != 0 {
            return Err(corrupt("trailing bytes after footer"));
        }
        Ok(Envelope {
            name,
            arrays,
            node_count,
            fingerprint: u128::from_le_bytes(fingerprint.try_into().expect("16 bytes")),
            len: self.end + TRAILER as u64,
            checksum,
            body,
            footer,
            head,
            foot: self.keep.take().unwrap_or_default(),
        })
    }

    /// Hash the rest of the region; the checksum of all of it.
    fn finish(mut self) -> Result<u64, Diagnostic> {
        self.keep = None;
        self.take_with(self.remaining(), |_| ())?;
        Ok(self.hash.finish())
    }
}

impl ReadBytes for Cursor {
    fn u8(&mut self) -> Result<u8, Diagnostic> {
        let mut b = 0;
        self.take_with(1, |p| b = p[0])?;
        Ok(b)
    }
}

/// A section header: a block's node count, mode and payload length, or
/// the footer tag.
enum Frame {
    Block { nodes: u64, mode: u8, len: u64 },
    Footer,
}

fn frame(r: &mut impl ReadBytes) -> Result<Frame, Diagnostic> {
    match r.u8()? {
        TAG_BLOCK => {
            let nodes = r.varint()?;
            let mode = r.u8()?;
            if mode != MODE_RAW && mode != MODE_RLE {
                return Err(corrupt(format!("unknown block mode {mode}")));
            }
            let len = r.varint()?;
            Ok(Frame::Block { nodes, mode, len })
        }
        TAG_FOOTER => Ok(Frame::Footer),
        other => Err(corrupt(format!("unknown section tag {other:#04x}"))),
    }
}

/// What validation learned about a trace: its metadata, where its blocks
/// lie, and what re-hashing them must come to.
#[derive(Debug)]
struct Envelope {
    name: String,
    arrays: Vec<ArrayInfo>,
    node_count: u64,
    fingerprint: u128,
    /// Encoded size in bytes.
    len: u64,
    /// The stored whole-file checksum.
    checksum: u64,
    /// Offset of the first block (or of the footer, for empty traces).
    body: u64,
    /// Offset of the footer tag.
    footer: u64,
    /// The checksum state over `[0, body)`, where re-hashing starts.
    head: ByteHasher,
    /// The footer bytes as validated, where re-hashing ends.
    foot: Vec<u8>,
}

/// A file-backed (or byte-backed) `.atrc` trace.
///
/// Construction validates the envelope — magic, version, whole-file
/// checksum, block framing, footer — in one sequential pass that reads
/// the source a chunk at a time, and keeps only the cheap parts (name,
/// arrays, node count, fingerprint) and the source. Nodes are decoded
/// lazily by [`AtrcTrace::nodes`], one block at a time, so neither opening
/// nor iterating holds more than a block of the trace in memory. Cloning
/// an `AtrcTrace` (e.g. to hand each sweep worker its own cursor) shares
/// the source; every iterator reads it with positional reads of its own.
#[derive(Debug, Clone)]
pub struct AtrcTrace {
    source: Arc<Source>,
    env: Arc<Envelope>,
}

impl AtrcTrace {
    /// Validate and index `.atrc` bytes.
    ///
    /// # Errors
    ///
    /// Returns an `L0280` diagnostic for any truncation, framing or
    /// checksum violation.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, Diagnostic> {
        Self::validate(Source::Bytes(bytes))
    }

    /// Open and validate an `.atrc` file. The file stays open, and every
    /// [`nodes`](AtrcTrace::nodes) pass reads it again, a block at a time;
    /// a pass that finds it changed ends in `L0280`.
    ///
    /// # Errors
    ///
    /// Returns an `L0280` diagnostic for I/O failures as well as any
    /// truncation, framing or checksum violation.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Diagnostic> {
        let path = path.as_ref();
        let file = File::open(path)
            .map_err(|e| corrupt(format!("cannot read {}: {e}", path.display())))?;
        Self::validate(Source::File(file))
            .map_err(|d| corrupt(format!("{}: {}", path.display(), d.message)))
    }

    /// The one validator behind [`from_bytes`](AtrcTrace::from_bytes) and
    /// [`open`](AtrcTrace::open). The cheap checks read the first and last
    /// bytes; one [`Cursor`] then hashes the checksummed region while it
    /// parses the framing and the footer. A framing error is reported only
    /// once the checksum matches, so a corrupt file is always called
    /// corrupt.
    fn validate(source: Source) -> Result<Self, Diagnostic> {
        let n = source.len()?;
        if n < (ATRC_MAGIC.len() + 1 + 1 + TRAILER) as u64 {
            return Err(corrupt(format!(
                "file too short ({n} bytes) to be an .atrc trace"
            )));
        }
        let mut start = [0u8; ATRC_MAGIC.len() + 1];
        source.read_at(0, &mut start)?;
        let end = n - TRAILER as u64;
        let mut trailer = [0u8; TRAILER];
        source.read_at(end, &mut trailer)?;
        if start[..4] != ATRC_MAGIC {
            return Err(corrupt("bad magic: not an .atrc trace"));
        }
        if trailer[8..] != ATRC_END_MAGIC {
            return Err(corrupt("missing closing magic: truncated .atrc trace"));
        }
        // The version comes before the checksum: an older layout may
        // define the checksum differently, and deserves the clearer error.
        let version = start[ATRC_MAGIC.len()];
        if version != ATRC_VERSION {
            return Err(corrupt(format!(
                "unsupported .atrc version {version} (expected {ATRC_VERSION}); \
                 re-capture the trace with this build (`trace_tool encode`)"
            )));
        }
        let stored = u64::from_le_bytes(trailer[..8].try_into().expect("8-byte slice"));
        let source = Arc::new(source);
        let mut scan = Cursor::new(Arc::clone(&source), 0, end, ByteHasher::default());
        let env = scan.envelope(stored);
        let check = scan.finish()?;
        if check != stored {
            return Err(corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {check:#018x} \
                 (corrupt .atrc trace)"
            )));
        }
        Ok(AtrcTrace {
            source,
            env: Arc::new(env?),
        })
    }

    /// Kernel name recorded in the header.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.env.name
    }

    /// Traced arrays (from the footer).
    #[must_use]
    pub fn arrays(&self) -> &[ArrayInfo] {
        &self.env.arrays
    }

    /// Arrays that must be transferred host → accelerator.
    pub fn input_arrays(&self) -> impl Iterator<Item = &ArrayInfo> {
        self.arrays().iter().filter(|a| a.kind.is_input())
    }

    /// Arrays that must be transferred accelerator → host.
    pub fn output_arrays(&self) -> impl Iterator<Item = &ArrayInfo> {
        self.arrays().iter().filter(|a| a.kind.is_output())
    }

    /// Total bytes of input (host → accelerator) data.
    #[must_use]
    pub fn input_bytes(&self) -> u64 {
        self.input_arrays().map(ArrayInfo::size_bytes).sum()
    }

    /// Total bytes of output (accelerator → host) data.
    #[must_use]
    pub fn output_bytes(&self) -> u64 {
        self.output_arrays().map(ArrayInfo::size_bytes).sum()
    }

    /// Total node count (from the footer — no decode needed).
    #[must_use]
    pub fn node_count(&self) -> u64 {
        self.env.node_count
    }

    /// Encoded size in bytes.
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        self.env.len
    }

    /// Content fingerprint from the footer, equal to
    /// [`Trace::fingerprint`] of the decoded trace. This is what makes
    /// file-backed traces first-class citizens of the DSE result cache:
    /// the key is available without a decode.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        self.env.fingerprint
    }

    /// Iterate the nodes without materializing them. Each item is a
    /// decoded [`TraceNode`] or an `L0280` diagnostic. The iterator
    /// re-hashes every byte it reads; if the source no longer matches the
    /// checksum validated at open (a file changed since), its last item
    /// is `L0280`, so a changed file never passes for the opened one.
    #[must_use]
    pub fn nodes(&self) -> AtrcNodeIter {
        let env = &self.env;
        AtrcNodeIter {
            blocks: Cursor::new(
                Arc::clone(&self.source),
                env.body,
                env.footer,
                env.head.clone(),
            ),
            env: Arc::clone(env),
            block: Vec::new(),
            packed: Vec::new(),
            block_pos: 0,
            block_first: 0,
            block_nodes: 0,
            next_id: 0,
            prev_addr: 0,
            prev_iter: 0,
            done: false,
        }
    }

    /// [`nodes`](AtrcTrace::nodes), decoded ahead of the reader on a
    /// second thread: the same items in the same order, including the
    /// closing `L0280`, handed over a block's worth at a time. It costs
    /// one thread and up to 18 blocks of decoded nodes, so it suits one
    /// long streamed run; runs that already fill every core (a sweep's
    /// workers) should read [`nodes`](AtrcTrace::nodes) inline. If the
    /// thread cannot be spawned, the stream decodes inline instead.
    #[must_use]
    pub fn nodes_ahead(&self) -> AtrcNodesAhead {
        AtrcNodesAhead::start(self, thread::Builder::new().name("atrc-decode".into()))
    }

    /// Fully decode into a materialized [`Trace`].
    ///
    /// # Errors
    ///
    /// Returns an `L0280` diagnostic if any node fails to decode or the
    /// decoded trace violates the [`Trace::check`] invariants.
    pub fn decode(&self) -> Result<Trace, Diagnostic> {
        // The footer's count is a hint, never trusted past the encoded size.
        let hint = self.node_count().min(self.encoded_bytes());
        let mut nodes = Vec::with_capacity(usize::try_from(hint).unwrap_or(0));
        for node in self.nodes() {
            nodes.push(node?);
        }
        let trace = Trace::new(self.name().to_owned(), nodes, self.arrays().to_vec());
        let report = trace.check();
        if report.has_errors() {
            return Err(corrupt(format!(
                "decoded trace violates structural invariants: {}",
                report
                    .first_error()
                    .map(|d| d.message.clone())
                    .unwrap_or_default()
            )));
        }
        Ok(trace)
    }

    /// Aggregate statistics, via one streaming pass over the nodes.
    ///
    /// # Errors
    ///
    /// Returns an `L0280` diagnostic if any node fails to decode.
    pub fn stats(&self) -> Result<TraceStats, Diagnostic> {
        let mut acc = StatsAccumulator::new();
        for node in self.nodes() {
            acc.push(&node?);
        }
        Ok(acc.finish())
    }
}

impl fmt::Display for AtrcTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} nodes, {} arrays, {} encoded bytes",
            self.name(),
            self.node_count(),
            self.arrays().len(),
            self.encoded_bytes()
        )
    }
}

/// Streaming iterator over the nodes of an [`AtrcTrace`].
///
/// Reads the blocks in chunks into buffers it reuses and holds one
/// decoded block at a time, so peak transient memory is O(block), not
/// O(trace).
#[derive(Debug)]
pub struct AtrcNodeIter {
    env: Arc<Envelope>,
    blocks: Cursor,
    /// The current block's node records.
    block: Vec<u8>,
    /// The current block's payload as stored, when RLE-compressed.
    packed: Vec<u8>,
    block_pos: usize,
    /// The current block's first node id and its header's node count.
    block_first: u64,
    block_nodes: u64,
    next_id: u64,
    prev_addr: u64,
    prev_iter: u32,
    done: bool,
}

impl AtrcNodeIter {
    /// Read and unpack the next block, or `Ok(false)` at the footer.
    fn load_block(&mut self) -> Result<bool, Diagnostic> {
        if self.blocks.remaining() == 0 {
            return Ok(false);
        }
        let Frame::Block { nodes, mode, len } = frame(&mut self.blocks)? else {
            return Err(corrupt(format!(
                "expected block tag, found {TAG_FOOTER:#04x}"
            )));
        };
        let payload = if mode == MODE_RAW {
            &mut self.block
        } else {
            &mut self.packed
        };
        payload.clear();
        self.blocks
            .take_with(len, |p| payload.extend_from_slice(p))?;
        if mode == MODE_RLE {
            let budget = usize::try_from(nodes.saturating_mul(64)).unwrap_or(usize::MAX);
            rle_decompress(&self.packed, budget.max(1 << 20), &mut self.block)?;
        }
        self.block_pos = 0;
        self.block_first = self.next_id;
        self.block_nodes = nodes;
        Ok(true)
    }

    /// The block just finished must hold as many nodes as its header
    /// states.
    fn check_block(&self) -> Result<(), Diagnostic> {
        let decoded = self.next_id - self.block_first;
        if decoded == self.block_nodes {
            return Ok(());
        }
        Err(corrupt(format!(
            "the block at node {} holds {decoded} nodes but its header states {}",
            self.block_first, self.block_nodes
        )))
    }

    /// At the footer, after [`verify`](Self::verify): the blocks must hold
    /// as many nodes as the footer states.
    fn check_total(&self) -> Result<(), Diagnostic> {
        if self.next_id == self.env.node_count {
            return Ok(());
        }
        Err(corrupt(format!(
            "the footer states {} nodes but the blocks hold {}",
            self.env.node_count, self.next_id
        )))
    }

    /// At the footer: the bytes read must hash to the checksum validated
    /// at open.
    fn verify(&mut self) -> Result<(), Diagnostic> {
        let mut check = std::mem::take(&mut self.blocks.hash);
        check.write(&self.env.foot);
        if check.finish() == self.env.checksum {
            Ok(())
        } else {
            Err(corrupt(
                "checksum mismatch: the .atrc trace changed after it was opened",
            ))
        }
    }

    fn decode_node(&mut self) -> Result<TraceNode, Diagnostic> {
        let id = self.next_id;
        let mut r = ByteReader::new(&self.block);
        r.pos = self.block_pos;
        let op = r.u8()?;
        let opcode = *OPCODE_TABLE
            .get(usize::from(op))
            .ok_or_else(|| corrupt(format!("unknown opcode byte {op} in node {id}")))?;
        let dep_count = usize::try_from(r.varint()?)
            .map_err(|_| corrupt("dependence count overflows usize"))?;
        if dep_count as u64 > id {
            return Err(corrupt(format!(
                "node {id} claims {dep_count} dependences but only {id} predecessors exist"
            )));
        }
        let mut deps = DepList::new();
        for _ in 0..dep_count {
            let delta = r.varint()?;
            let dep = id
                .checked_sub(delta)
                .filter(|_| delta > 0)
                .ok_or_else(|| corrupt(format!("node {id} has a non-backward dependence")))?;
            deps.push(NodeId::from_index(
                usize::try_from(dep).expect("dep < id fits usize"),
            ));
        }
        let mem = match r.u8()? {
            0 => None,
            tag @ (1 | 2) => {
                let array = r.varint()?;
                if array >= self.env.arrays.len() as u64 {
                    return Err(corrupt(format!(
                        "node {id} references unknown array {array}"
                    )));
                }
                let addr = (self.prev_addr as i64)
                    .checked_add(unzigzag(r.varint()?))
                    .filter(|&a| a >= 0)
                    .ok_or_else(|| corrupt(format!("node {id} address underflows")))?
                    as u64;
                let bytes =
                    u32::try_from(r.varint()?).map_err(|_| corrupt("access size overflows u32"))?;
                self.prev_addr = addr;
                Some(MemRef {
                    array: ArrayId::from_index(
                        usize::try_from(array).expect("array index fits usize"),
                    ),
                    addr,
                    bytes,
                    kind: if tag == 1 {
                        MemAccessKind::Read
                    } else {
                        MemAccessKind::Write
                    },
                })
            }
            other => return Err(corrupt(format!("unknown memory tag {other} in node {id}"))),
        };
        let iteration = i64::from(self.prev_iter)
            .checked_add(unzigzag(r.varint()?))
            .and_then(|i| u32::try_from(i).ok())
            .ok_or_else(|| corrupt(format!("node {id} iteration label out of range")))?;
        self.prev_iter = iteration;
        self.block_pos = r.pos;
        self.next_id += 1;
        let node = TraceNode {
            id: NodeId::from_index(usize::try_from(id).expect("node count fits usize")),
            opcode,
            deps,
            mem,
            iteration,
        };
        match node.mem_violation(&self.env.arrays) {
            Some(d) => Err(corrupt(d.message)),
            None => Ok(node),
        }
    }
}

impl Iterator for AtrcNodeIter {
    type Item = Result<TraceNode, Diagnostic>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.block_pos >= self.block.len() {
            match self.check_block().and_then(|()| self.load_block()) {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return self
                        .verify()
                        .and_then(|()| self.check_total())
                        .err()
                        .map(Err);
                }
                Err(d) => {
                    self.done = true;
                    return Some(Err(d));
                }
            }
        }
        let node = self.decode_node();
        self.done = node.is_err();
        Some(node)
    }
}

/// Batches a decode-ahead stream keeps in flight between its decoder
/// thread and its reader. Sixteen blocks (65,536 nodes, ~3.7 MB) carry a
/// reader that keeps only a few nodes resident through the few
/// milliseconds a busy host may deschedule the decoder; with two, such a
/// reader waits on the channel instead.
const AHEAD_BATCHES: usize = 16;

/// What the decoder thread hands across: a batch of nodes, stored in
/// reverse so the reader can move them out from the back, or the error
/// that ended the stream.
type Batch = Result<Vec<TraceNode>, Diagnostic>;

/// Streaming iterator over the nodes of an [`AtrcTrace`], decoded ahead
/// of the reader on a thread of its own; see
/// [`AtrcTrace::nodes_ahead`].
///
/// The thread runs an [`AtrcNodeIter`] and sends its nodes in batches of
/// one `.atrc` block's worth (4096) through a channel sixteen batches
/// deep; the reader hands emptied batches back for reuse, so at most 18
/// batches exist at once. Items, their order and the closing `L0280`
/// are exactly those of [`AtrcTrace::nodes`]. Dropping the iterator
/// disconnects the channel and joins the thread, so an abandoned or
/// failed stream never leaves its decoder running.
#[derive(Debug)]
pub struct AtrcNodesAhead(Ahead);

#[derive(Debug)]
enum Ahead {
    /// The thread could not be started: decode on the reader's thread.
    Inline(AtrcNodeIter),
    Thread(Decoder),
}

#[derive(Debug)]
struct Decoder {
    /// The batch being read, in reverse.
    batch: Vec<TraceNode>,
    /// `None` once the stream has ended.
    batches: Option<Receiver<Batch>>,
    spare: SyncSender<Vec<TraceNode>>,
    thread: Option<JoinHandle<()>>,
}

impl AtrcNodesAhead {
    /// Start `nodes` of `trace` on a thread built by `builder`, or read
    /// them inline if it cannot be spawned.
    fn start(trace: &AtrcTrace, builder: thread::Builder) -> Self {
        let (to_reader, batches) = sync_channel(AHEAD_BATCHES);
        // Room for every batch but the one the decoder is filling.
        let (spare, spares) = sync_channel(AHEAD_BATCHES + 1);
        let nodes = trace.nodes();
        match builder.spawn(move || decode_ahead(nodes, &to_reader, &spares)) {
            Ok(thread) => AtrcNodesAhead(Ahead::Thread(Decoder {
                batch: Vec::new(),
                batches: Some(batches),
                spare,
                thread: Some(thread),
            })),
            Err(_) => AtrcNodesAhead(Ahead::Inline(trace.nodes())),
        }
    }
}

/// The decoder thread: fill batches from `nodes` and send them until the
/// nodes end, an error ends them (sent once, after the last good batch),
/// or the reader hangs up.
fn decode_ahead(
    mut nodes: AtrcNodeIter,
    to_reader: &SyncSender<Batch>,
    spares: &Receiver<Vec<TraceNode>>,
) {
    loop {
        let mut batch = spares
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(BLOCK_NODES));
        let mut error = None;
        for node in nodes.by_ref() {
            match node {
                Ok(node) => batch.push(node),
                Err(d) => {
                    error = Some(d);
                    break;
                }
            }
            if batch.len() == BLOCK_NODES {
                break;
            }
        }
        // A short batch is the last: the nodes ended, cleanly or not.
        let last = batch.len() < BLOCK_NODES;
        batch.reverse();
        if !batch.is_empty() && to_reader.send(Ok(batch)).is_err() {
            return;
        }
        if let Some(d) = error {
            let _ = to_reader.send(Err(d));
        }
        if last {
            return;
        }
    }
}

impl Decoder {
    fn next(&mut self) -> Option<Result<TraceNode, Diagnostic>> {
        loop {
            if let Some(node) = self.batch.pop() {
                return Some(Ok(node));
            }
            let received = self.batches.as_ref()?.recv();
            match received {
                Ok(Ok(batch)) => {
                    let empty = std::mem::replace(&mut self.batch, batch);
                    // A full or closed return channel just drops the spare.
                    let _ = self.spare.try_send(empty);
                }
                Ok(Err(d)) => {
                    self.finish();
                    return Some(Err(d));
                }
                Err(RecvError) => {
                    self.finish();
                    return None;
                }
            }
        }
    }

    /// Hang up and join the thread; a decoder panic resumes here, as it
    /// would have on an inline decode.
    fn finish(&mut self) {
        self.batches = None;
        if let Some(thread) = self.thread.take() {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for Decoder {
    fn drop(&mut self) {
        // Disconnect first: a decoder blocked on a full channel wakes
        // with an error and returns.
        self.batches = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Iterator for AtrcNodesAhead {
    type Item = Result<TraceNode, Diagnostic>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            Ahead::Inline(nodes) => nodes.next(),
            Ahead::Thread(decoder) => decoder.next(),
        }
    }
}

/// Incremental [`TraceStats`] accumulator for streaming consumers: feeding
/// every node of a trace in order yields exactly
/// [`Trace::stats`](Trace::stats) of the materialized equivalent.
#[derive(Debug, Clone, Default)]
pub struct StatsAccumulator {
    stats: TraceStats,
    max_iter: Option<u32>,
}

impl StatsAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one node in.
    pub fn push(&mut self, node: &TraceNode) {
        self.stats.nodes += 1;
        self.stats.per_class[node.opcode.fu_class().index()] += 1;
        self.stats.edges += node.deps.len();
        if let Some(m) = &node.mem {
            match m.kind {
                MemAccessKind::Read => {
                    self.stats.loads += 1;
                    self.stats.load_bytes += u64::from(m.bytes);
                }
                MemAccessKind::Write => {
                    self.stats.stores += 1;
                    self.stats.store_bytes += u64::from(m.bytes);
                }
            }
        }
        self.max_iter = Some(
            self.max_iter
                .map_or(node.iteration, |m| m.max(node.iteration)),
        );
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn finish(&self) -> TraceStats {
        let mut s = self.stats;
        s.iterations = self.max_iter.map_or(0, |m| m as usize + 1);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayKind, Tracer};

    fn sample_trace() -> Trace {
        let mut t = Tracer::new("atrc-sample");
        let a = t.array_f64("a", &[1.0, 2.0, 3.0, 4.0], ArrayKind::Input);
        let mut o = t.array_f64("o", &[0.0; 4], ArrayKind::Output);
        for i in 0..4 {
            t.begin_iteration(i as u32);
            let x = t.load(&a, i);
            let y = t.binop(Opcode::FMul, x, x);
            t.store(&mut o, i, y);
        }
        t.finish()
    }

    fn assert_traces_equal(a: &Trace, b: &Trace) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.arrays(), b.arrays());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn round_trips_bit_exactly() {
        let trace = sample_trace();
        let bytes = encode_trace(&trace);
        let atrc = AtrcTrace::from_bytes(bytes.clone()).expect("valid");
        assert_eq!(atrc.name(), trace.name());
        assert_eq!(atrc.node_count(), trace.nodes().len() as u64);
        assert_eq!(atrc.fingerprint(), trace.fingerprint());
        assert_eq!(atrc.arrays(), trace.arrays());
        let decoded = atrc.decode().expect("decodes");
        assert_traces_equal(&trace, &decoded);
        // encode(decode(bytes)) is byte-identical too.
        assert_eq!(encode_trace(&decoded), bytes);
    }

    #[test]
    fn streaming_stats_match_materialized() {
        let trace = sample_trace();
        let atrc = AtrcTrace::from_bytes(encode_trace(&trace)).expect("valid");
        assert_eq!(atrc.stats().expect("decodes"), trace.stats());
        assert_eq!(atrc.input_bytes(), trace.input_bytes());
        assert_eq!(atrc.output_bytes(), trace.output_bytes());
    }

    #[test]
    fn truncation_and_corruption_are_l0280() {
        let bytes = encode_trace(&sample_trace());
        // Truncation: drop the tail.
        let err = AtrcTrace::from_bytes(bytes[..bytes.len() - 5].to_vec())
            .expect_err("truncated file must fail");
        assert_eq!(err.code, "L0280");
        // Corruption: flip one payload byte (checksum catches it).
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        let err = AtrcTrace::from_bytes(bad).expect_err("corrupt file must fail");
        assert_eq!(err.code, "L0280");
        // Not a trace at all.
        let err = AtrcTrace::from_bytes(b"definitely not a trace at all....".to_vec())
            .expect_err("garbage must fail");
        assert_eq!(err.code, "L0280");
    }

    /// A version-1 file (byte-wise FNV checksum) is refused by its
    /// version, before the checksum it defines differently is compared.
    #[test]
    fn version_one_files_are_refused_by_version() {
        let mut bytes = encode_trace(&sample_trace());
        bytes[ATRC_MAGIC.len()] = 1;
        let err = AtrcTrace::from_bytes(bytes).expect_err("v1 must be refused");
        assert_eq!(err.code, "L0280");
        assert!(
            err.message.contains("unsupported .atrc version 1")
                && err.message.contains("re-capture"),
            "{}",
            err.message
        );
    }

    #[test]
    fn streamed_nodes_obey_trace_check() {
        let trace = sample_trace();
        let load = trace
            .nodes()
            .iter()
            .position(|n| n.opcode == Opcode::Load)
            .expect("sample has a load");
        let past_end = |n: &mut TraceNode| {
            let arr = &trace.arrays()[n.mem.expect("load").array.index()];
            n.mem.as_mut().expect("load").addr = arr.base_addr + arr.size_bytes();
        };
        let no_memref = |n: &mut TraceNode| n.mem = None;
        for breakage in [&past_end as &dyn Fn(&mut TraceNode), &no_memref] {
            let mut nodes = trace.nodes().to_vec();
            breakage(&mut nodes[load]);
            let bad = Trace::new("bad".to_string(), nodes, trace.arrays().to_vec());
            let atrc = AtrcTrace::from_bytes(encode_trace(&bad)).expect("envelope is intact");
            let err = atrc
                .nodes()
                .find_map(Result::err)
                .expect("the broken node is refused");
            assert_eq!(err.code, "L0280");
            assert!(atrc.stats().is_err());
        }
    }

    /// The footer's node count is only a capacity hint: an absurd one
    /// must not abort the decode, and it must not pass for the nodes the
    /// blocks hold.
    #[test]
    fn absurd_footer_node_count_is_not_trusted() {
        let mut bytes = b"ATRC\x02\x05empty".to_vec();
        bytes.extend([TAG_FOOTER, 0]);
        put_varint(&mut bytes, u64::MAX >> 4);
        bytes.extend([0u8; 16]);
        let atrc = AtrcTrace::from_bytes(seal(bytes)).expect("a well-formed envelope");
        assert_eq!(atrc.node_count(), u64::MAX >> 4);
        let err = atrc.decode().expect_err("the footer overstates the nodes");
        assert_eq!(err.code, "L0280");
        assert!(err.message.contains("footer states"), "{err}");
    }

    /// Append the checksum trailer to everything before it.
    fn seal(mut bytes: Vec<u8>) -> Vec<u8> {
        let check = atrc_checksum(&bytes);
        bytes.extend(check.to_le_bytes());
        bytes.extend(ATRC_END_MAGIC);
        bytes
    }

    /// Decoding `bytes` must end in `L0280` naming `what`, on every path.
    fn assert_count_refused(bytes: Vec<u8>, what: &str) {
        let atrc = AtrcTrace::from_bytes(bytes).expect("a well-formed envelope");
        let err = atrc.decode().expect_err("the counts disagree");
        assert_eq!(err.code, "L0280");
        assert!(err.message.contains(what), "{err}");
        assert!(atrc.stats().is_err());
        assert!(atrc.nodes().last().expect("an item").is_err());
    }

    #[test]
    fn resealed_footer_one_node_short_is_l0280() {
        let trace = sample_trace();
        let n = trace.nodes().len() as u64;
        let mut bytes = encode_trace(&trace);
        bytes.truncate(bytes.len() - TRAILER);
        let fingerprint = bytes.split_off(bytes.len() - 16);
        // The node count is the footer's last varint.
        let mut start = bytes.len() - 1;
        while bytes[start - 1] & 0x80 != 0 {
            start -= 1;
        }
        assert_eq!(
            ByteReader::new(&bytes[start..]).varint().expect("varint"),
            n
        );
        bytes.truncate(start);
        put_varint(&mut bytes, n - 1);
        bytes.extend(fingerprint);
        let bytes = seal(bytes);
        assert_eq!(
            AtrcTrace::from_bytes(bytes.clone())
                .expect("valid")
                .node_count(),
            n - 1
        );
        assert_count_refused(bytes, "footer states");
    }

    #[test]
    fn block_header_count_must_match_its_nodes() {
        let trace = sample_trace();
        let mut bytes = encode_trace(&trace);
        // Magic, version, the name's length byte and the name.
        let block = ATRC_MAGIC.len() + 2 + trace.name().len();
        assert_eq!(bytes[block], TAG_BLOCK);
        let nodes = trace.nodes().len();
        assert!(nodes < 127, "the sample's block count fits one varint byte");
        assert_eq!(usize::from(bytes[block + 1]), nodes);
        bytes[block + 1] += 1;
        bytes.truncate(bytes.len() - TRAILER);
        assert_count_refused(seal(bytes), "header states");
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Tracer::new("empty").finish();
        let atrc = AtrcTrace::from_bytes(encode_trace(&trace)).expect("valid");
        assert_eq!(atrc.node_count(), 0);
        assert_eq!(atrc.nodes().count(), 0);
        let decoded = atrc.decode().expect("decodes");
        assert_traces_equal(&trace, &decoded);
    }

    #[test]
    fn rle_round_trips() {
        let cases: [&[u8]; 5] = [
            b"",
            b"abc",
            b"aaaaaaaaaaaaaaaa",
            b"abbbbbbbcdddddddddddddddddddddefg",
            &[0u8; 1000],
        ];
        for case in cases {
            let packed = rle_compress(case);
            let mut unpacked = Vec::new();
            rle_decompress(&packed, case.len().max(1), &mut unpacked).expect("valid");
            assert_eq!(unpacked, case);
        }
        // Long uniform runs actually compress.
        assert!(rle_compress(&[7u8; 4096]).len() < 100);
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            buf.clear();
            put_varint(&mut buf, v);
            assert_eq!(ByteReader::new(&buf).varint().expect("valid"), v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn file_round_trip_via_open() {
        let trace = sample_trace();
        let dir = std::path::PathBuf::from("target/test-atrc");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sample.atrc");
        std::fs::write(&path, encode_trace(&trace)).expect("write");
        let atrc = AtrcTrace::open(&path).expect("opens");
        assert_traces_equal(&trace, &atrc.decode().expect("decodes"));
        let missing = AtrcTrace::open(dir.join("missing.atrc")).expect_err("missing file");
        assert_eq!(missing.code, "L0280");
    }

    /// A trace of `blocks` full blocks plus a few nodes.
    fn multi_block_trace(blocks: usize) -> AtrcTrace {
        let mut t = Tracer::new("multi-block");
        let a = t.array_f64("a", &[1.0; 64], ArrayKind::Input);
        let mut i = 0;
        while t.len() < blocks * BLOCK_NODES + 5 {
            t.begin_iteration(i);
            let x = t.load(&a, i as usize % 64);
            t.binop(Opcode::FMul, x, x);
            i += 1;
        }
        AtrcTrace::from_bytes(encode_trace(&t.finish())).expect("valid")
    }

    #[test]
    fn a_dropped_stream_has_joined_its_decoder() {
        // More blocks than the channel holds, so early drops find the
        // decoder blocked on a full channel.
        let atrc = multi_block_trace(AHEAD_BATCHES + 3);
        let total = usize::try_from(atrc.node_count()).expect("fits");
        for k in [0, 1, BLOCK_NODES, 2 * BLOCK_NODES + 1, total, total + 1] {
            let mut ahead = atrc.nodes_ahead();
            assert!(matches!(ahead.0, Ahead::Thread(_)));
            assert!(ahead.by_ref().take(k).all(|n| n.is_ok()));
            drop(ahead);
            // The decoder thread owned the only other handle on the
            // source; it is gone once the stream is.
            assert_eq!(Arc::strong_count(&atrc.source), 1, "dropped after {k}");
        }
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn a_decoder_that_cannot_start_decodes_inline() {
        let atrc = multi_block_trace(2);
        // No system maps a 2^60-byte stack, so the spawn fails and no
        // thread starts.
        let ahead = AtrcNodesAhead::start(&atrc, thread::Builder::new().stack_size(1 << 60));
        assert!(matches!(ahead.0, Ahead::Inline(_)));
        assert!(ahead.eq(atrc.nodes()));
    }
}
