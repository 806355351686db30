//! Hand-written codecs for the per-point path.
//!
//! A point passes through three encodings on its way through the
//! engine: its identity (the fingerprint), its cache record, and its
//! JSON line (server events, lease batch frames, trace lines). Each is
//! written here straight from the typed fields, with no intermediate
//! `Value` tree:
//!
//! * the point's fixed field order and framing, which the fingerprint
//!   ([`crate::fingerprint`]) hashes and the cache record stores.
//! * [`encode_record`] / [`decode_record`] — the binary `PointResult`
//!   record the result cache keeps under each fingerprint.
//! * [`JsonF64`], [`JsonStr`] and [`PointResult::write_json`] — the one
//!   JSON writer, byte-identical to the serde rendering.

use std::fmt::{self, Write as _};

use crate::grid::ScenarioPoint;
use crate::runner::PointResult;

/// Where the point's framed fields go: a hasher or a byte buffer.
pub(crate) trait Sink {
    /// Append raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// A little-endian `u64`.
    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// An `f64` as its IEEE-754 bits (so `-0.0` and `0.0` differ).
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A string: its byte length as a little-endian `u64`, then its
    /// UTF-8 bytes.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.put(s.as_bytes());
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Streaming 64-bit FNV-1a; [`crate::grid::fnv1a`] is its one-shot
/// form.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    /// A hasher whose offset basis is XORed with `seed`.
    pub(crate) fn new(seed: u64) -> Fnv {
        Fnv(0xcbf29ce484222325 ^ seed)
    }
}

impl Sink for Fnv {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// Write every field of `point` except `index`, in declaration order:
/// `workload`, `steps`, `machine`, `kernel`, `mode`, `threads` (`u32`),
/// `io_block`, `sample_rate`, `fs`, `atoms`, `sample_order`,
/// `profile_machine`, `noise_cv`, `seed`. This one order is both the
/// fingerprint's hashed stream and the cache record's point section.
pub(crate) fn write_axes(sink: &mut impl Sink, point: &ScenarioPoint) {
    sink.str(&point.workload);
    sink.u64(point.steps);
    sink.str(&point.machine);
    sink.str(&point.kernel);
    sink.str(&point.mode);
    sink.u32(point.threads);
    sink.u64(point.io_block);
    sink.f64(point.sample_rate);
    sink.str(&point.fs);
    sink.str(&point.atoms);
    sink.str(&point.sample_order);
    sink.str(&point.profile_machine);
    sink.f64(point.noise_cv);
    sink.u64(point.seed);
}

/// Encode a result as the cache's binary record: the point's `index`
/// (`u64`), its other fields in the order and framing
/// [`crate::fingerprint`] hashes them, then `tx`, `app_tx`, `samples`,
/// `directed_cycles`, `consumed_cycles`, `instructions` and
/// `bytes_written` (`u64`s and `f64` bits, little-endian). The
/// fingerprint is not stored: it is the record's key.
pub fn encode_record(result: &PointResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.u64(result.point.index as u64);
    write_axes(&mut out, &result.point);
    out.f64(result.tx);
    out.f64(result.app_tx);
    out.u64(result.samples as u64);
    out.u64(result.directed_cycles);
    out.u64(result.consumed_cycles);
    out.u64(result.instructions);
    out.u64(result.bytes_written);
    out
}

/// Decode a record written by [`encode_record`], stored under
/// `fingerprint`. `None` when the bytes are not exactly one record.
pub fn decode_record(fingerprint: &str, bytes: &[u8]) -> Option<PointResult> {
    let mut r = Reader(bytes);
    let index = usize::try_from(r.u64()?).ok()?;
    let point = ScenarioPoint {
        index,
        workload: r.str()?,
        steps: r.u64()?,
        machine: r.str()?,
        kernel: r.str()?,
        mode: r.str()?,
        threads: r.u32()?,
        io_block: r.u64()?,
        sample_rate: r.f64()?,
        fs: r.str()?,
        atoms: r.str()?,
        sample_order: r.str()?,
        profile_machine: r.str()?,
        noise_cv: r.f64()?,
        seed: r.u64()?,
    };
    let result = PointResult {
        point,
        fingerprint: fingerprint.to_string(),
        tx: r.f64()?,
        app_tx: r.f64()?,
        samples: usize::try_from(r.u64()?).ok()?,
        directed_cycles: r.u64()?,
        consumed_cycles: r.u64()?,
        instructions: r.u64()?,
        bytes_written: r.u64()?,
    };
    r.0.is_empty().then_some(result)
}

/// A cursor over a record; every read is bounds-checked.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if n > self.0.len() {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = usize::try_from(self.u64()?).ok()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).ok().map(str::to_string)
    }
}

/// An `f64` rendered as JSON the way `serde_json` renders it: `null`
/// for non-finite values, a `.0` suffix for integral values below
/// 1e16, Rust's shortest round-trip `Display` otherwise.
#[derive(Debug, Clone, Copy)]
pub struct JsonF64(pub f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if !v.is_finite() {
            f.write_str("null")
        } else if v == v.trunc() && v.abs() < 1e16 {
            write!(f, "{v:.1}")
        } else {
            write!(f, "{v}")
        }
    }
}

/// A string rendered as a quoted JSON string the way `serde_json`
/// escapes it: `"`, `\`, `\n`, `\r`, `\t`, `\b` and `\f` by name, other
/// control characters as `\u00XX`, everything else verbatim.
#[derive(Debug, Clone, Copy)]
pub struct JsonStr<'a>(pub &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        f.write_char('"')?;
        let mut clean = 0;
        for (i, b) in s.bytes().enumerate() {
            let named = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0x00..=0x1f => "",
                _ => continue,
            };
            // Every escaped byte is ASCII, so `i` is a char boundary.
            f.write_str(&s[clean..i])?;
            if named.is_empty() {
                write!(f, "\\u{b:04x}")?;
            } else {
                f.write_str(named)?;
            }
            clean = i + 1;
        }
        f.write_str(&s[clean..])?;
        f.write_char('"')
    }
}

impl PointResult {
    /// Append this result as compact JSON, byte-identical to
    /// `serde_json::to_string(self)` (keys in sorted order).
    pub fn write_json(&self, out: &mut String) {
        let p = &self.point;
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"app_tx\":{},\"bytes_written\":{},\"consumed_cycles\":{},\
             \"directed_cycles\":{},\"fingerprint\":{},\"instructions\":{},\
             \"point\":{{\"atoms\":{},\"fs\":{},\"index\":{},\"io_block\":{},\
             \"kernel\":{},\"machine\":{},\"mode\":{},\"noise_cv\":{},\
             \"profile_machine\":{},\"sample_order\":{},\"sample_rate\":{},\
             \"seed\":{},\"steps\":{},\"threads\":{},\"workload\":{}}},\
             \"samples\":{},\"tx\":{}}}",
            JsonF64(self.app_tx),
            self.bytes_written,
            self.consumed_cycles,
            self.directed_cycles,
            JsonStr(&self.fingerprint),
            self.instructions,
            JsonStr(&p.atoms),
            JsonStr(&p.fs),
            p.index,
            p.io_block,
            JsonStr(&p.kernel),
            JsonStr(&p.machine),
            JsonStr(&p.mode),
            JsonF64(p.noise_cv),
            JsonStr(&p.profile_machine),
            JsonStr(&p.sample_order),
            JsonF64(p.sample_rate),
            p.seed,
            p.steps,
            p.threads,
            JsonStr(&p.workload),
            self.samples,
            JsonF64(self.tx),
        );
    }
}
