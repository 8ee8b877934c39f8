//! The length-prefixed wire protocol.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload, whose first byte is an opcode. Requests
//! and responses share the framing; response opcodes have the high
//! bit set. The format is deliberately trivial — no negotiation, no
//! compression, no pipelining — because the interesting machinery
//! (sessions, admission control, shared slave pool) lives behind it.
//!
//! ## Requests
//!
//! | opcode | name            | body                                   |
//! |--------|-----------------|----------------------------------------|
//! | 0x01   | `EXECUTE`       | `str32` SQL text                       |
//! | 0x02   | `PREPARE`       | `str16` name, `str32` SQL              |
//! | 0x03   | `EXEC_PREPARED` | `str16` name, `u16` n, n × value       |
//! | 0x04   | `DEALLOCATE`    | `str16` name                           |
//! | 0x05   | `METRICS`       | —                                      |
//! | 0x06   | `PING`          | —                                      |
//! | 0x07   | `CLOSE`         | —                                      |
//!
//! ## Responses
//!
//! | opcode | name       | body                                            |
//! |--------|------------|-------------------------------------------------|
//! | 0x81   | `RESULT`   | `u16` ncols, ncols × `str16`, `u32` nrows, rows |
//! | 0x82   | `ERROR`    | `u8` kind, `str32` message                      |
//! | 0x83   | `PONG`     | —                                               |
//! | 0x84   | `TEXT`     | `str32` (metrics exposition)                    |
//! | 0x85   | `PREPARED` | `u16` bind-parameter count                      |
//!
//! `str16`/`str32` are UTF-8 bytes behind a LE `u16`/`u32` length.
//! Values are tagged: 0 NULL; 1 integer (`i64` LE); 2 double (`f64`
//! bits LE); 3 text (`str32`); 4 rowid (`u64` LE); 5 geometry as WKT
//! (`str32`) — geometry crosses the wire in its text form, so clients
//! need no geometry codec.
//!
//! ## One write per frame
//!
//! [`Encoder`] reserves the length slot up front, so
//! [`Encoder::finish`] yields a complete [`Frame`] and [`write_frame`]
//! hands it to the socket in one `write_all`: one syscall, and no
//! second copy of a result that may be 64 MiB. Both ends also set
//! `TCP_NODELAY`. Neither alone is enough: a frame written as header
//! then payload lets Nagle's algorithm hold the payload back until the
//! peer ACKs the header, and the peer, blocked reading the rest of the
//! frame, delays that ACK by the kernel's 40 ms minimum. Every round
//! trip would pay that floor, whatever the query.
//!
//! Encoding is fallible. A `str16` or `u16` count past 65 535, or a
//! payload past [`MAX_FRAME`], makes `finish` return an error instead
//! of truncating a length prefix and desyncing the stream. Nothing has
//! been written by then, so the connection stays usable.

use sdo_storage::{RowId, Value};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Largest frame either side accepts (64 MiB). A length prefix past
/// this is treated as a corrupt stream, not an allocation request.
pub const MAX_FRAME: u32 = 64 << 20;

/// Request opcodes (client → server).
pub mod req {
    /// Parse + execute one SQL statement.
    pub const EXECUTE: u8 = 0x01;
    /// Cache a parsed statement under a name.
    pub const PREPARE: u8 = 0x02;
    /// Execute a prepared statement with bind values.
    pub const EXEC_PREPARED: u8 = 0x03;
    /// Drop a prepared statement.
    pub const DEALLOCATE: u8 = 0x04;
    /// Fetch the metrics exposition text.
    pub const METRICS: u8 = 0x05;
    /// Liveness probe.
    pub const PING: u8 = 0x06;
    /// Orderly connection shutdown.
    pub const CLOSE: u8 = 0x07;
}

/// Response opcodes (server → client).
pub mod resp {
    /// Tabular result.
    pub const RESULT: u8 = 0x81;
    /// Statement failed; body is an [`ErrorKind`](super::ErrorKind)
    /// byte plus a message.
    pub const ERROR: u8 = 0x82;
    /// Reply to `PING`.
    pub const PONG: u8 = 0x83;
    /// Plain-text body (metrics).
    pub const TEXT: u8 = 0x84;
    /// Reply to `PREPARE`: bind-parameter count.
    pub const PREPARED: u8 = 0x85;
}

/// Classifies server-reported errors so clients (and the saturation
/// bench) can distinguish engine errors from admission pushback
/// without parsing message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Engine/SQL error: the statement itself failed.
    Statement,
    /// Admission control rejected the statement (budget exceeded,
    /// queue full, or queue wait timed out). The connection stays
    /// usable; retrying later may succeed.
    Admission,
    /// The request frame could not be decoded.
    Protocol,
}

impl ErrorKind {
    /// Wire byte for this kind.
    pub fn code(self) -> u8 {
        match self {
            ErrorKind::Statement => 0,
            ErrorKind::Admission => 1,
            ErrorKind::Protocol => 2,
        }
    }

    /// Decode a wire byte (unknown codes map to `Statement`).
    pub fn from_code(c: u8) -> Self {
        match c {
            1 => ErrorKind::Admission,
            2 => ErrorKind::Protocol,
            _ => ErrorKind::Statement,
        }
    }
}

/// Read one frame payload (opcode byte included) from `r`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad frame length {len}")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// One complete frame, length prefix included, as built by
/// [`Encoder::finish`]. Its payload is non-empty and at most
/// [`MAX_FRAME`] bytes by construction, so a frame that exists can be
/// written without desyncing the peer.
pub struct Frame {
    bytes: Vec<u8>,
}

impl Frame {
    /// The payload (opcode byte included), without the length prefix.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[4..]
    }
}

/// Write one frame in a single `write_all`.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.bytes)?;
    w.flush()
}

/// Incremental encoder for one frame. The 4-byte length slot is
/// reserved up front and filled in by [`finish`](Self::finish).
///
/// The first length overflow is kept and reported by `finish`; the
/// frame will never be sent, so later appends do no harm.
pub struct Encoder {
    buf: Vec<u8>,
    overflow: Option<String>,
}

impl Encoder {
    /// Start a frame whose payload opens with `opcode`.
    pub fn new(opcode: u8) -> Self {
        Encoder { buf: vec![0, 0, 0, 0, opcode], overflow: None }
    }

    /// Append a raw byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append `n` as a LE `u16` count; past `u16::MAX` it fails the
    /// frame, with `what` naming the count in the error.
    pub fn count16(&mut self, what: &str, n: usize) -> &mut Self {
        match u16::try_from(n) {
            Ok(v) => self.buf.extend_from_slice(&v.to_le_bytes()),
            Err(_) => self.fail(format!("{what} {n} exceeds the wire limit of {}", u16::MAX)),
        }
        self
    }

    /// Append a LE `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `str16` (length-prefixed short string); past
    /// `u16::MAX` bytes it fails the frame, with `what` naming the
    /// string in the error.
    pub fn str16(&mut self, what: &str, s: &str) -> &mut Self {
        match u16::try_from(s.len()) {
            Ok(n) => {
                self.buf.extend_from_slice(&n.to_le_bytes());
                self.buf.extend_from_slice(s.as_bytes());
            }
            Err(_) => self.fail(format!(
                "{what} of {} bytes exceeds the wire limit of {} bytes",
                s.len(),
                u16::MAX
            )),
        }
        self
    }

    fn fail(&mut self, msg: String) {
        self.overflow.get_or_insert(msg);
    }

    /// Append a `str32` (length-prefixed string). A string too long for
    /// its `u32` prefix is past [`MAX_FRAME`] too, so `finish` refuses
    /// the frame.
    pub fn str32(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Append one tagged [`Value`].
    pub fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Null => {
                self.u8(0);
            }
            Value::Integer(i) => {
                self.u8(1);
                self.buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Double(d) => {
                self.u8(2);
                self.buf.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                self.u8(3);
                self.str32(s);
            }
            Value::RowId(rid) => {
                self.u8(4);
                self.buf.extend_from_slice(&rid.0.to_le_bytes());
            }
            Value::Geometry(g) => {
                self.u8(5);
                let wkt = sdo_geom::wkt::to_wkt(g);
                self.str32(&wkt);
            }
        }
        self
    }

    /// Fill in the length prefix, yielding the complete frame. Fails
    /// on the first length overflow, or on a payload past
    /// [`MAX_FRAME`], which the peer would reject as a corrupt stream.
    pub fn finish(mut self) -> io::Result<Frame> {
        if let Some(msg) = self.overflow {
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        let len = self.buf.len() - 4;
        if len > MAX_FRAME as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame payload of {len} bytes exceeds the {} MiB frame limit",
                    MAX_FRAME >> 20
                ),
            ));
        }
        self.buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(Frame { bytes: self.buf })
    }
}

/// Cursor over a received frame payload.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt frame: {what}"))
}

impl<'a> Decoder<'a> {
    /// Decode `payload`, returning the opcode and a cursor over the
    /// body.
    pub fn new(payload: &'a [u8]) -> io::Result<(u8, Self)> {
        let (&opcode, body) = payload.split_first().ok_or_else(|| corrupt("empty payload"))?;
        Ok((opcode, Decoder { buf: body, pos: 0 }))
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt("truncated body"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a LE `u16`.
    pub fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a LE `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `str16`.
    pub fn str16(&mut self) -> io::Result<String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| corrupt("non-UTF-8 string"))
    }

    /// Read a `str32`.
    pub fn str32(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME as usize {
            return Err(corrupt("oversized string"));
        }
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| corrupt("non-UTF-8 string"))
    }

    /// Read one tagged [`Value`].
    pub fn value(&mut self) -> io::Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Integer(i64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            2 => {
                Value::Double(f64::from_bits(u64::from_le_bytes(self.take(8)?.try_into().unwrap())))
            }
            3 => Value::Text(Arc::from(self.str32()?.as_str())),
            4 => Value::RowId(RowId(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))),
            5 => {
                let wkt = self.str32()?;
                let g = sdo_geom::wkt::parse_wkt(&wkt)
                    .map_err(|e| corrupt(&format!("bad geometry WKT: {e}")))?;
                Value::Geometry(Arc::new(g))
            }
            t => return Err(corrupt(&format!("unknown value tag {t}"))),
        })
    }

    /// Whether the cursor consumed the whole body.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Encode a tabular result (columns + value rows) as a `RESULT`
/// frame.
pub fn encode_result(columns: &[String], rows: &[Vec<Value>]) -> io::Result<Frame> {
    let mut e = Encoder::new(resp::RESULT);
    e.count16("column count", columns.len());
    for c in columns {
        e.str16("column name", c);
    }
    e.u32(rows.len() as u32);
    for row in rows {
        for v in row {
            e.value(v);
        }
    }
    e.finish()
}

/// Decode a `RESULT` body (opcode already stripped).
pub fn decode_result(d: &mut Decoder<'_>) -> io::Result<(Vec<String>, Vec<Vec<Value>>)> {
    let ncols = d.u16()? as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(d.str16()?);
    }
    let nrows = d.u32()? as usize;
    let mut rows = Vec::with_capacity(nrows.min(4096));
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(d.value()?);
        }
        rows.push(row);
    }
    Ok((columns, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let g = sdo_geom::wkt::parse_wkt("POLYGON ((0 0, 4 0, 4 4, 0 0))").unwrap();
        let vals = vec![
            Value::Null,
            Value::Integer(-42),
            Value::Double(2.5),
            Value::text("héllo\nworld"),
            Value::RowId(RowId(7)),
            Value::Geometry(Arc::new(g.clone())),
        ];
        let mut e = Encoder::new(resp::RESULT);
        for v in &vals {
            e.value(v);
        }
        let frame = e.finish().unwrap();
        let (op, mut d) = Decoder::new(frame.payload()).unwrap();
        assert_eq!(op, resp::RESULT);
        for v in &vals {
            assert_eq!(&d.value().unwrap(), v);
        }
        assert!(d.at_end());
    }

    #[test]
    fn result_roundtrip() {
        let columns = vec!["A".to_string(), "B".to_string()];
        let rows =
            vec![vec![Value::Integer(1), Value::text("x")], vec![Value::Null, Value::Double(0.5)]];
        let frame = encode_result(&columns, &rows).unwrap();
        let (op, mut d) = Decoder::new(frame.payload()).unwrap();
        assert_eq!(op, resp::RESULT);
        let (c2, r2) = decode_result(&mut d).unwrap();
        assert_eq!(c2, columns);
        assert_eq!(r2, rows);
        assert!(d.at_end());
    }

    #[test]
    fn frame_roundtrip_and_bad_lengths() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Encoder::new(resp::PONG).finish().unwrap()).unwrap();
        assert_eq!(buf, [1, 0, 0, 0, resp::PONG]);
        let payload = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(payload, vec![resp::PONG]);

        // Zero-length and oversized frames are corrupt, not allocations.
        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut zero.as_slice()).is_err());
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());
    }

    /// Counts `write` calls, to pin the one-write-per-frame property.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        let rows: Vec<Vec<Value>> = (0..1000).map(|i| vec![Value::Integer(i)]).collect();
        let frame = encode_result(&["ID".to_string()], &rows).unwrap();
        let mut w = CountingWriter::default();
        write_frame(&mut w, &frame).unwrap();
        assert_eq!(w.writes, 1, "header and payload must leave together");
        assert_eq!(read_frame(&mut w.bytes.as_slice()).unwrap(), frame.payload());
    }

    #[test]
    fn oversized_and_empty_writes_rejected_before_any_bytes() {
        // Every frame carries its opcode, so an empty payload cannot be
        // built; an oversized one fails at `finish`, before a `Frame`
        // (and so any write) exists.
        assert_eq!(Encoder::new(req::PING).finish().unwrap().payload(), [req::PING]);
        let mut e = Encoder::new(resp::TEXT);
        e.str32(&"x".repeat(MAX_FRAME as usize));
        let err = e.finish().err().expect("a payload past MAX_FRAME must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn length_overflows_fail_the_frame_instead_of_truncating() {
        let long = "a".repeat(u16::MAX as usize + 1);
        let mut e = Encoder::new(req::PREPARE);
        e.str16("statement name", &long).str32("SELECT 1");
        let err = e.finish().err().expect("str16 overflow");
        assert!(err.to_string().contains("statement name of 65536 bytes"), "{err}");

        let mut e = Encoder::new(req::EXEC_PREPARED);
        e.count16("parameter count", u16::MAX as usize + 1);
        assert!(e.finish().is_err());

        // At the limit itself the frame is fine and decodes back.
        let edge = "b".repeat(u16::MAX as usize);
        let mut e = Encoder::new(req::DEALLOCATE);
        e.str16("statement name", &edge);
        let frame = e.finish().unwrap();
        let (_, mut d) = Decoder::new(frame.payload()).unwrap();
        assert_eq!(d.str16().unwrap(), edge);
        assert!(d.at_end());
    }

    #[test]
    fn truncated_bodies_error_cleanly() {
        let mut e = Encoder::new(req::EXECUTE);
        e.str32("SELECT 1");
        let frame = e.finish().unwrap();
        let payload = frame.payload();
        // Chop the body mid-string: decoding must fail, not panic.
        let (_, mut d) = Decoder::new(&payload[..payload.len() - 3]).unwrap();
        assert!(d.str32().is_err());
    }
}
