//! The length-prefixed wire protocol of the TCP front end.
//!
//! A connection that wants to speak the allocation protocol opens with the
//! 4-byte magic preface [`MAGIC`] (`b"IBA1"`); the listener sniffs this
//! preface to distinguish protocol clients from HTTP scrapers on the same
//! port. After the preface the stream is a sequence of frames:
//!
//! ```text
//! +----------------+--------+--------------------------+
//! | u32 LE length  | opcode | fields (u64 LE each)     |
//! +----------------+--------+--------------------------+
//!        4 bytes      1 byte     8 bytes per field
//! ```
//!
//! The length covers the opcode byte plus the fields, so every frame is
//! `4 + 1 + 8k` bytes on the wire. Clients send [`Frame::Alloc`]; the
//! server answers each allocation with exactly one of
//! [`Frame::Accepted`], [`Frame::Saturated`] (ingress backpressure — the
//! request was shed, resubmit to retry) or [`Frame::Closed`], and later
//! streams one [`Frame::Completed`] per accepted ticket when its ball is
//! served by a bin.
//!
//! Decoding is incremental ([`FrameDecoder`]): bytes are pushed as they
//! arrive off a non-blocking socket and frames are popped once complete.
//! Truncated input is never an error — the decoder just waits for more
//! bytes — while structurally invalid input (oversized length, unknown
//! opcode, a length that does not match the opcode's field count) is
//! rejected with a [`ProtoError`] so the connection can be dropped.

use std::error::Error;
use std::fmt;

/// The connection preface identifying the allocation protocol (version 1).
pub const MAGIC: [u8; 4] = *b"IBA1";

/// Upper bound on the declared frame length (opcode + fields). The
/// largest real frame ([`Frame::Completed`]) is 41 bytes; anything larger
/// is garbage and rejected before buffering.
pub const MAX_FRAME_LEN: u32 = 64;

/// Why the server refused a request with [`Frame::Closed`] (and, for
/// request id 0, why it is about to hang up the connection).
///
/// The reason travels as a second `u64` field on the `Closed` frame.
/// Version tolerance is deliberate in both directions: decoders accept a
/// reason-less 9-byte `Closed` from old peers (defaulting to
/// [`CloseReason::Shutdown`]), and unknown future codes also map to
/// `Shutdown` — the conservative reading, since every reason means "stop
/// sending on this connection".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CloseReason {
    /// The service has shut down; no further requests will ever be
    /// accepted.
    #[default]
    Shutdown,
    /// The server is draining: it stops admitting but still flushes
    /// in-flight completions. Retry against another instance.
    Drain,
    /// The peer stopped reading and its outbound queue overflowed.
    SlowConsumer,
}

impl CloseReason {
    /// The wire code for this reason. Code 2 is unassigned: older peers
    /// sent it for a per-connection quota refusal, so a new reason must
    /// not reuse it.
    pub fn code(self) -> u64 {
        match self {
            CloseReason::Shutdown => 0,
            CloseReason::Drain => 1,
            CloseReason::SlowConsumer => 3,
        }
    }

    /// Decodes a wire code; unknown codes map to [`CloseReason::Shutdown`]
    /// so newer servers can add reasons without breaking old clients.
    pub fn from_code(code: u64) -> Self {
        match code {
            1 => CloseReason::Drain,
            3 => CloseReason::SlowConsumer,
            _ => CloseReason::Shutdown,
        }
    }
}

impl fmt::Display for CloseReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CloseReason::Shutdown => "shutdown",
            CloseReason::Drain => "drain",
            CloseReason::SlowConsumer => "slow-consumer",
        })
    }
}

/// One protocol frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: submit one allocation request. `req_id` is chosen
    /// by the client and echoed verbatim in the admission reply.
    Alloc {
        /// Client-chosen request correlation id.
        req_id: u64,
    },
    /// Server → client: the request was admitted; `ticket` identifies the
    /// eventual [`Frame::Completed`] notification.
    Accepted {
        /// Echo of the client's request id.
        req_id: u64,
        /// Service-assigned ticket id ([`crate::Ticket`]).
        ticket: u64,
    },
    /// Server → client: the bounded ingress queue was full — the request
    /// was shed (open-loop backpressure). Resubmit to retry.
    Saturated {
        /// Echo of the client's request id.
        req_id: u64,
    },
    /// Server → client: the request was refused and will never be
    /// admitted on this connection; [`CloseReason`] says why (drain vs
    /// shutdown vs slow consumer) so clients can pick a retry strategy.
    Closed {
        /// Echo of the client's request id (0 when the close is not tied
        /// to a specific request, e.g. a slow-consumer disconnect).
        req_id: u64,
        /// Why the server refused.
        reason: CloseReason,
    },
    /// Server → client: the ticket's ball was served.
    Completed {
        /// The ticket from the matching [`Frame::Accepted`].
        ticket: u64,
        /// Global index of the bin that served the request.
        bin: u64,
        /// Round in which the request was admitted into the pool.
        admitted_round: u64,
        /// Round in which a bin served the request.
        served_round: u64,
        /// `served_round − admitted_round` — the paper's waiting time.
        waiting_rounds: u64,
    },
}

const OP_ALLOC: u8 = 1;
const OP_ACCEPTED: u8 = 2;
const OP_SATURATED: u8 = 3;
const OP_CLOSED: u8 = 4;
const OP_COMPLETED: u8 = 5;

/// Canonical payload length (opcode byte + fields) for `opcode` as
/// encoded by this version, or `None` if the opcode is unknown.
///
/// `Closed` is special: this version encodes it with a reason field
/// (17 bytes), but the decoder also accepts the legacy 9-byte form from
/// peers predating [`CloseReason`].
pub fn payload_len(opcode: u8) -> Option<u32> {
    match opcode {
        OP_ALLOC | OP_SATURATED => Some(1 + 8),
        OP_ACCEPTED | OP_CLOSED => Some(1 + 2 * 8),
        OP_COMPLETED => Some(1 + 5 * 8),
        _ => None,
    }
}

/// Legacy reason-less `Closed` payload length, still accepted on decode.
const CLOSED_LEGACY_LEN: u32 = 1 + 8;

impl Frame {
    /// The frame's opcode byte.
    pub fn opcode(&self) -> u8 {
        match self {
            Frame::Alloc { .. } => OP_ALLOC,
            Frame::Accepted { .. } => OP_ACCEPTED,
            Frame::Saturated { .. } => OP_SATURATED,
            Frame::Closed { .. } => OP_CLOSED,
            Frame::Completed { .. } => OP_COMPLETED,
        }
    }

    /// Appends the encoded frame (length prefix + opcode + fields) to
    /// `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let fields: &[u64] = match *self {
            Frame::Alloc { req_id } => &[req_id],
            Frame::Accepted { req_id, ticket } => &[req_id, ticket],
            Frame::Saturated { req_id } => &[req_id],
            Frame::Closed { req_id, reason } => &[req_id, reason.code()],
            Frame::Completed {
                ticket,
                bin,
                admitted_round,
                served_round,
                waiting_rounds,
            } => &[ticket, bin, admitted_round, served_round, waiting_rounds],
        };
        let len = 1 + 8 * fields.len() as u32;
        out.extend_from_slice(&len.to_le_bytes());
        out.push(self.opcode());
        for field in fields {
            out.extend_from_slice(&field.to_le_bytes());
        }
    }

    /// The encoded frame as a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 1 + 5 * 8);
        self.encode_into(&mut out);
        out
    }
}

/// A structural wire-protocol violation. Any of these means the peer is
/// not speaking the protocol; the connection should be dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The declared frame length exceeds [`MAX_FRAME_LEN`].
    Oversize {
        /// The declared length.
        len: u32,
    },
    /// The declared frame length was zero (no opcode byte).
    EmptyFrame,
    /// The opcode byte is not a known frame type.
    UnknownOpcode(u8),
    /// The declared length does not match the opcode's field count.
    BadLength {
        /// The frame's opcode.
        opcode: u8,
        /// The declared length.
        len: u32,
        /// The length the opcode requires.
        expected: u32,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Oversize { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} cap")
            }
            ProtoError::EmptyFrame => write!(f, "zero-length frame (no opcode)"),
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode {op}"),
            ProtoError::BadLength {
                opcode,
                len,
                expected,
            } => write!(
                f,
                "opcode {opcode} declares length {len}, requires {expected}"
            ),
        }
    }
}

impl Error for ProtoError {}

/// Incremental frame decoder for a non-blocking byte stream.
///
/// Push bytes as they arrive ([`push`](Self::push)), pop complete frames
/// with [`next_frame`](Self::next_frame). Arbitrary chunking — including
/// one byte at a time — decodes identically to a single contiguous push
/// (property-tested in `tests/proto_props.rs`).
///
/// # Examples
///
/// ```
/// use iba_serve::proto::{Frame, FrameDecoder};
///
/// let mut decoder = FrameDecoder::new();
/// let bytes = Frame::Alloc { req_id: 7 }.encode();
/// decoder.push(&bytes[..3]); // truncated: not an error, just incomplete
/// assert_eq!(decoder.next_frame(), Ok(None));
/// decoder.push(&bytes[3..]);
/// assert_eq!(decoder.next_frame(), Ok(Some(Frame::Alloc { req_id: 7 })));
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes received from the peer.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so the buffer stays
        // bounded by one frame plus one socket read.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete frame, if any.
    ///
    /// `Ok(None)` means the buffered bytes are a valid (possibly empty)
    /// prefix — push more and retry.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on a structural violation. The decoder is not
    /// usable after an error (the stream has no recoverable framing);
    /// drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len == 0 {
            return Err(ProtoError::EmptyFrame);
        }
        if len > MAX_FRAME_LEN {
            return Err(ProtoError::Oversize { len });
        }
        // Validate the header before waiting for the body, so garbage is
        // rejected as early as the opcode arrives.
        if avail.len() < 5 {
            return Ok(None);
        }
        let opcode = avail[4];
        let expected = payload_len(opcode).ok_or(ProtoError::UnknownOpcode(opcode))?;
        // Version tolerance: a reason-less Closed from an old peer is
        // still a valid frame (the reason defaults to Shutdown).
        let legacy_closed = opcode == OP_CLOSED && len == CLOSED_LEGACY_LEN;
        if len != expected && !legacy_closed {
            return Err(ProtoError::BadLength {
                opcode,
                len,
                expected,
            });
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let mut fields = [0u64; 5];
        for (i, chunk) in avail[5..total].chunks_exact(8).enumerate() {
            fields[i] = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        }
        self.pos += total;
        let frame = match opcode {
            OP_ALLOC => Frame::Alloc { req_id: fields[0] },
            OP_ACCEPTED => Frame::Accepted {
                req_id: fields[0],
                ticket: fields[1],
            },
            OP_SATURATED => Frame::Saturated { req_id: fields[0] },
            OP_CLOSED => Frame::Closed {
                req_id: fields[0],
                reason: if legacy_closed {
                    CloseReason::Shutdown
                } else {
                    CloseReason::from_code(fields[1])
                },
            },
            OP_COMPLETED => Frame::Completed {
                ticket: fields[0],
                bin: fields[1],
                admitted_round: fields[2],
                served_round: fields[3],
                waiting_rounds: fields[4],
            },
            _ => unreachable!("payload_len vetted the opcode"),
        };
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Alloc { req_id: 0 },
            Frame::Alloc { req_id: u64::MAX },
            Frame::Accepted {
                req_id: 7,
                ticket: 99,
            },
            Frame::Saturated { req_id: 3 },
            Frame::Closed {
                req_id: 4,
                reason: CloseReason::Shutdown,
            },
            Frame::Closed {
                req_id: 5,
                reason: CloseReason::Drain,
            },
            Frame::Closed {
                req_id: 0,
                reason: CloseReason::SlowConsumer,
            },
            Frame::Completed {
                ticket: 99,
                bin: 12,
                admitted_round: 5,
                served_round: 9,
                waiting_rounds: 4,
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let mut decoder = FrameDecoder::new();
        let mut wire = Vec::new();
        for frame in all_frames() {
            frame.encode_into(&mut wire);
        }
        decoder.push(&wire);
        for frame in all_frames() {
            assert_eq!(decoder.next_frame(), Ok(Some(frame)));
        }
        assert_eq!(decoder.next_frame(), Ok(None));
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn truncated_prefix_is_incomplete_not_an_error() {
        let bytes = Frame::Completed {
            ticket: 1,
            bin: 2,
            admitted_round: 3,
            served_round: 4,
            waiting_rounds: 1,
        }
        .encode();
        for cut in 0..bytes.len() {
            let mut decoder = FrameDecoder::new();
            decoder.push(&bytes[..cut]);
            assert_eq!(decoder.next_frame(), Ok(None), "cut at {cut}");
        }
    }

    #[test]
    fn legacy_reasonless_closed_decodes_as_shutdown() {
        // A 9-byte Closed as emitted by peers predating CloseReason.
        let mut wire = Vec::new();
        wire.extend_from_slice(&9u32.to_le_bytes());
        wire.push(OP_CLOSED);
        wire.extend_from_slice(&42u64.to_le_bytes());
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        assert_eq!(
            decoder.next_frame(),
            Ok(Some(Frame::Closed {
                req_id: 42,
                reason: CloseReason::Shutdown,
            }))
        );
        assert_eq!(decoder.next_frame(), Ok(None));
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn unknown_close_reason_code_maps_to_shutdown() {
        // A future server sends a reason code this binary has never heard
        // of; the conservative reading is Shutdown, not a decode error.
        let mut wire = Vec::new();
        wire.extend_from_slice(&17u32.to_le_bytes());
        wire.push(OP_CLOSED);
        wire.extend_from_slice(&9u64.to_le_bytes());
        wire.extend_from_slice(&999u64.to_le_bytes());
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        assert_eq!(
            decoder.next_frame(),
            Ok(Some(Frame::Closed {
                req_id: 9,
                reason: CloseReason::Shutdown,
            }))
        );
        // Code 2 is unassigned; an older peer that still sends it reads as
        // Shutdown, like any unknown code.
        assert_eq!(CloseReason::from_code(2), CloseReason::Shutdown);
        for reason in [
            CloseReason::Shutdown,
            CloseReason::Drain,
            CloseReason::SlowConsumer,
        ] {
            assert_eq!(CloseReason::from_code(reason.code()), reason);
            assert!(!reason.to_string().is_empty());
        }
    }

    #[test]
    fn garbage_is_rejected() {
        let mut oversize = FrameDecoder::new();
        oversize.push(&1_000_000u32.to_le_bytes());
        assert_eq!(
            oversize.next_frame(),
            Err(ProtoError::Oversize { len: 1_000_000 })
        );

        let mut empty = FrameDecoder::new();
        empty.push(&0u32.to_le_bytes());
        assert_eq!(empty.next_frame(), Err(ProtoError::EmptyFrame));

        let mut unknown = FrameDecoder::new();
        unknown.push(&9u32.to_le_bytes());
        unknown.push(&[200]);
        assert_eq!(unknown.next_frame(), Err(ProtoError::UnknownOpcode(200)));

        let mut mismatched = FrameDecoder::new();
        mismatched.push(&17u32.to_le_bytes());
        mismatched.push(&[OP_ALLOC]);
        assert_eq!(
            mismatched.next_frame(),
            Err(ProtoError::BadLength {
                opcode: OP_ALLOC,
                len: 17,
                expected: 9,
            })
        );
    }

    #[test]
    fn byte_at_a_time_decoding_matches_bulk() {
        let mut wire = Vec::new();
        for frame in all_frames() {
            frame.encode_into(&mut wire);
        }
        let mut decoder = FrameDecoder::new();
        let mut seen = Vec::new();
        for &byte in &wire {
            decoder.push(&[byte]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                seen.push(frame);
            }
        }
        assert_eq!(seen, all_frames());
    }

    #[test]
    fn errors_display() {
        assert!(ProtoError::Oversize { len: 70 }.to_string().contains("cap"));
        assert!(ProtoError::EmptyFrame.to_string().contains("zero-length"));
        assert!(ProtoError::UnknownOpcode(9).to_string().contains('9'));
        let e = ProtoError::BadLength {
            opcode: 2,
            len: 9,
            expected: 17,
        };
        assert!(e.to_string().contains("requires 17"));
    }
}
