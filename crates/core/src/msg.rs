//! Wire message formats carried inside the ring buffers (paper Fig. 5).
//!
//! The ring layer frames each message with a length word; this module
//! defines the typed payload. Responses larger than one segment are chained
//! with `ResponseCont` ("CONT") segments terminated by a `ResponseEnd`
//! ("END") segment, exactly as the paper's variable-size response design.
//! Heartbeats, doorbell batches and replication envelopes are the shared
//! [`crate::service::Frame`]s around these messages.

use std::fmt;

use catfish_rtree::Rect;

use crate::service::{Incoming, OpKind, WireCodec};

const TAG_SEARCH: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_RESP_CONT: u8 = 4;
const TAG_RESP_END: u8 = 5;
const TAG_NEAREST: u8 = 7;

/// The little-endian `u32` at `buf[o..]`, or [`MsgError::Truncated`].
pub(crate) fn le_u32(buf: &[u8], o: usize) -> Result<u32, MsgError> {
    let b = buf.get(o..o + 4).ok_or(MsgError::Truncated)?;
    Ok(u32::from_le_bytes(b.try_into().expect("sized")))
}

/// The little-endian `u64` at `buf[o..]`, or [`MsgError::Truncated`].
pub(crate) fn le_u64(buf: &[u8], o: usize) -> Result<u64, MsgError> {
    let b = buf.get(o..o + 8).ok_or(MsgError::Truncated)?;
    Ok(u64::from_le_bytes(b.try_into().expect("sized")))
}

/// A typed ring-buffer message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: search for everything intersecting `rect`.
    SearchReq {
        /// Client-local sequence number (echoed in responses).
        seq: u32,
        /// Query rectangle.
        rect: Rect,
    },
    /// Client → server: insert `rect` with payload `data`.
    InsertReq {
        /// Client-local sequence number.
        seq: u32,
        /// Rectangle to insert.
        rect: Rect,
        /// Opaque payload.
        data: u64,
    },
    /// Client → server: delete the exact item `(rect, data)`.
    DeleteReq {
        /// Client-local sequence number.
        seq: u32,
        /// Rectangle to delete.
        rect: Rect,
        /// Payload of the item to delete.
        data: u64,
    },
    /// Server → client: a non-final slice of search results ("CONT").
    ///
    /// Results carry the full rectangle plus payload (40 bytes each), as a
    /// real spatial server would return them — this is what makes
    /// large-scope queries bandwidth-bound.
    ResponseCont {
        /// Echo of the request sequence number.
        seq: u32,
        /// Result items in this segment.
        results: Vec<(Rect, u64)>,
    },
    /// Server → client: the final response segment ("END").
    ResponseEnd {
        /// Echo of the request sequence number.
        seq: u32,
        /// Result items in this segment (search) or empty (writes).
        results: Vec<(Rect, u64)>,
        /// For writes: 1 if the operation succeeded, 0 otherwise.
        status: u32,
    },
    /// Client → server: the `k` items nearest to a point ("find
    /// restaurants near me" — the paper's §I motivating query).
    NearestReq {
        /// Client-local sequence number.
        seq: u32,
        /// Query point x.
        x: f64,
        /// Query point y.
        y: f64,
        /// Number of neighbors.
        k: u32,
    },
}

/// Errors from decoding a ring message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgError {
    /// The message is shorter than its header requires.
    Truncated,
    /// Unknown message tag.
    UnknownTag(u8),
    /// A rectangle field failed validation.
    BadRect,
    /// A batch frame held another frame-layer frame (a heartbeat, a batch
    /// or an envelope) instead of a bare message.
    NestedBatch,
    /// A replication envelope wrapped another frame-layer frame instead of
    /// a bare message.
    NestedReplication,
}

impl fmt::Display for MsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgError::Truncated => write!(f, "message truncated"),
            MsgError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            MsgError::BadRect => write!(f, "invalid rectangle in message"),
            MsgError::NestedBatch => write!(f, "frame nested inside a batch frame"),
            MsgError::NestedReplication => {
                write!(f, "frame nested inside a replication envelope")
            }
        }
    }
}

impl std::error::Error for MsgError {}

fn put_rect(out: &mut Vec<u8>, r: &Rect) {
    out.extend_from_slice(&r.min_x().to_le_bytes());
    out.extend_from_slice(&r.min_y().to_le_bytes());
    out.extend_from_slice(&r.max_x().to_le_bytes());
    out.extend_from_slice(&r.max_y().to_le_bytes());
}

/// Writes a response segment's result count, then each hit: its
/// rectangle and payload, 40 bytes.
fn put_hits(out: &mut Vec<u8>, results: &[(Rect, u64)]) {
    out.extend_from_slice(&(results.len() as u32).to_le_bytes());
    for (rect, data) in results {
        put_rect(out, rect);
        out.extend_from_slice(&data.to_le_bytes());
    }
}

fn get_rect(buf: &[u8]) -> Result<Rect, MsgError> {
    if buf.len() < 32 {
        return Err(MsgError::Truncated);
    }
    let f = |o: usize| f64::from_le_bytes(buf[o..o + 8].try_into().expect("sized"));
    let (a, b, c, d) = (f(0), f(8), f(16), f(24));
    if !(a.is_finite() && b.is_finite() && c.is_finite() && d.is_finite()) || a > c || b > d {
        return Err(MsgError::BadRect);
    }
    Ok(Rect::new(a, b, c, d))
}

impl Message {
    /// Serializes to bytes (ring framing excluded).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        match self {
            Message::SearchReq { seq, rect } => {
                out.push(TAG_SEARCH);
                out.extend_from_slice(&seq.to_le_bytes());
                put_rect(&mut out, rect);
            }
            Message::InsertReq { seq, rect, data } => {
                out.push(TAG_INSERT);
                out.extend_from_slice(&seq.to_le_bytes());
                put_rect(&mut out, rect);
                out.extend_from_slice(&data.to_le_bytes());
            }
            Message::DeleteReq { seq, rect, data } => {
                out.push(TAG_DELETE);
                out.extend_from_slice(&seq.to_le_bytes());
                put_rect(&mut out, rect);
                out.extend_from_slice(&data.to_le_bytes());
            }
            Message::ResponseCont { seq, results } => {
                out.push(TAG_RESP_CONT);
                out.extend_from_slice(&seq.to_le_bytes());
                put_hits(&mut out, results);
            }
            Message::ResponseEnd {
                seq,
                results,
                status,
            } => {
                out.push(TAG_RESP_END);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&status.to_le_bytes());
                put_hits(&mut out, results);
            }
            Message::NearestReq { seq, x, y, k } => {
                out.push(TAG_NEAREST);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&x.to_le_bytes());
                out.extend_from_slice(&y.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
            }
        }
        out
    }

    /// Exact encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Message::SearchReq { .. } => 1 + 4 + 32,
            Message::InsertReq { .. } | Message::DeleteReq { .. } => 1 + 4 + 32 + 8,
            Message::ResponseCont { results, .. } => 1 + 4 + 4 + 40 * results.len(),
            Message::ResponseEnd { results, .. } => 1 + 4 + 4 + 4 + 40 * results.len(),
            Message::NearestReq { .. } => 1 + 4 + 8 + 8 + 4,
        }
    }

    /// Deserializes from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MsgError`] on truncation, unknown tags, or invalid fields.
    pub fn decode(buf: &[u8]) -> Result<Message, MsgError> {
        let (&tag, rest) = buf.split_first().ok_or(MsgError::Truncated)?;
        let u32_at = |o: usize| le_u32(rest, o);
        let u64_at = |o: usize| le_u64(rest, o);
        // A response segment's `u32` count at `rest[at..]`, then that many
        // 40-byte hits. The count is checked against the buffer before
        // allocating: a forged count must not trigger a huge allocation.
        let hits = |at: usize| {
            let n = u32_at(at)? as usize;
            if rest.len() < (at + 4).saturating_add(n.saturating_mul(40)) {
                return Err(MsgError::Truncated);
            }
            let mut results = Vec::with_capacity(n);
            for i in 0..n {
                let at = at + 4 + 40 * i;
                let rect = get_rect(rest.get(at..).ok_or(MsgError::Truncated)?)?;
                results.push((rect, u64_at(at + 32)?));
            }
            Ok(results)
        };
        match tag {
            TAG_SEARCH => Ok(Message::SearchReq {
                seq: u32_at(0)?,
                rect: get_rect(rest.get(4..).ok_or(MsgError::Truncated)?)?,
            }),
            TAG_INSERT => Ok(Message::InsertReq {
                seq: u32_at(0)?,
                rect: get_rect(rest.get(4..).ok_or(MsgError::Truncated)?)?,
                data: u64_at(36)?,
            }),
            TAG_DELETE => Ok(Message::DeleteReq {
                seq: u32_at(0)?,
                rect: get_rect(rest.get(4..).ok_or(MsgError::Truncated)?)?,
                data: u64_at(36)?,
            }),
            TAG_RESP_CONT => Ok(Message::ResponseCont {
                seq: u32_at(0)?,
                results: hits(4)?,
            }),
            TAG_RESP_END => Ok(Message::ResponseEnd {
                seq: u32_at(0)?,
                status: u32_at(4)?,
                results: hits(8)?,
            }),
            TAG_NEAREST => {
                let f64_at = |o: usize| u64_at(o).map(f64::from_bits);
                let (x, y) = (f64_at(4)?, f64_at(12)?);
                if !x.is_finite() || !y.is_finite() {
                    return Err(MsgError::BadRect);
                }
                Ok(Message::NearestReq {
                    seq: u32_at(0)?,
                    x,
                    y,
                    k: u32_at(20)?,
                })
            }
            other => Err(MsgError::UnknownTag(other)),
        }
    }
}

/// The R-tree service's [`WireCodec`]: [`Message`] on the wire, result
/// items are `(Rect, u64)` hits.
#[derive(Debug, Clone, Copy)]
pub struct RtreeWire;

impl WireCodec for RtreeWire {
    type Message = Message;
    type Item = (Rect, u64);

    const ITEM_WIRE_BYTES: usize = 40;

    fn encode(msg: &Message) -> Vec<u8> {
        msg.encode()
    }

    fn decode(bytes: &[u8]) -> Result<Message, MsgError> {
        Message::decode(bytes)
    }

    fn cont(seq: u32, items: Vec<(Rect, u64)>) -> Message {
        Message::ResponseCont {
            seq,
            results: items,
        }
    }

    fn end(seq: u32, items: Vec<(Rect, u64)>, status: u32) -> Message {
        Message::ResponseEnd {
            seq,
            results: items,
            status,
        }
    }

    fn classify(msg: Message) -> Incoming<Self> {
        match msg {
            Message::ResponseCont { seq, results } => Incoming::Cont {
                seq,
                items: results,
            },
            Message::ResponseEnd {
                seq,
                results,
                status,
            } => Incoming::End {
                seq,
                items: results,
                status,
            },
            other => Incoming::Request(other),
        }
    }

    fn request_meta(msg: &Message) -> Option<(u32, OpKind)> {
        match msg {
            Message::SearchReq { seq, .. } => Some((*seq, OpKind::Read)),
            Message::NearestReq { seq, .. } => Some((*seq, OpKind::Read)),
            Message::InsertReq { seq, .. } => Some((*seq, OpKind::Write)),
            Message::DeleteReq { seq, .. } => Some((*seq, OpKind::Remove)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_rejected() {
        let full = Message::SearchReq {
            seq: 1,
            rect: Rect::new(0.0, 0.0, 1.0, 1.0),
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Message::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Message::decode(&[99, 0, 0]), Err(MsgError::UnknownTag(99)));
        assert_eq!(Message::decode(&[]), Err(MsgError::Truncated));
    }

    #[test]
    fn corrupt_rect_rejected() {
        let mut bytes = Message::SearchReq {
            seq: 1,
            rect: Rect::new(0.0, 0.0, 1.0, 1.0),
        }
        .encode();
        // Overwrite min_x with NaN.
        bytes[5..13].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(Message::decode(&bytes), Err(MsgError::BadRect));
    }
}
