//! Wire message formats carried inside the ring buffers (paper Fig. 5).
//!
//! The ring layer frames each message with a length word; this module
//! defines the typed payload. Responses larger than one segment are chained
//! with `ResponseCont` ("CONT") segments terminated by a `ResponseEnd`
//! ("END") segment, exactly as the paper's variable-size response design.

use std::fmt;

use catfish_rtree::Rect;

use crate::service::{HeartbeatInfo, Incoming, ReplEnvelope, WireCodec};

const TAG_SEARCH: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_RESP_CONT: u8 = 4;
const TAG_RESP_END: u8 = 5;
const TAG_HEARTBEAT: u8 = 6;
const TAG_NEAREST: u8 = 7;
const TAG_BATCH: u8 = 8;
const TAG_REPLICATED: u8 = 10;

/// Encoded size of a [`ReplEnvelope`] behind its tag byte.
pub(crate) const REPL_ENV_WIRE_BYTES: usize = 4 + 8 + 8 + 8 + 1;

pub(crate) fn put_repl_env(out: &mut Vec<u8>, env: &ReplEnvelope) {
    out.extend_from_slice(&env.link_seq.to_le_bytes());
    out.extend_from_slice(&env.origin.to_le_bytes());
    out.extend_from_slice(&env.op_id.to_le_bytes());
    out.extend_from_slice(&env.epoch.to_le_bytes());
    out.push(env.flags);
}

pub(crate) fn get_repl_env(buf: &[u8]) -> Result<ReplEnvelope, MsgError> {
    if buf.len() < REPL_ENV_WIRE_BYTES {
        return Err(MsgError::Truncated);
    }
    let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().expect("sized"));
    Ok(ReplEnvelope {
        link_seq: u32::from_le_bytes(buf[0..4].try_into().expect("sized")),
        origin: u64_at(4),
        op_id: u64_at(12),
        epoch: u64_at(20),
        flags: buf[28],
    })
}

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

/// Writes a heartbeat frame's body (behind its tag byte): utilization
/// and the four per-mode serving-cost terms.
pub(crate) fn put_heartbeat(out: &mut Vec<u8>, info: &HeartbeatInfo) {
    out.extend_from_slice(&info.util_permille.to_le_bytes());
    out.extend_from_slice(&info.wb_fixed_ns.to_le_bytes());
    out.extend_from_slice(&info.wb_per_kb_ns.to_le_bytes());
    out.extend_from_slice(&info.fetch_fixed_ns.to_le_bytes());
    out.extend_from_slice(&info.fetch_per_kb_ns.to_le_bytes());
}

pub(crate) fn get_heartbeat(buf: &[u8]) -> Result<HeartbeatInfo, MsgError> {
    let b = buf.get(0..2).ok_or(MsgError::Truncated)?;
    let cost = |o: usize| le_u32(buf, o);
    Ok(HeartbeatInfo {
        util_permille: u16::from_le_bytes(b.try_into().expect("sized")),
        wb_fixed_ns: cost(2)?,
        wb_per_kb_ns: cost(6)?,
        fetch_fixed_ns: cost(10)?,
        fetch_per_kb_ns: cost(14)?,
    })
}

/// Writes a batch frame's body (behind its tag byte): the message count,
/// then each message length-prefixed. Batches must not nest.
pub(crate) fn put_batch<M>(
    out: &mut Vec<u8>,
    msgs: &[M],
    encode: impl Fn(&M) -> Vec<u8>,
    is_batch: impl Fn(&M) -> bool,
) {
    out.extend_from_slice(&(msgs.len() as u32).to_le_bytes());
    for m in msgs {
        debug_assert!(!is_batch(m), "batch frames must not nest");
        let inner = encode(m);
        out.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        out.extend_from_slice(&inner);
    }
}

pub(crate) fn get_batch<M>(
    buf: &[u8],
    decode: impl Fn(&[u8]) -> Result<M, MsgError>,
    is_batch: impl Fn(&M) -> bool,
) -> Result<Vec<M>, MsgError> {
    let u32_at = |o: usize| le_u32(buf, o);
    let n = u32_at(0)? as usize;
    // Validate against the buffer before allocating: each inner message
    // needs at least its 4-byte length prefix, so a forged count must not
    // trigger a huge allocation.
    if buf.len() < 4usize.saturating_add(n.saturating_mul(4)) {
        return Err(MsgError::Truncated);
    }
    let mut msgs = Vec::with_capacity(n);
    let mut at = 4usize;
    for _ in 0..n {
        let len = u32_at(at)? as usize;
        let body = buf.get(at + 4..at + 4 + len).ok_or(MsgError::Truncated)?;
        let inner = decode(body)?;
        if is_batch(&inner) {
            return Err(MsgError::NestedBatch);
        }
        msgs.push(inner);
        at += 4 + len;
    }
    Ok(msgs)
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
    /// Server → client: periodic CPU-utilization heartbeat (Algorithm 1's
    /// `u_serv`) plus the per-mode serving-cost terms the three-way policy
    /// needs to derive the write-back vs fetch crossover.
    Heartbeat {
        /// Utilization and per-mode serving-cost terms.
        info: HeartbeatInfo,
    },
    /// Several messages coalesced into one doorbell-batched frame: one
    /// ring write, one completion, one wakeup for the whole group.
    /// Batches must not nest.
    Batch(Vec<Message>),
    /// A mutation wrapped in a replication envelope: 29 bytes of
    /// [`ReplEnvelope`] (link sequence, replica-set-wide op identity,
    /// promotion epoch) ahead of the unchanged inner encoding. Wraps bare
    /// mutations only — never a batch or another replication envelope.
    Replicated {
        /// The replication envelope.
        env: ReplEnvelope,
        /// The mutation being carried.
        inner: Box<Message>,
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
    /// A batch frame contained another batch frame.
    NestedBatch,
    /// A replication envelope wrapped a batch or another replication
    /// envelope.
    NestedReplication,
}

impl fmt::Display for MsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgError::Truncated => write!(f, "message truncated"),
            MsgError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            MsgError::BadRect => write!(f, "invalid rectangle in message"),
            MsgError::NestedBatch => write!(f, "batch frame nested inside a batch frame"),
            MsgError::NestedReplication => {
                write!(f, "replication envelope wrapping a non-mutation")
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
                out.extend_from_slice(&(results.len() as u32).to_le_bytes());
                for (rect, data) in results {
                    put_rect(&mut out, rect);
                    out.extend_from_slice(&data.to_le_bytes());
                }
            }
            Message::ResponseEnd {
                seq,
                results,
                status,
            } => {
                out.push(TAG_RESP_END);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&status.to_le_bytes());
                out.extend_from_slice(&(results.len() as u32).to_le_bytes());
                for (rect, data) in results {
                    put_rect(&mut out, rect);
                    out.extend_from_slice(&data.to_le_bytes());
                }
            }
            Message::NearestReq { seq, x, y, k } => {
                out.push(TAG_NEAREST);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&x.to_le_bytes());
                out.extend_from_slice(&y.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
            }
            Message::Heartbeat { info } => {
                out.push(TAG_HEARTBEAT);
                put_heartbeat(&mut out, info);
            }
            Message::Batch(msgs) => {
                out.push(TAG_BATCH);
                put_batch(&mut out, msgs, Message::encode, |m| {
                    matches!(m, Message::Batch(_))
                });
            }
            Message::Replicated { env, inner } => {
                debug_assert!(
                    !matches!(**inner, Message::Batch(_) | Message::Replicated { .. }),
                    "replication envelopes wrap bare mutations only"
                );
                out.push(TAG_REPLICATED);
                put_repl_env(&mut out, env);
                out.extend_from_slice(&inner.encode());
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
            Message::Heartbeat { .. } => 1 + 2 + 16,
            Message::Batch(msgs) => 1 + 4 + msgs.iter().map(|m| 4 + m.encoded_len()).sum::<usize>(),
            Message::Replicated { inner, .. } => 1 + REPL_ENV_WIRE_BYTES + inner.encoded_len(),
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
            TAG_RESP_CONT => {
                let seq = u32_at(0)?;
                let n = u32_at(4)? as usize;
                // Validate against the buffer before allocating: a forged
                // count must not trigger a huge allocation.
                if rest.len() < 8usize.saturating_add(n.saturating_mul(40)) {
                    return Err(MsgError::Truncated);
                }
                let mut results = Vec::with_capacity(n);
                for i in 0..n {
                    let at = 8 + 40 * i;
                    let rect = get_rect(rest.get(at..).ok_or(MsgError::Truncated)?)?;
                    results.push((rect, u64_at(at + 32)?));
                }
                Ok(Message::ResponseCont { seq, results })
            }
            TAG_RESP_END => {
                let seq = u32_at(0)?;
                let status = u32_at(4)?;
                let n = u32_at(8)? as usize;
                if rest.len() < 12usize.saturating_add(n.saturating_mul(40)) {
                    return Err(MsgError::Truncated);
                }
                let mut results = Vec::with_capacity(n);
                for i in 0..n {
                    let at = 12 + 40 * i;
                    let rect = get_rect(rest.get(at..).ok_or(MsgError::Truncated)?)?;
                    results.push((rect, u64_at(at + 32)?));
                }
                Ok(Message::ResponseEnd {
                    seq,
                    results,
                    status,
                })
            }
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
            TAG_HEARTBEAT => Ok(Message::Heartbeat {
                info: get_heartbeat(rest)?,
            }),
            TAG_BATCH => Ok(Message::Batch(get_batch(rest, Message::decode, |m| {
                matches!(m, Message::Batch(_))
            })?)),
            TAG_REPLICATED => {
                let env = get_repl_env(rest)?;
                let inner = Message::decode(&rest[REPL_ENV_WIRE_BYTES..])?;
                if matches!(inner, Message::Batch(_) | Message::Replicated { .. }) {
                    return Err(MsgError::NestedReplication);
                }
                Ok(Message::Replicated {
                    env,
                    inner: Box::new(inner),
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

    fn heartbeat(info: HeartbeatInfo) -> Message {
        Message::Heartbeat { info }
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

    fn batch(msgs: Vec<Message>) -> Message {
        Message::Batch(msgs)
    }

    fn classify(msg: Message) -> Incoming<Self> {
        match msg {
            Message::Heartbeat { info } => Incoming::Heartbeat(info),
            Message::Batch(msgs) => Incoming::Batch(msgs),
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

    fn request_meta(msg: &Message) -> Option<(u32, crate::service::OpKind)> {
        use crate::service::OpKind;
        match msg {
            Message::SearchReq { seq, .. } => Some((*seq, OpKind::Read)),
            Message::NearestReq { seq, .. } => Some((*seq, OpKind::Read)),
            Message::InsertReq { seq, .. } => Some((*seq, OpKind::Write)),
            Message::DeleteReq { seq, .. } => Some((*seq, OpKind::Remove)),
            // The connection-scoped identity of a replicated mutation is
            // the envelope's link sequence, not the inner sequence (which
            // belongs to the originating client's connection).
            Message::Replicated { env, inner } => {
                Self::request_meta(inner).map(|(_, kind)| (env.link_seq, kind))
            }
            _ => None,
        }
    }

    fn replicated(env: ReplEnvelope, inner: Message) -> Message {
        Message::Replicated {
            env,
            inner: Box::new(inner),
        }
    }

    fn take_origin(msg: Message) -> (Option<ReplEnvelope>, Message) {
        match msg {
            Message::Replicated { env, inner } => (Some(env), *inner),
            other => (None, other),
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

    #[test]
    fn batch_round_trips_and_sizes_exactly() {
        let batch = Message::Batch(vec![
            Message::SearchReq {
                seq: 1,
                rect: Rect::new(0.0, 0.0, 1.0, 1.0),
            },
            Message::InsertReq {
                seq: 2,
                rect: Rect::new(0.1, 0.1, 0.2, 0.2),
                data: 42,
            },
            Message::NearestReq {
                seq: 3,
                x: 0.5,
                y: 0.5,
                k: 4,
            },
        ]);
        let bytes = batch.encode();
        assert_eq!(bytes.len(), batch.encoded_len());
        assert_eq!(Message::decode(&bytes), Ok(batch));
    }

    #[test]
    fn nested_batch_rejected() {
        // encode() debug-asserts against building nested batches, so forge
        // the bytes: an outer batch whose single element is itself a batch.
        let inner = Message::Batch(vec![Message::Heartbeat {
            info: HeartbeatInfo::util_only(7),
        }])
        .encode();
        let mut outer = vec![8u8]; // TAG_BATCH
        outer.extend_from_slice(&1u32.to_le_bytes());
        outer.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        outer.extend_from_slice(&inner);
        assert_eq!(Message::decode(&outer), Err(MsgError::NestedBatch));
    }

    fn env() -> ReplEnvelope {
        ReplEnvelope {
            link_seq: 17,
            origin: 0xABCD,
            op_id: 99,
            epoch: 3,
            flags: ReplEnvelope::FORWARDED,
        }
    }

    #[test]
    fn replicated_envelope_round_trips_and_sizes_exactly() {
        let msg = Message::Replicated {
            env: env(),
            inner: Box::new(Message::InsertReq {
                seq: 4,
                rect: Rect::new(0.0, 0.0, 1.0, 1.0),
                data: 7,
            }),
        };
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(bytes.len(), 1 + REPL_ENV_WIRE_BYTES + 1 + 4 + 32 + 8);
        assert_eq!(Message::decode(&bytes), Ok(msg));
        for cut in 0..bytes.len() {
            assert!(Message::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn replicated_envelope_must_wrap_bare_mutations_only() {
        // encode() debug-asserts against building these, so forge bytes.
        for inner in [
            Message::Batch(vec![Message::Heartbeat {
                info: HeartbeatInfo::util_only(1),
            }])
            .encode(),
            Message::Replicated {
                env: env(),
                inner: Box::new(Message::DeleteReq {
                    seq: 1,
                    rect: Rect::new(0.0, 0.0, 1.0, 1.0),
                    data: 1,
                }),
            }
            .encode(),
        ] {
            let mut forged = vec![10u8]; // TAG_REPLICATED
            put_repl_env(&mut forged, &env());
            forged.extend_from_slice(&inner);
            assert_eq!(Message::decode(&forged), Err(MsgError::NestedReplication));
        }
    }

    #[test]
    fn replicated_metas_report_link_seq() {
        use crate::service::{OpKind, WireCodec};
        let inner = Message::InsertReq {
            seq: 900, // the origin connection's sequence number
            rect: Rect::new(0.0, 0.0, 1.0, 1.0),
            data: 42,
        };
        let wrapped = RtreeWire::replicated(env(), inner.clone());
        // Connection dedup must key on the forwarding link's sequence.
        assert_eq!(RtreeWire::request_meta(&wrapped), Some((17, OpKind::Write)));
        let (got_env, bare) = RtreeWire::take_origin(wrapped);
        assert_eq!(got_env, Some(env()));
        assert_eq!(bare, inner);
        let (none, same) = RtreeWire::take_origin(bare.clone());
        assert_eq!(none, None);
        assert_eq!(same, bare);
    }

    #[test]
    fn truncated_batch_rejected() {
        let full = Message::Batch(vec![
            Message::Heartbeat {
                info: HeartbeatInfo::util_only(1),
            },
            Message::SearchReq {
                seq: 9,
                rect: Rect::new(0.0, 0.0, 1.0, 1.0),
            },
        ])
        .encode();
        for cut in 0..full.len() {
            assert!(Message::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
    }
}
