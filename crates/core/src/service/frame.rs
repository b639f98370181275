//! The ring's frame layer, shared by every [`WireCodec`]: the heartbeat,
//! the doorbell batch and the replication envelope are framed here once,
//! under tags 6, 8 and 10, around a codec's bare messages. Frames do not
//! nest, and the types say so; decode rejects forged nesting with
//! [`MsgError::NestedBatch`] and [`MsgError::NestedReplication`].

use std::borrow::Borrow;

use crate::msg::{le_u32, le_u64, MsgError};

use super::{HeartbeatInfo, ReplEnvelope, WireCodec};

const TAG_HEARTBEAT: u8 = 6;
const TAG_BATCH: u8 = 8;
const TAG_REPLICATED: u8 = 10;

/// Encoded size of a [`ReplEnvelope`] behind its tag byte.
const REPL_ENV_WIRE_BYTES: usize = 4 + 8 + 8 + 8 + 1;

/// One ring frame: a bare message of the codec, or one of the frames the
/// engine itself speaks on every ring.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<M> {
    /// A bare message (request, CONT or END), encoded with no prefix.
    Msg(M),
    /// Server → client: CPU utilization (Algorithm 1's `u_serv`) plus the
    /// per-mode serving-cost terms the three-way policy needs to derive
    /// the write-back vs fetch crossover.
    Heartbeat(HeartbeatInfo),
    /// Several bare messages coalesced into one doorbell-batched frame:
    /// one ring write, one completion, one wakeup for the whole group.
    Batch(Vec<M>),
    /// A bare mutation behind 29 bytes of [`ReplEnvelope`] (link
    /// sequence, replica-set-wide op identity, promotion epoch).
    Replicated {
        /// The replication envelope.
        env: ReplEnvelope,
        /// The mutation being carried.
        inner: M,
    },
}

impl<M> Frame<M> {
    /// Serializes the frame with codec `W`. `M` may be the message or a
    /// reference to it, so a sender frames messages it keeps.
    pub fn encode<W: WireCodec>(&self) -> Vec<u8>
    where
        M: Borrow<W::Message>,
    {
        match self {
            Frame::Msg(m) => W::encode(m.borrow()),
            Frame::Heartbeat(info) => {
                let mut out = vec![TAG_HEARTBEAT];
                out.extend_from_slice(&info.util_permille.to_le_bytes());
                let (wb, fetch) = (info.wb_fixed_ns, info.fetch_fixed_ns);
                for ns in [wb, info.wb_per_kb_ns, fetch, info.fetch_per_kb_ns] {
                    out.extend_from_slice(&ns.to_le_bytes());
                }
                out
            }
            Frame::Batch(msgs) => {
                // The message count, then each message length-prefixed.
                let mut out = vec![TAG_BATCH];
                out.extend_from_slice(&(msgs.len() as u32).to_le_bytes());
                for m in msgs {
                    let inner = W::encode(m.borrow());
                    out.extend_from_slice(&(inner.len() as u32).to_le_bytes());
                    out.extend_from_slice(&inner);
                }
                out
            }
            Frame::Replicated { env, inner } => {
                let inner = W::encode(inner.borrow());
                let mut out = Vec::with_capacity(1 + REPL_ENV_WIRE_BYTES + inner.len());
                out.push(TAG_REPLICATED);
                out.extend_from_slice(&env.link_seq.to_le_bytes());
                for word in [env.origin, env.op_id, env.epoch] {
                    out.extend_from_slice(&word.to_le_bytes());
                }
                out.push(env.flags);
                out.extend_from_slice(&inner);
                out
            }
        }
    }

    /// Deserializes one ring frame with codec `W`.
    ///
    /// # Errors
    ///
    /// [`MsgError`] on truncation, unknown tags, invalid fields, or a
    /// frame nested inside a batch or an envelope.
    pub fn decode<W: WireCodec<Message = M>>(buf: &[u8]) -> Result<Self, MsgError> {
        let (&tag, rest) = buf.split_first().ok_or(MsgError::Truncated)?;
        match tag {
            TAG_HEARTBEAT => {
                let util = rest.get(0..2).ok_or(MsgError::Truncated)?;
                Ok(Frame::Heartbeat(HeartbeatInfo {
                    util_permille: u16::from_le_bytes(util.try_into().expect("sized")),
                    wb_fixed_ns: le_u32(rest, 2)?,
                    wb_per_kb_ns: le_u32(rest, 6)?,
                    fetch_fixed_ns: le_u32(rest, 10)?,
                    fetch_per_kb_ns: le_u32(rest, 14)?,
                }))
            }
            TAG_BATCH => {
                let n = le_u32(rest, 0)? as usize;
                // Validate against the buffer before allocating: each inner
                // message needs at least its 4-byte length prefix, so a
                // forged count must not trigger a huge allocation.
                if rest.len() < 4usize.saturating_add(n.saturating_mul(4)) {
                    return Err(MsgError::Truncated);
                }
                let mut msgs = Vec::with_capacity(n);
                let mut at = 4usize;
                for _ in 0..n {
                    let len = le_u32(rest, at)? as usize;
                    let body = rest.get(at + 4..at + 4 + len).ok_or(MsgError::Truncated)?;
                    msgs.push(bare::<W>(body, MsgError::NestedBatch)?);
                    at += 4 + len;
                }
                Ok(Frame::Batch(msgs))
            }
            TAG_REPLICATED => {
                let (head, inner) = rest
                    .split_at_checked(REPL_ENV_WIRE_BYTES)
                    .ok_or(MsgError::Truncated)?;
                let env = ReplEnvelope {
                    link_seq: le_u32(head, 0)?,
                    origin: le_u64(head, 4)?,
                    op_id: le_u64(head, 12)?,
                    epoch: le_u64(head, 20)?,
                    flags: head[28],
                };
                let inner = bare::<W>(inner, MsgError::NestedReplication)?;
                Ok(Frame::Replicated { env, inner })
            }
            _ => Ok(Frame::Msg(W::decode(buf)?)),
        }
    }
}

/// Decodes the bare message inside a batch or an envelope; a frame tag
/// there is forged nesting, reported as `nested`.
fn bare<W: WireCodec>(buf: &[u8], nested: MsgError) -> Result<W::Message, MsgError> {
    match buf.first() {
        Some(&(TAG_HEARTBEAT | TAG_BATCH | TAG_REPLICATED)) => Err(nested),
        _ => W::decode(buf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{KvMessage, KvWire};
    use crate::msg::{Message, RtreeWire};
    use catfish_rtree::Rect;

    fn env() -> ReplEnvelope {
        ReplEnvelope {
            link_seq: 17,
            origin: 0xABCD,
            op_id: 99,
            epoch: 3,
            flags: ReplEnvelope::FORWARDED,
        }
    }

    fn search(seq: u32) -> Message {
        Message::SearchReq {
            seq,
            rect: Rect::new(0.0, 0.0, 1.0, 1.0),
        }
    }

    fn insert(seq: u32) -> Message {
        Message::InsertReq {
            seq,
            rect: Rect::new(0.1, 0.1, 0.2, 0.2),
            data: 42,
        }
    }

    /// Every frame kind of both codecs: the R-tree's and the KV service's.
    fn frames() -> (Vec<Frame<Message>>, Vec<Frame<KvMessage>>) {
        let get = |seq| KvMessage::GetReq { seq, key: 5 };
        let put = KvMessage::PutReq {
            seq: 4,
            key: 6,
            value: 7,
        };
        let info = HeartbeatInfo {
            util_permille: 7,
            ..HeartbeatInfo::default()
        };
        (
            vec![
                Frame::Msg(search(1)),
                Frame::Heartbeat(info),
                Frame::Batch(vec![
                    search(1),
                    insert(2),
                    Message::NearestReq {
                        seq: 3,
                        x: 0.5,
                        y: 0.5,
                        k: 4,
                    },
                ]),
                Frame::Replicated {
                    env: env(),
                    inner: insert(4),
                },
            ],
            vec![
                Frame::Msg(get(1)),
                Frame::Heartbeat(info),
                Frame::Batch(vec![get(1), get(2)]),
                Frame::Replicated {
                    env: env(),
                    inner: put,
                },
            ],
        )
    }

    #[test]
    fn frames_round_trip_and_reject_every_truncation() {
        fn check<W: WireCodec>(frames: Vec<Frame<W::Message>>)
        where
            W::Message: PartialEq,
        {
            for frame in frames {
                let bytes = frame.encode::<W>();
                assert_eq!(Frame::decode::<W>(&bytes), Ok(frame));
                for cut in 0..bytes.len() {
                    assert!(Frame::decode::<W>(&bytes[..cut]).is_err(), "cut at {cut}");
                }
            }
        }
        let (rtree, kv) = frames();
        check::<RtreeWire>(rtree);
        check::<KvWire>(kv);
    }

    #[test]
    fn envelope_is_29_bytes_ahead_of_the_unchanged_message() {
        let bytes = Frame::Replicated {
            env: env(),
            inner: insert(4),
        }
        .encode::<RtreeWire>();
        assert_eq!(
            bytes.len(),
            1 + REPL_ENV_WIRE_BYTES + insert(4).encoded_len()
        );
        assert_eq!(&bytes[1 + REPL_ENV_WIRE_BYTES..], &insert(4).encode()[..]);
    }

    /// Forges a batch holding `inner` and an envelope wrapping it.
    fn forged(inner: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let mut batch = vec![TAG_BATCH];
        batch.extend_from_slice(&1u32.to_le_bytes());
        batch.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        batch.extend_from_slice(inner);
        let mut wrapped = Frame::<Message>::Replicated {
            env: env(),
            inner: search(1),
        }
        .encode::<RtreeWire>();
        wrapped.truncate(1 + REPL_ENV_WIRE_BYTES);
        wrapped.extend_from_slice(inner);
        (batch, wrapped)
    }

    #[test]
    fn forged_nesting_is_rejected_for_both_codecs() {
        fn check<W: WireCodec>(frames: Vec<Frame<W::Message>>)
        where
            W::Message: PartialEq,
        {
            // Every frame-layer frame, inside a batch and inside an envelope.
            for frame in frames.into_iter().skip(1) {
                let (batch, wrapped) = forged(&frame.encode::<W>());
                assert_eq!(Frame::decode::<W>(&batch), Err(MsgError::NestedBatch));
                assert_eq!(
                    Frame::decode::<W>(&wrapped),
                    Err(MsgError::NestedReplication)
                );
            }
        }
        let (rtree, kv) = frames();
        check::<RtreeWire>(rtree);
        check::<KvWire>(kv);
    }
}
