//! Property-based tests of the wire codec: for *any* frame sequence and
//! *any* way the bytes arrive (bulk, split, byte-at-a-time), decoding
//! inverts encoding exactly; truncated streams park at `Ok(None)` rather
//! than erroring; and arbitrary garbage never panics the decoder.

use proptest::prelude::*;

use iba_serve::proto::{payload_len, CloseReason, Frame, FrameDecoder, MAX_FRAME_LEN};

fn close_reason() -> BoxedStrategy<CloseReason> {
    prop_oneof![
        Just(CloseReason::Shutdown),
        Just(CloseReason::Drain),
        Just(CloseReason::SlowConsumer),
    ]
    .boxed()
}

fn frame() -> BoxedStrategy<Frame> {
    prop_oneof![
        any::<u64>().prop_map(|req_id| Frame::Alloc { req_id }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(req_id, ticket)| Frame::Accepted { req_id, ticket }),
        any::<u64>().prop_map(|req_id| Frame::Saturated { req_id }),
        (any::<u64>(), close_reason())
            .prop_map(|(req_id, reason)| Frame::Closed { req_id, reason }),
        (any::<u64>(), any::<u64>(), any::<u64>(), 0u64..1 << 40).prop_map(
            |(ticket, bin, admitted_round, waiting_rounds)| Frame::Completed {
                ticket,
                bin,
                admitted_round,
                served_round: admitted_round.saturating_add(waiting_rounds),
                waiting_rounds,
            }
        ),
    ]
    .boxed()
}

/// Splits `bytes` into chunks whose sizes are driven by `cuts`, covering
/// everything from one bulk push to byte-at-a-time delivery.
fn chunked(bytes: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    if cuts.is_empty() {
        return vec![bytes.to_vec()];
    }
    let mut chunks = Vec::new();
    let mut rest = bytes;
    let mut i = 0;
    while !rest.is_empty() {
        let take = (cuts[i % cuts.len()] % rest.len()) + 1;
        let (head, tail) = rest.split_at(take);
        chunks.push(head.to_vec());
        rest = tail;
        i += 1;
    }
    chunks
}

fn decode_all(decoder: &mut FrameDecoder) -> Vec<Frame> {
    let mut frames = Vec::new();
    while let Some(f) = decoder.next_frame().expect("valid stream") {
        frames.push(f);
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: any frame sequence, delivered in any chunking, decodes
    /// back to exactly the same sequence with no bytes left over.
    #[test]
    fn decoding_inverts_encoding_under_any_chunking(
        frames in prop::collection::vec(frame(), 0..24),
        cuts in prop::collection::vec(1usize..64, 0..16),
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for chunk in chunked(&wire, &cuts) {
            decoder.push(&chunk);
            decoded.extend(decode_all(&mut decoder));
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(decoder.buffered(), 0, "no residual bytes");
    }

    /// Any strict prefix of a valid frame is "not yet" (`Ok(None)`), never
    /// an error — and appending the remainder always completes the frame.
    #[test]
    fn truncated_prefixes_wait_instead_of_erroring(f in frame()) {
        let wire = f.encode();
        for cut in 0..wire.len() {
            let mut decoder = FrameDecoder::new();
            decoder.push(&wire[..cut]);
            prop_assert_eq!(decoder.next_frame(), Ok(None), "cut at {}", cut);
            decoder.push(&wire[cut..]);
            prop_assert_eq!(decoder.next_frame(), Ok(Some(f)), "resume at {}", cut);
            prop_assert_eq!(decoder.next_frame(), Ok(None));
        }
    }

    /// Feeding arbitrary garbage never panics: every outcome is a decoded
    /// frame, a parked `Ok(None)`, or a structured `ProtoError` — and once
    /// a stream errors it keeps erroring (no silent resync on garbage).
    #[test]
    fn arbitrary_garbage_never_panics(
        junk in prop::collection::vec(any::<u8>(), 0..256),
        cuts in prop::collection::vec(1usize..32, 0..8),
    ) {
        let mut decoder = FrameDecoder::new();
        let mut failed = None;
        for chunk in chunked(&junk, &cuts) {
            decoder.push(&chunk);
            loop {
                match decoder.next_frame() {
                    Ok(Some(f)) => {
                        // A lucky byte run can form a real frame; it must
                        // then re-encode to a validly sized frame.
                        let len = f.encode().len() as u32;
                        prop_assert!(len - 4 <= MAX_FRAME_LEN);
                        prop_assert_eq!(payload_len(f.opcode()), Some(len - 4));
                    }
                    Ok(None) => break,
                    Err(e) => {
                        if let Some(first) = failed {
                            prop_assert_eq!(e, first, "error is sticky");
                        }
                        failed = Some(e);
                        break;
                    }
                }
            }
        }
        if let Some(e) = failed {
            prop_assert_eq!(decoder.next_frame(), Err(e), "error is sticky");
        }
    }

    /// Version tolerance: the legacy 9-byte reason-less `Closed` frame an
    /// old peer sends decodes as `Shutdown`, under any chunking and mixed
    /// freely with current-format frames.
    #[test]
    fn legacy_closed_frames_decode_as_shutdown_in_any_mix(
        req_ids in prop::collection::vec(any::<u64>(), 1..8),
        modern in prop::collection::vec(frame(), 0..8),
        cuts in prop::collection::vec(1usize..16, 0..8),
    ) {
        // Interleave legacy Closed frames with modern frames on one wire.
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for (i, &req_id) in req_ids.iter().enumerate() {
            // Hand-built legacy frame: len = 1 (opcode) + 8 (req_id).
            wire.extend_from_slice(&9u32.to_le_bytes());
            wire.push(4); // OP_CLOSED
            wire.extend_from_slice(&req_id.to_le_bytes());
            expected.push(Frame::Closed { req_id, reason: CloseReason::Shutdown });
            if let Some(f) = modern.get(i) {
                f.encode_into(&mut wire);
                expected.push(*f);
            }
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for chunk in chunked(&wire, &cuts) {
            decoder.push(&chunk);
            decoded.extend(decode_all(&mut decoder));
        }
        prop_assert_eq!(decoded, expected);
    }

    /// Forward tolerance: any unknown close-reason code decodes as
    /// `Shutdown` instead of erroring, so old clients survive new codes.
    #[test]
    fn unknown_close_reason_codes_decode_as_shutdown(
        req_id in any::<u64>(),
        code in 4u64..u64::MAX,
    ) {
        let mut wire = Vec::new();
        wire.extend_from_slice(&17u32.to_le_bytes());
        wire.push(4); // OP_CLOSED
        wire.extend_from_slice(&req_id.to_le_bytes());
        wire.extend_from_slice(&code.to_le_bytes());
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        prop_assert_eq!(
            decoder.next_frame(),
            Ok(Some(Frame::Closed { req_id, reason: CloseReason::Shutdown }))
        );
    }

    /// Garbage-then-valid isolation: garbage poisons only the decoder it
    /// hit (sticky error, like the front end dropping that connection); a
    /// fresh decoder — a new connection — decodes the valid frames that
    /// follow the garbage boundary perfectly.
    #[test]
    fn garbage_poisons_only_its_own_decoder(
        junk in prop::collection::vec(any::<u8>(), 1..64),
        frames in prop::collection::vec(frame(), 1..8),
        cuts in prop::collection::vec(1usize..16, 0..8),
    ) {
        // Make the junk unambiguous garbage: a length prefix over the cap.
        let mut poisoned_wire = Vec::new();
        poisoned_wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        poisoned_wire.extend_from_slice(&junk);
        let mut valid_wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut valid_wire);
        }

        // The poisoned decoder errors and stays errored even as valid
        // bytes keep arriving.
        let mut poisoned = FrameDecoder::new();
        poisoned.push(&poisoned_wire);
        let first = poisoned.next_frame().expect_err("over-cap length");
        poisoned.push(&valid_wire);
        prop_assert_eq!(poisoned.next_frame(), Err(first), "sticky across valid bytes");

        // A fresh decoder starting at the valid boundary sees everything.
        let mut fresh = FrameDecoder::new();
        let mut decoded = Vec::new();
        for chunk in chunked(&valid_wire, &cuts) {
            fresh.push(&chunk);
            decoded.extend(decode_all(&mut fresh));
        }
        prop_assert_eq!(decoded, frames);
    }
}
