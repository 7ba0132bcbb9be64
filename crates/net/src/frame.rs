//! Length-prefixed wire framing.
//!
//! One frame is a `u32` little-endian payload length followed by the
//! payload bytes — the same self-framing layout `pangea_common::codec`
//! uses inside pages, lifted onto a byte stream. Frames larger than
//! [`MAX_FRAME`] are rejected on both sides: on send as an API misuse, on
//! receive as corruption (a desynchronized or malicious peer), so a bad
//! length prefix can never make a reader allocate gigabytes.
//!
//! ## Correlated frames
//!
//! A connection that pipelines requests needs responses matched back to
//! the request they answer, so a frame can optionally carry a `u64`
//! correlation id: bit 31 of the length prefix ([`CORR_FLAG`]) marks a
//! correlated frame, whose payload length is followed by an 8-byte
//! little-endian id before the payload. The flag bit is free because
//! [`MAX_FRAME`] is 2^26 — a legal length never sets it, and a legacy
//! reader that saw one would reject it as an oversized frame instead of
//! desynchronizing. Legacy frames (no flag) decode as correlation `0`,
//! the strict-serial id, and correlation `0` is always *written* as a
//! legacy frame — so a server answering in the shape the request used
//! stays byte-identical to the pre-correlation protocol for serial
//! clients.

use pangea_common::{PangeaError, Result};
use std::io::{Read, Write};

/// Upper bound on one frame's payload. Generous relative to page sizes
/// (the largest legitimate message is a page fetch or an append batch).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Bytes of framing overhead per frame (the length prefix).
pub const FRAME_OVERHEAD: usize = 4;

/// Length-prefix bit marking a correlated frame (id follows the prefix).
pub const CORR_FLAG: u32 = 0x8000_0000;

/// Bytes of framing overhead per *correlated* frame (length prefix plus
/// the 8-byte correlation id).
pub const FRAME_CORR_OVERHEAD: usize = FRAME_OVERHEAD + 8;

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    write_frame_corr(w, 0, payload)
}

/// Writes one frame carrying correlation id `corr` and flushes.
///
/// Correlation `0` (the strict-serial id) is written as a legacy
/// unflagged frame, so serial traffic is bit-for-bit what it was before
/// correlation existed.
pub fn write_frame_corr(w: &mut impl Write, corr: u64, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(PangeaError::usage(format!(
            "frame of {} B exceeds the {MAX_FRAME} B limit",
            payload.len()
        )));
    }
    // Prefix and id go out in one write: on an unbuffered socket every
    // write is a syscall and, with Nagle off, a segment of its own.
    let mut header = [0u8; FRAME_CORR_OVERHEAD];
    let header_len = if corr == 0 {
        header[..FRAME_OVERHEAD].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        FRAME_OVERHEAD
    } else {
        header[..FRAME_OVERHEAD].copy_from_slice(&(payload.len() as u32 | CORR_FLAG).to_le_bytes());
        header[FRAME_OVERHEAD..].copy_from_slice(&corr.to_le_bytes());
        FRAME_CORR_OVERHEAD
    };
    w.write_all(&header[..header_len])?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame's payload, discarding any correlation id.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF exactly at a frame
/// boundary — how a peer hangs up). EOF in the *middle* of a frame, or a
/// length prefix above [`MAX_FRAME`], is corruption.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    Ok(read_frame_corr(r)?.map(|(_, payload)| payload))
}

/// Reads one frame as `(correlation, payload)`.
///
/// Legacy frames (no [`CORR_FLAG`]) decode as correlation `0`. EOF and
/// corruption semantics match [`read_frame`]; a truncation anywhere in
/// the correlation id is corruption, same as inside the prefix.
pub fn read_frame_corr(r: &mut impl Read) -> Result<Option<(u64, Vec<u8>)>> {
    let mut prefix = [0u8; FRAME_OVERHEAD];
    match read_exact_or_eof(r, &mut prefix)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial(got) => {
            return Err(PangeaError::Corruption(format!(
                "stream ended {got} B into a frame length prefix"
            )));
        }
        ReadOutcome::Full => {}
    }
    let raw = u32::from_le_bytes(prefix);
    let corr = if raw & CORR_FLAG != 0 {
        let mut id = [0u8; 8];
        match read_exact_or_eof(r, &mut id)? {
            ReadOutcome::Full => {}
            ReadOutcome::Eof | ReadOutcome::Partial(_) => {
                return Err(PangeaError::Corruption(
                    "stream ended inside a frame correlation id".to_string(),
                ));
            }
        }
        u64::from_le_bytes(id)
    } else {
        0
    };
    let len = (raw & !CORR_FLAG) as usize;
    if len > MAX_FRAME {
        return Err(PangeaError::Corruption(format!(
            "frame length {len} B exceeds the {MAX_FRAME} B limit"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            PangeaError::Corruption(format!("stream ended inside a frame expecting {len} B"))
        } else {
            PangeaError::from(e)
        }
    })?;
    Ok(Some((corr, payload)))
}

enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// EOF before the first byte.
    Eof,
    /// EOF after some bytes (count carried).
    Partial(usize),
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::Eof),
            Ok(0) => return Ok(ReadOutcome::Partial(filled)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_various_sizes() {
        for len in [0usize, 1, 7, 4096, 100_000] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut buf = Vec::new();
            write_frame(&mut buf, &payload).unwrap();
            assert_eq!(buf.len(), FRAME_OVERHEAD + len);
            let got = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_frame(&mut Cursor::new(&[])).unwrap().is_none());
    }

    #[test]
    fn truncated_prefix_is_corruption() {
        let buf = [9u8, 0, 0]; // 3 of 4 prefix bytes
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(PangeaError::Corruption(_))
        ));
    }

    #[test]
    fn truncated_payload_is_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(PangeaError::Corruption(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(PangeaError::Corruption(_))
        ));
    }

    #[test]
    fn oversized_send_rejected() {
        // Zero-filled huge payload; write must refuse before any I/O.
        let payload = vec![0u8; MAX_FRAME + 1];
        let mut out = Vec::new();
        assert!(matches!(
            write_frame(&mut out, &payload),
            Err(PangeaError::InvalidUsage(_))
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn correlated_roundtrip_carries_the_id() {
        for corr in [1u64, 2, 0xDEAD_BEEF, u64::MAX] {
            let mut buf = Vec::new();
            write_frame_corr(&mut buf, corr, b"payload").unwrap();
            assert_eq!(buf.len(), FRAME_CORR_OVERHEAD + 7);
            let (got_corr, payload) = read_frame_corr(&mut Cursor::new(&buf)).unwrap().unwrap();
            assert_eq!(got_corr, corr);
            assert_eq!(payload, b"payload");
        }
    }

    #[test]
    fn correlation_zero_is_written_as_a_legacy_frame() {
        let mut legacy = Vec::new();
        write_frame(&mut legacy, b"serial").unwrap();
        let mut corr0 = Vec::new();
        write_frame_corr(&mut corr0, 0, b"serial").unwrap();
        assert_eq!(legacy, corr0);
        assert_eq!(legacy.len(), FRAME_OVERHEAD + 6);
    }

    #[test]
    fn legacy_frame_decodes_as_correlation_zero() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"old wire").unwrap();
        let (corr, payload) = read_frame_corr(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(corr, 0);
        assert_eq!(payload, b"old wire");
    }

    #[test]
    fn legacy_reader_sees_correlated_frame_as_corruption_not_desync() {
        // The flag bit makes the prefix read as an impossible length, so
        // a pre-correlation reader rejects the frame instead of
        // misparsing the id bytes as payload.
        let mut buf = Vec::new();
        write_frame_corr(&mut buf, 7, b"new wire").unwrap();
        let raw = u32::from_le_bytes(buf[..4].try_into().unwrap());
        assert!((raw as usize) > MAX_FRAME);
    }

    #[test]
    fn truncated_correlation_id_is_corruption() {
        let mut buf = Vec::new();
        write_frame_corr(&mut buf, 42, b"x").unwrap();
        for cut in FRAME_OVERHEAD..FRAME_CORR_OVERHEAD {
            let mut short = buf.clone();
            short.truncate(cut);
            assert!(matches!(
                read_frame_corr(&mut Cursor::new(&short)),
                Err(PangeaError::Corruption(_))
            ));
        }
    }

    #[test]
    fn interleaved_correlated_and_legacy_frames_parse_in_order() {
        let mut buf = Vec::new();
        write_frame_corr(&mut buf, 3, b"three").unwrap();
        write_frame(&mut buf, b"serial").unwrap();
        write_frame_corr(&mut buf, 9, b"").unwrap();
        let mut cur = Cursor::new(&buf);
        assert_eq!(
            read_frame_corr(&mut cur).unwrap().unwrap(),
            (3, b"three".to_vec())
        );
        assert_eq!(
            read_frame_corr(&mut cur).unwrap().unwrap(),
            (0, b"serial".to_vec())
        );
        assert_eq!(read_frame_corr(&mut cur).unwrap().unwrap(), (9, Vec::new()));
        assert!(read_frame_corr(&mut cur).unwrap().is_none());
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"two").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"one");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"two");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cur).unwrap().is_none());
    }
}
