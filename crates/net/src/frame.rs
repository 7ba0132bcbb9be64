//! Length-prefixed, correlated wire framing.
//!
//! One frame is a 12-byte header — a `u32` little-endian payload length,
//! then a `u64` little-endian correlation id — followed by the payload:
//! the same self-framing layout `pangea_common::codec` uses inside pages,
//! lifted onto a byte stream. Frames larger than [`MAX_FRAME`] are
//! rejected on both sides: on send as an API misuse, on receive as
//! corruption (a desynchronized or malicious peer), so a bad length
//! prefix can never make a reader allocate gigabytes.
//!
//! The correlation id matches a response to the request it answers, so
//! one connection can pipeline many requests. A server answers with the
//! request's id; clients number their requests from 1, so a frame with
//! correlation 0 is a connection-level error that answers no request (a
//! connection-cap `Busy` at accept, or the report of a desynchronized
//! stream).

use pangea_common::{PangeaError, Result};
use std::io::{Read, Write};

/// Upper bound on one frame's payload. Generous relative to page sizes
/// (the largest legitimate messages are append batches and scan
/// replies).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Bytes of framing overhead per frame: the length prefix and the
/// correlation id.
pub const FRAME_OVERHEAD: usize = 12;

/// Writes one frame carrying correlation id `corr` and flushes.
pub fn write_frame_corr(w: &mut impl Write, corr: u64, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(PangeaError::usage(format!(
            "frame of {} B exceeds the {MAX_FRAME} B limit",
            payload.len()
        )));
    }
    // The header goes out in one write: on an unbuffered socket every
    // write is a syscall and, with Nagle off, a segment of its own.
    let mut header = [0u8; FRAME_OVERHEAD];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&corr.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame as `(correlation, payload)`.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF exactly at a frame
/// boundary — how a peer hangs up). EOF anywhere inside a frame, header
/// included, or a length above [`MAX_FRAME`], is corruption.
pub fn read_frame_corr(r: &mut impl Read) -> Result<Option<(u64, Vec<u8>)>> {
    let mut header = [0u8; FRAME_OVERHEAD];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial(got) => {
            return Err(PangeaError::Corruption(format!(
                "stream ended {got} B into a frame header"
            )));
        }
        ReadOutcome::Full => {}
    }
    let [l0, l1, l2, l3, corr @ ..] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let corr = u64::from_le_bytes(corr);
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
            write_frame_corr(&mut buf, 5, &payload).unwrap();
            assert_eq!(buf.len(), FRAME_OVERHEAD + len);
            let got = read_frame_corr(&mut Cursor::new(&buf)).unwrap().unwrap();
            assert_eq!(got, (5, payload));
        }
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_frame_corr(&mut Cursor::new(&[])).unwrap().is_none());
    }

    #[test]
    fn truncated_prefix_is_corruption() {
        let buf = [9u8, 0, 0]; // 3 of 4 prefix bytes
        assert!(matches!(
            read_frame_corr(&mut Cursor::new(&buf)),
            Err(PangeaError::Corruption(_))
        ));
    }

    #[test]
    fn truncated_payload_is_corruption() {
        let mut buf = Vec::new();
        write_frame_corr(&mut buf, 1, b"full payload").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame_corr(&mut Cursor::new(&buf)),
            Err(PangeaError::Corruption(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(b"junk");
        assert!(matches!(
            read_frame_corr(&mut Cursor::new(&buf)),
            Err(PangeaError::Corruption(_))
        ));
    }

    #[test]
    fn oversized_send_rejected() {
        // Zero-filled huge payload; write must refuse before any I/O.
        let payload = vec![0u8; MAX_FRAME + 1];
        let mut out = Vec::new();
        assert!(matches!(
            write_frame_corr(&mut out, 1, &payload),
            Err(PangeaError::InvalidUsage(_))
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn correlated_roundtrip_carries_the_id() {
        for corr in [0u64, 1, 2, 0xDEAD_BEEF, u64::MAX] {
            let mut buf = Vec::new();
            write_frame_corr(&mut buf, corr, b"payload").unwrap();
            assert_eq!(buf.len(), FRAME_OVERHEAD + 7);
            let (got_corr, payload) = read_frame_corr(&mut Cursor::new(&buf)).unwrap().unwrap();
            assert_eq!(got_corr, corr);
            assert_eq!(payload, b"payload");
        }
    }

    #[test]
    fn truncated_correlation_id_is_corruption() {
        let mut buf = Vec::new();
        write_frame_corr(&mut buf, 42, b"x").unwrap();
        for cut in 4..FRAME_OVERHEAD {
            let mut short = buf.clone();
            short.truncate(cut);
            assert!(matches!(
                read_frame_corr(&mut Cursor::new(&short)),
                Err(PangeaError::Corruption(_))
            ));
        }
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut buf = Vec::new();
        write_frame_corr(&mut buf, 3, b"three").unwrap();
        write_frame_corr(&mut buf, 0, b"connection error").unwrap();
        write_frame_corr(&mut buf, 9, b"").unwrap();
        let mut cur = Cursor::new(&buf);
        assert_eq!(
            read_frame_corr(&mut cur).unwrap().unwrap(),
            (3, b"three".to_vec())
        );
        assert_eq!(
            read_frame_corr(&mut cur).unwrap().unwrap(),
            (0, b"connection error".to_vec())
        );
        assert_eq!(read_frame_corr(&mut cur).unwrap().unwrap(), (9, Vec::new()));
        assert!(read_frame_corr(&mut cur).unwrap().is_none());
    }
}
