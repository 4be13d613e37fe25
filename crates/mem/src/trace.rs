//! Compact binary serialization of access traces.
//!
//! Workload traces can run to millions of accesses; re-generating a graph
//! and re-running BFS for every experiment is wasteful when the same trace
//! is replayed across five systems. This module provides a compact binary
//! encoding (~9 bytes per single-page access) for recording a trace once
//! and replaying it many times, or for importing traces captured outside
//! this workspace.
//!
//! # Format
//!
//! ```text
//! magic   b"GMTTRACE"     8 bytes
//! version u16 LE          currently 1
//! count   u64 LE          number of accesses
//! per access:
//!   header u8             bit 7 = write, bits 0..7 = page count (1..=127)
//!   pages  count x u64 LE
//! ```

use crate::{PageId, WarpAccess};

const MAGIC: &[u8; 8] = b"GMTTRACE";
const VERSION: u16 = 1;

/// Error decoding a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeTraceError {
    /// The buffer does not start with the trace magic.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u16),
    /// The buffer ended before the declared access count was read.
    Truncated,
    /// An access header declared zero pages.
    EmptyAccess,
}

impl std::fmt::Display for DecodeTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeTraceError::BadMagic => f.write_str("not a GMT trace (bad magic)"),
            DecodeTraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace version {v}")
            }
            DecodeTraceError::Truncated => f.write_str("trace ends before declared count"),
            DecodeTraceError::EmptyAccess => f.write_str("access with zero pages"),
        }
    }
}

impl std::error::Error for DecodeTraceError {}

/// Serializes a trace into a freshly allocated buffer.
///
/// # Examples
///
/// ```
/// use gmt_mem::{trace, PageId, WarpAccess};
/// let t = vec![WarpAccess::read(PageId(1)), WarpAccess::write(PageId(2))];
/// let bytes = trace::encode(&t);
/// assert_eq!(trace::decode(&bytes)?, t);
/// # Ok::<(), gmt_mem::trace::DecodeTraceError>(())
/// ```
///
/// # Panics
///
/// Panics if an access touches more than 127 distinct pages (a warp can
/// touch at most 32).
pub fn encode(accesses: &[WarpAccess]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(18 + accesses.len() * 9);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(accesses.len() as u64).to_le_bytes());
    for access in accesses {
        let n = access.pages.len();
        assert!(n > 0 && n <= 127, "access page count {n} out of range");
        let header = (n as u8) | if access.write { 0x80 } else { 0 };
        buf.push(header);
        for page in access.pages.iter() {
            buf.extend_from_slice(&page.0.to_le_bytes());
        }
    }
    buf
}

/// Splits the first `N` bytes off `buf`, or `None` if fewer remain.
fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, tail) = buf.split_first_chunk::<N>()?;
    *buf = tail;
    Some(*head)
}

/// Splits a little-endian `u64` off `buf`, or `None` if fewer than 8
/// bytes remain.
fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    take(buf).map(u64::from_le_bytes)
}

/// Deserializes a trace produced by [`encode`].
///
/// # Errors
///
/// Returns a [`DecodeTraceError`] if the buffer is not a well-formed
/// version-1 trace.
pub fn decode(mut buf: &[u8]) -> Result<Vec<WarpAccess>, DecodeTraceError> {
    let (Some(magic), Some(version), Some(count)) = (
        take::<8>(&mut buf),
        take(&mut buf).map(u16::from_le_bytes),
        take_u64(&mut buf),
    ) else {
        return Err(DecodeTraceError::BadMagic);
    };
    if &magic != MAGIC {
        return Err(DecodeTraceError::BadMagic);
    }
    if version != VERSION {
        return Err(DecodeTraceError::UnsupportedVersion(version));
    }
    // Every access takes at least 9 bytes, so the input bounds how many
    // can be real whatever the header declares.
    let most_accesses = (buf.len() / 9) as u64;
    let mut out = Vec::with_capacity(count.min(most_accesses) as usize);
    for _ in 0..count {
        let [header] = take(&mut buf).ok_or(DecodeTraceError::Truncated)?;
        let write = header & 0x80 != 0;
        let n = (header & 0x7F) as usize;
        if n == 0 {
            return Err(DecodeTraceError::EmptyAccess);
        }
        let (pages, rest) = buf
            .split_at_checked(n * 8)
            .ok_or(DecodeTraceError::Truncated)?;
        buf = rest;
        let pages = pages
            .as_chunks::<8>()
            .0
            .iter()
            .map(|&page| PageId(u64::from_le_bytes(page)))
            .collect();
        out.push(WarpAccess::scattered(pages, write));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<WarpAccess> {
        vec![
            WarpAccess::read(PageId(0)),
            WarpAccess::write(PageId(u64::MAX)),
            WarpAccess::scattered(vec![PageId(5), PageId(9), PageId(1)], false),
            WarpAccess::scattered((0..32).map(PageId).collect(), true),
        ]
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t: Vec<WarpAccess> = Vec::new();
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut b = encode(&sample());
        b[0] = b'X';
        assert_eq!(decode(&b), Err(DecodeTraceError::BadMagic));
        assert_eq!(decode(&[]), Err(DecodeTraceError::BadMagic));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut b = encode(&sample());
        b[8] = 9;
        assert_eq!(decode(&b), Err(DecodeTraceError::UnsupportedVersion(9)));
    }

    #[test]
    fn truncation_detected() {
        let b = encode(&sample());
        for cut in [19, b.len() - 1] {
            assert_eq!(
                decode(&b[..cut]),
                Err(DecodeTraceError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn huge_declared_count_is_truncated() {
        let mut b = encode(&[]);
        b[10..18].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&b), Err(DecodeTraceError::Truncated));
    }

    #[test]
    fn zero_page_access_rejected() {
        let mut b = encode(&[WarpAccess::read(PageId(1))]);
        b[18] &= 0x80; // clear the page count
        assert_eq!(decode(&b), Err(DecodeTraceError::EmptyAccess));
    }

    #[test]
    fn size_is_compact() {
        let t = vec![WarpAccess::read(PageId(1)); 1000];
        assert_eq!(encode(&t).len(), 18 + 1000 * 9);
    }
}
