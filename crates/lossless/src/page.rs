//! The paged container tying LZ77 and Huffman together.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "DZLC" | version u8 | page_size u32 | raw_len u64 | crc32 u32 | n_pages u32
//! page table: n_pages x { comp_len u32, mode u8 }
//! page payloads, back to back
//! ```
//!
//! Each page covers `page_size` raw bytes independently (the last page
//! may be shorter). A page is Huffman-coded (`mode = 0`) or stored raw
//! (`mode = 1`), mirroring DEFLATE's stored blocks. Independent pages are
//! what makes GDeflate GPU-friendly: a decompression engine assigns one
//! page per thread block. Here they bound the memory of the matcher, and
//! a stream whose pages are all stored decodes by borrowing its payload
//! region in place ([`decode`]).
//!
//! [`compress`] entropy-codes every page and keeps the Huffman payload
//! when it is smaller; [`store`] writes every page stored. Both produce
//! the same container, and every reader accepts both.

use crate::bitio::{BitReader, BitWriter};
use crate::crc::crc32;
use crate::huffman::{code_lengths, DecodeError, Decoder, Encoder, LutDecoder, MAX_CODE_LEN};
use crate::lz77::{tokenize, Token, MAX_MATCH, MIN_MATCH};
use std::borrow::Cow;

/// Default page size (64 KiB, as GDeflate uses).
pub const DEFAULT_PAGE_SIZE: usize = 64 * 1024;

const MAGIC: &[u8; 4] = b"DZLC";
const VERSION: u8 = 2;
const MODE_HUFFMAN: u8 = 0;
const MODE_STORED: u8 = 1;

/// Number of literal/length symbols (256 literals + EOB + 29 length codes).
const NUM_LITLEN: usize = 286;
/// End-of-block symbol.
const EOB: usize = 256;
/// Number of distance symbols.
const NUM_DIST: usize = 30;

/// `(base_length, extra_bits)` for length codes 257..=285.
const LEN_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// `(base_distance, extra_bits)` for distance codes 0..=29.
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Errors surfaced while decoding a compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Stream does not start with the container magic.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u8),
    /// Stream is shorter than its headers claim.
    Truncated,
    /// A page failed to entropy-decode.
    Corrupt(&'static str),
    /// The decoded payload does not match the stored checksum.
    ChecksumMismatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::Truncated => write!(f, "truncated stream"),
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<DecodeError> for CodecError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::OutOfBits => CodecError::Truncated,
            DecodeError::BadCode => CodecError::Corrupt("invalid huffman code"),
        }
    }
}

fn length_to_symbol(len: u16) -> (usize, u16, u8) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&(len as usize)));
    // Find the last code whose base <= len.
    let mut idx = 0;
    for (i, (base, _)) in LEN_TABLE.iter().enumerate() {
        if *base <= len {
            idx = i;
        } else {
            break;
        }
    }
    let (base, extra) = LEN_TABLE[idx];
    (257 + idx, len - base, extra)
}

fn dist_to_symbol(dist: u16) -> (usize, u16, u8) {
    let mut idx = 0;
    for (i, (base, _)) in DIST_TABLE.iter().enumerate() {
        if *base <= dist {
            idx = i;
        } else {
            break;
        }
    }
    let (base, extra) = DIST_TABLE[idx];
    (idx, dist - base, extra)
}

/// Compresses one page; returns `(mode, payload)`.
fn compress_page(raw: &[u8]) -> (u8, Vec<u8>) {
    let tokens = tokenize(raw);
    // Gather symbol frequencies.
    let mut lit_freq = vec![0u64; NUM_LITLEN];
    let mut dist_freq = vec![0u64; NUM_DIST];
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                lit_freq[length_to_symbol(len).0] += 1;
                dist_freq[dist_to_symbol(dist).0] += 1;
            }
        }
    }
    lit_freq[EOB] += 1;
    let lit_lens = code_lengths(&lit_freq, MAX_CODE_LEN);
    let dist_lens = code_lengths(&dist_freq, MAX_CODE_LEN);
    let lit_enc = Encoder::from_lengths(&lit_lens);
    let dist_enc = Encoder::from_lengths(&dist_lens);

    let mut w = BitWriter::new();
    // Header: code lengths, 4 bits each (max length is 15).
    for &l in &lit_lens {
        w.write_bits(l, 4);
    }
    for &l in &dist_lens {
        w.write_bits(l, 4);
    }
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_enc.encode(&mut w, b as usize),
            Token::Match { len, dist } => {
                let (sym, extra_val, extra_bits) = length_to_symbol(len);
                lit_enc.encode(&mut w, sym);
                if extra_bits > 0 {
                    w.write_bits(extra_val as u32, extra_bits as u32);
                }
                let (dsym, dextra_val, dextra_bits) = dist_to_symbol(dist);
                dist_enc.encode(&mut w, dsym);
                if dextra_bits > 0 {
                    w.write_bits(dextra_val as u32, dextra_bits as u32);
                }
            }
        }
    }
    lit_enc.encode(&mut w, EOB);
    let payload = w.finish();
    if payload.len() >= raw.len() {
        (MODE_STORED, raw.to_vec())
    } else {
        (MODE_HUFFMAN, payload)
    }
}

/// Reference page decoder: the original bit-at-a-time tree-walk path,
/// retained as the correctness oracle for the LUT fast path.
fn decompress_page_reference(
    payload: &[u8],
    mode: u8,
    raw_len: usize,
) -> Result<Vec<u8>, CodecError> {
    match mode {
        MODE_STORED => {
            if payload.len() != raw_len {
                return Err(CodecError::Corrupt("stored page length mismatch"));
            }
            Ok(payload.to_vec())
        }
        MODE_HUFFMAN => {
            let mut r = BitReader::new(payload);
            let mut lit_lens = vec![0u32; NUM_LITLEN];
            for l in lit_lens.iter_mut() {
                *l = r.read_bits(4).map_err(|_| CodecError::Truncated)?;
            }
            let mut dist_lens = vec![0u32; NUM_DIST];
            for l in dist_lens.iter_mut() {
                *l = r.read_bits(4).map_err(|_| CodecError::Truncated)?;
            }
            let lit_dec = Decoder::from_lengths(&lit_lens);
            let dist_dec = Decoder::from_lengths(&dist_lens);
            let mut out = Vec::with_capacity(raw_len);
            loop {
                let sym = lit_dec.decode(&mut r)? as usize;
                if sym == EOB {
                    break;
                }
                if sym < 256 {
                    out.push(sym as u8);
                } else {
                    let idx = sym - 257;
                    if idx >= LEN_TABLE.len() {
                        return Err(CodecError::Corrupt("bad length symbol"));
                    }
                    let (base, extra) = LEN_TABLE[idx];
                    let len = base as usize
                        + r.read_bits(extra as u32)
                            .map_err(|_| CodecError::Truncated)? as usize;
                    let dsym = dist_dec.decode(&mut r)? as usize;
                    if dsym >= DIST_TABLE.len() {
                        return Err(CodecError::Corrupt("bad distance symbol"));
                    }
                    let (dbase, dextra) = DIST_TABLE[dsym];
                    let dist = dbase as usize
                        + r.read_bits(dextra as u32)
                            .map_err(|_| CodecError::Truncated)? as usize;
                    if dist == 0 || dist > out.len() {
                        return Err(CodecError::Corrupt("distance before start"));
                    }
                    let start = out.len() - dist;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
                if out.len() > raw_len {
                    return Err(CodecError::Corrupt("page overflow"));
                }
            }
            if out.len() != raw_len {
                return Err(CodecError::Corrupt("page length mismatch"));
            }
            Ok(out)
        }
        _ => Err(CodecError::Corrupt("unknown page mode")),
    }
}

/// Fast-path page decoder: LUT Huffman decoding straight into the caller's
/// output slice (whose length is the page's expected raw length), with
/// `copy_within` for non-overlapping match copies.
fn decompress_page_into(payload: &[u8], mode: u8, out: &mut [u8]) -> Result<(), CodecError> {
    match mode {
        MODE_STORED => {
            if payload.len() != out.len() {
                return Err(CodecError::Corrupt("stored page length mismatch"));
            }
            out.copy_from_slice(payload);
            Ok(())
        }
        MODE_HUFFMAN => {
            let mut r = BitReader::new(payload);
            let mut lit_lens = vec![0u32; NUM_LITLEN];
            for l in lit_lens.iter_mut() {
                *l = r.read_bits(4).map_err(|_| CodecError::Truncated)?;
            }
            let mut dist_lens = vec![0u32; NUM_DIST];
            for l in dist_lens.iter_mut() {
                *l = r.read_bits(4).map_err(|_| CodecError::Truncated)?;
            }
            let lit_dec = LutDecoder::from_lengths(&lit_lens);
            let dist_dec = LutDecoder::from_lengths(&dist_lens);
            let mut filled = 0usize;
            loop {
                // One 32-bit peek covers the longest code (15 bits) plus its
                // extra bits, so each symbol costs a single probe and a
                // single consume.
                let peek = r.peek_bits(32);
                let (sym, clen) = lit_dec.probe(peek)?;
                let sym = sym as usize;
                if sym == EOB {
                    r.consume(clen).map_err(|_| CodecError::Truncated)?;
                    break;
                }
                if sym < 256 {
                    r.consume(clen).map_err(|_| CodecError::Truncated)?;
                    if filled == out.len() {
                        return Err(CodecError::Corrupt("page overflow"));
                    }
                    out[filled] = sym as u8;
                    filled += 1;
                } else {
                    let idx = sym - 257;
                    if idx >= LEN_TABLE.len() {
                        return Err(CodecError::Corrupt("bad length symbol"));
                    }
                    let (base, extra) = LEN_TABLE[idx];
                    let extra = extra as u32;
                    let len = base as usize + ((peek >> clen) & ((1u32 << extra) - 1)) as usize;
                    r.consume(clen + extra).map_err(|_| CodecError::Truncated)?;
                    let dpeek = r.peek_bits(32);
                    let (dsym, dclen) = dist_dec.probe(dpeek)?;
                    let dsym = dsym as usize;
                    if dsym >= DIST_TABLE.len() {
                        return Err(CodecError::Corrupt("bad distance symbol"));
                    }
                    let (dbase, dextra) = DIST_TABLE[dsym];
                    let dextra = dextra as u32;
                    let dist =
                        dbase as usize + ((dpeek >> dclen) & ((1u32 << dextra) - 1)) as usize;
                    r.consume(dclen + dextra)
                        .map_err(|_| CodecError::Truncated)?;
                    if dist == 0 || dist > filled {
                        return Err(CodecError::Corrupt("distance before start"));
                    }
                    if len > out.len() - filled {
                        return Err(CodecError::Corrupt("page overflow"));
                    }
                    let start = filled - dist;
                    if dist >= len {
                        out.copy_within(start..start + len, filled);
                    } else {
                        // Overlapping run (dist < len): the output repeats a
                        // dist-byte pattern. Replicate it by doubling — each
                        // copy's source ends where the previous one finished,
                        // so every copy_within is non-overlapping and the
                        // whole run costs O(log(len/dist)) memmoves instead
                        // of len byte stores.
                        let mut w = 0usize;
                        while w < len {
                            let chunk = (dist + w).min(len - w);
                            out.copy_within(start..start + chunk, filled + w);
                            w += chunk;
                        }
                    }
                    filled += len;
                }
            }
            if filled != out.len() {
                return Err(CodecError::Corrupt("page length mismatch"));
            }
            Ok(())
        }
        _ => Err(CodecError::Corrupt("unknown page mode")),
    }
}

/// Compresses `data` with the default page size.
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with_page_size(data, DEFAULT_PAGE_SIZE)
}

/// Compresses `data` with an explicit page size. Each page keeps its
/// Huffman payload only when it is smaller than the raw page.
///
/// # Panics
///
/// Panics if `page_size == 0`.
pub fn compress_with_page_size(data: &[u8], page_size: usize) -> Vec<u8> {
    assert!(page_size > 0, "page size must be positive");
    let pages: Vec<(u8, Vec<u8>)> = data.chunks(page_size).map(compress_page).collect();
    let mut out = container_head(data, page_size);
    for (mode, payload) in &pages {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.push(*mode);
    }
    for (_, payload) in &pages {
        out.extend_from_slice(payload);
    }
    out
}

/// Wraps `data` in the container with every page stored: no LZ77, no
/// Huffman. The output reads back through [`decompress`] and [`decode`]
/// like any other stream, and [`decode`] borrows its payload in place.
pub fn store(data: &[u8]) -> Vec<u8> {
    let page_size = DEFAULT_PAGE_SIZE;
    let mut out = container_head(data, page_size);
    out.reserve(data.len().div_ceil(page_size) * 5 + data.len());
    for chunk in data.chunks(page_size) {
        out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        out.push(MODE_STORED);
    }
    out.extend_from_slice(data);
    out
}

/// The container header up to and including the page count.
fn container_head(data: &[u8], page_size: usize) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(page_size as u32).to_le_bytes());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len().div_ceil(page_size) as u32).to_le_bytes());
    out
}

/// A parsed container: header fields plus per-page payload slices.
struct ParsedStream<'a> {
    page_size: usize,
    raw_len: usize,
    stored_crc: u32,
    /// `(payload, mode)` per page, in order.
    pages: Vec<(&'a [u8], u8)>,
    /// Every page payload, back to back: the raw bytes themselves when
    /// every page is stored.
    body: &'a [u8],
}

/// Parses the header and page table. Every length is checked against
/// what the stream can back before anything is allocated from it: the
/// page table must fit the input, and each page's share of `raw_len` must
/// be producible from its payload — a stored page yields exactly its
/// payload length, a Huffman page at most `MAX_MATCH` bytes per two
/// payload bits (a match costs at least one length and one distance bit).
fn parse_stream(stream: &[u8]) -> Result<ParsedStream<'_>, CodecError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], CodecError> {
        if n > stream.len() - *pos {
            return Err(CodecError::Truncated);
        }
        let s = &stream[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let le_u32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    if take(&mut pos, 4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = take(&mut pos, 1)?[0];
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let page_size = le_u32(take(&mut pos, 4)?) as usize;
    let mut raw_len = [0u8; 8];
    raw_len.copy_from_slice(take(&mut pos, 8)?);
    let raw_len = usize::try_from(u64::from_le_bytes(raw_len))
        .map_err(|_| CodecError::Corrupt("raw length exceeds usize"))?;
    let stored_crc = le_u32(take(&mut pos, 4)?);
    let n_pages = le_u32(take(&mut pos, 4)?) as usize;
    if page_size == 0 && raw_len > 0 {
        return Err(CodecError::Corrupt("zero page size"));
    }
    if n_pages != raw_len.div_ceil(page_size.max(1)) {
        return Err(CodecError::Corrupt("page count mismatch"));
    }
    let table = take(
        &mut pos,
        n_pages.checked_mul(5).ok_or(CodecError::Truncated)?,
    )?;
    let body_start = pos;
    let mut pages = Vec::with_capacity(n_pages);
    let mut left = raw_len;
    for entry in table.chunks_exact(5) {
        let (len, mode) = (le_u32(entry) as usize, entry[4]);
        let page_raw = left.min(page_size);
        left -= page_raw;
        let producible = match mode {
            MODE_STORED if len != page_raw => {
                return Err(CodecError::Corrupt("stored page length mismatch"))
            }
            MODE_STORED => len,
            MODE_HUFFMAN => len.saturating_mul(4 * MAX_MATCH),
            _ => return Err(CodecError::Corrupt("unknown page mode")),
        };
        if page_raw > producible {
            return Err(CodecError::Corrupt("page raw length exceeds its payload"));
        }
        pages.push((take(&mut pos, len)?, mode));
    }
    Ok(ParsedStream {
        page_size,
        raw_len,
        stored_crc,
        pages,
        body: &stream[body_start..pos],
    })
}

/// Decodes a stream produced by [`compress`] or [`store`] and checks it
/// against the header CRC. Returns the raw bytes — borrowed from `stream`
/// when every page is stored, so an all-stored stream costs one CRC pass
/// and no copy — together with their CRC32, which callers holding a CRC
/// of their own can compare without hashing the bytes again.
///
/// Pages decode serially through the LUT Huffman decoder.
pub fn decode(stream: &[u8]) -> Result<(Cow<'_, [u8]>, u32), CodecError> {
    let parsed = parse_stream(stream)?;
    let raw = if parsed.pages.iter().all(|&(_, mode)| mode == MODE_STORED) {
        Cow::Borrowed(parsed.body)
    } else {
        let mut out = vec![0u8; parsed.raw_len];
        for ((payload, mode), chunk) in parsed
            .pages
            .iter()
            .zip(out.chunks_mut(parsed.page_size.max(1)))
        {
            decompress_page_into(payload, *mode, chunk)?;
        }
        Cow::Owned(out)
    };
    let crc = crc32(&raw);
    if crc != parsed.stored_crc {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok((raw, crc))
}

/// Decompresses a stream produced by [`compress`] or [`store`] into an
/// owned buffer: [`decode`] without the borrow.
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, CodecError> {
    decode(stream).map(|(raw, _)| raw.into_owned())
}

/// Decompresses through the retained serial reference path (bit-at-a-time
/// tree-walk decoder, pages in order). Kept as the oracle the fast path is
/// property-tested against; byte-identical to [`decompress`] on success and
/// erring on every input the fast path rejects.
pub fn decompress_reference(stream: &[u8]) -> Result<Vec<u8>, CodecError> {
    let parsed = parse_stream(stream)?;
    let n_pages = parsed.pages.len();
    let mut out = Vec::with_capacity(parsed.raw_len);
    for (i, (payload, mode)) in parsed.pages.iter().enumerate() {
        let expected = if i + 1 == n_pages {
            parsed.raw_len - parsed.page_size * (n_pages - 1)
        } else {
            parsed.page_size
        };
        out.extend(decompress_page_reference(payload, *mode, expected)?);
    }
    if crate::crc::crc32_bytewise(&out) != parsed.stored_crc {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data);
        // The retained serial reference path must agree byte for byte.
        let r = decompress_reference(&c).expect("reference decompress");
        assert_eq!(r, data);
    }

    #[test]
    fn empty_input() {
        round_trip(b"");
    }

    #[test]
    fn small_text() {
        round_trip(b"hello world, hello world, hello world");
    }

    #[test]
    fn compresses_repetitive_data_well() {
        let data = b"0123456789abcdef".repeat(4096);
        let c = compress(&data);
        assert!(
            (c.len() as f64) < data.len() as f64 * 0.1,
            "only {} -> {}",
            data.len(),
            c.len()
        );
        round_trip(&data);
    }

    #[test]
    fn incompressible_data_stays_near_raw() {
        let mut x = 0x2545F4914F6CDD1Du64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let c = compress(&data);
        // Stored-mode fallback bounds expansion to the page table overhead.
        assert!(c.len() < data.len() + 64 + data.len() / DEFAULT_PAGE_SIZE * 8);
        round_trip(&data);
    }

    #[test]
    fn multi_page_boundaries() {
        let data: Vec<u8> = (0..DEFAULT_PAGE_SIZE * 2 + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        round_trip(&data);
        // Tiny pages stress the page table path.
        let c = compress_with_page_size(&data[..1000], 64);
        assert_eq!(decompress(&c).unwrap(), &data[..1000]);
    }

    #[test]
    fn fast_decode_rejects_corruption_like_reference() {
        let data = b"corruption must never pass ".repeat(40_000);
        let c = compress(&data);
        for pos in [8, c.len() / 2, c.len() - 3] {
            let mut bad = c.clone();
            bad[pos] ^= 0x40;
            let fast = decompress(&bad);
            let slow = decompress_reference(&bad);
            // Either both recover the exact data (flip in dead padding) or
            // both refuse; never silent corruption, never divergence.
            match (fast, slow) {
                (Ok(f), Ok(s)) => {
                    assert_eq!(f, data);
                    assert_eq!(s, data);
                }
                (Err(_), Err(_)) => {}
                (f, s) => panic!("fast {f:?} vs reference {s:?} at byte {pos}"),
            }
        }
    }

    #[test]
    fn stored_streams_decode_borrowed_and_match_compress() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut data = b"stored pages read in place ".repeat(5_000);
        data.extend((0..DEFAULT_PAGE_SIZE).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        }));
        let stored = store(&data);
        assert_eq!(
            stored.len(),
            data.len() + 25 + 5 * data.len().div_ceil(DEFAULT_PAGE_SIZE)
        );
        let (raw, crc) = decode(&stored).unwrap();
        assert!(matches!(raw, Cow::Borrowed(_)));
        assert_eq!(&*raw, &data[..]);
        assert_eq!(crc, crc32(&data));
        assert_eq!(decompress_reference(&stored).unwrap(), data);
        // The compressed container holds Huffman and stored pages and
        // decodes to the same bytes and CRC, owned.
        let compressed = compress(&data);
        assert!(compressed.len() < stored.len());
        let (raw, crc2) = decode(&compressed).unwrap();
        assert!(matches!(raw, Cow::Owned(_)));
        assert_eq!(&*raw, &data[..]);
        assert_eq!(crc2, crc);
        assert_eq!(store(b""), compress(b""));
        assert_eq!(decompress(&store(b"")).unwrap(), b"");
    }

    #[test]
    fn stored_page_corruption_is_caught_by_the_crc() {
        let data = b"a stored page is checked like any other".repeat(100);
        let mut bad = store(&data);
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert_eq!(decode(&bad).map(|_| ()), Err(CodecError::ChecksumMismatch));
        assert_eq!(
            decompress_reference(&bad),
            Err(CodecError::ChecksumMismatch)
        );
    }

    /// A header that declares far more raw bytes than its pages can hold:
    /// `page_size = u32::MAX`, `raw_len = 2^40`, and the 257 pages that
    /// page count implies, each stored and empty (1,310 bytes in all).
    fn oversized_raw_len_stream() -> Vec<u8> {
        let raw_len = 1u64 << 40;
        let n_pages = raw_len.div_ceil(u32::MAX as u64) as u32;
        let mut s = Vec::new();
        s.extend_from_slice(MAGIC);
        s.push(VERSION);
        s.extend_from_slice(&u32::MAX.to_le_bytes());
        s.extend_from_slice(&raw_len.to_le_bytes());
        s.extend_from_slice(&0u32.to_le_bytes());
        s.extend_from_slice(&n_pages.to_le_bytes());
        for _ in 0..n_pages {
            s.extend_from_slice(&0u32.to_le_bytes());
            s.push(MODE_STORED);
        }
        s
    }

    #[test]
    fn raw_len_beyond_the_page_table_is_refused_before_allocating() {
        let s = oversized_raw_len_stream();
        assert_eq!(s.len(), 1_310);
        // Before the page-table bound this allocated 1 TiB and aborted.
        assert!(matches!(decompress(&s), Err(CodecError::Corrupt(_))));
        assert!(matches!(
            decompress_reference(&s),
            Err(CodecError::Corrupt(_))
        ));
        // A Huffman page claiming more than MAX_MATCH bytes per two
        // payload bits is refused the same way.
        let mut h = Vec::new();
        h.extend_from_slice(MAGIC);
        h.push(VERSION);
        h.extend_from_slice(&u32::MAX.to_le_bytes());
        h.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
        h.extend_from_slice(&0u32.to_le_bytes());
        h.extend_from_slice(&1u32.to_le_bytes());
        h.extend_from_slice(&4u32.to_le_bytes());
        h.push(MODE_HUFFMAN);
        h.extend_from_slice(&[0xFF; 4]);
        assert_eq!(
            decompress(&h),
            Err(CodecError::Corrupt("page raw length exceeds its payload"))
        );
        assert!(matches!(
            decompress_reference(&h),
            Err(CodecError::Corrupt(_))
        ));
        // A page count whose table cannot fit the input is refused
        // before the table is allocated.
        let mut t = h[..21].to_vec();
        t.extend_from_slice(&u32::MAX.to_le_bytes());
        t[5..9].copy_from_slice(&1u32.to_le_bytes());
        t[9..17].copy_from_slice(&(u32::MAX as u64).to_le_bytes());
        assert_eq!(decompress(&t), Err(CodecError::Truncated));
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(decompress(b"NOPE"), Err(CodecError::BadMagic));
        assert_eq!(decompress(b"DZ"), Err(CodecError::Truncated));
        let mut c = compress(b"data data data");
        c[0] = b'X';
        assert_eq!(decompress(&c), Err(CodecError::BadMagic));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let data = b"the same phrase repeats; the same phrase repeats".repeat(10);
        let c = compress(&data);
        for cut in [5, 12, 20, c.len() - 1] {
            let r = decompress(&c[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_version_bump() {
        let mut c = compress(b"abc");
        c[4] = 9;
        assert_eq!(decompress(&c), Err(CodecError::BadVersion(9)));
    }

    #[test]
    fn length_symbol_tables_cover_all_lengths() {
        for len in MIN_MATCH as u16..=MAX_MATCH as u16 {
            let (sym, extra_val, extra_bits) = length_to_symbol(len);
            assert!((257..286).contains(&sym));
            let (base, eb) = LEN_TABLE[sym - 257];
            assert_eq!(eb, extra_bits);
            assert_eq!(base + extra_val, len);
            assert!(extra_val < (1 << extra_bits) || extra_bits == 0);
        }
    }

    #[test]
    fn distance_symbol_tables_cover_window() {
        for dist in [1u16, 2, 3, 4, 5, 100, 1024, 4096, 16384, 32767] {
            let (sym, extra_val, extra_bits) = dist_to_symbol(dist);
            let (base, eb) = DIST_TABLE[sym];
            assert_eq!(eb, extra_bits);
            assert_eq!(base + extra_val, dist);
        }
    }

    #[test]
    fn float_delta_bytes_compress() {
        // A packed, quantized delta looks like low-entropy integer data; the
        // codec must find structure in repeated scale bytes.
        let mut data = Vec::new();
        for i in 0..20_000u32 {
            data.extend_from_slice(&((i % 7) as u8).to_le_bytes());
            data.push(0);
            data.push(0);
        }
        let c = compress(&data);
        assert!(c.len() * 4 < data.len());
        round_trip(&data);
    }
}
